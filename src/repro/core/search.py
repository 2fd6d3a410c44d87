"""Unified crowd-aware path search (Section 5.1, Algorithms 3 and 4).

One Dijkstra-style label-setting search processes both query types:

* **FPQ** — priority = (overall travel time, overall distance);
* **LCPQ** — priority = (overall contact, overall distance);

per Problems 1 and 2 (minimize the primary cost; among ties, the shortest).

Search states are ``(door, partition-entered)`` pairs rather than bare doors:
with directed doors a door can be approached from either side and the
partition one ends up in differs — the paper's Algorithm 3 encodes the same
information as "``d_i``'s enterable partition minus the previous partition".
Costs are computed *on the fly* (Algorithm 4's Cost): the time to pass a
partition depends on its population at the arrival time, which depends on the
time spent so far — the population estimator is queried with the
tick covering ``t_q + elapsed``.

The search is exact for whichever estimator it is given; plugging in the
global / local / PP / NT / gold estimators yields *PQ-G, *PQ, *PQ-PP,
*PQ-NT and the gold standard respectively.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from repro.core.costs import passing_contact, passing_time
from repro.core.model import IndoorCrowdModel
from repro.space.geometry import IndoorPoint, euclid

FPQ = "FPQ"
LCPQ = "LCPQ"

_SOURCE = -1  # virtual state for p_s
_TARGET = -2  # virtual state for p_t


@dataclass(frozen=True)
class PathResult:
    """A planned indoor path ``(p_s, d_x, …, d_y, p_t)`` with its costs."""

    doors: tuple[int, ...]       # door sequence between p_s and p_t
    partitions: tuple[int, ...]  # partitions passed, starting at host(p_s)
    dist: float
    time: float
    contact: float

    def cost(self, qt: str) -> float:
        """The query-type primary cost (T_φ for FPQ, κ_φ for LCPQ)."""
        return self.time if qt == FPQ else self.contact


def segment_cost(
    model: IndoorCrowdModel, estimator, v: int, dist: float, arrival_s: float
) -> tuple[float, float]:
    """(passing time, passing contact) for one segment through ``v``.

    Implements Algorithm 4's inline Cost: look up the partition's population
    at the unit interval covering the arrival time, then apply Eq. 3 / Eq. 4.
    """
    tick = model.timeline.tick(arrival_s)
    pop = max(0.0, estimator.population(v, tick))
    area = float(model.area[v])
    density = pop / area
    d_max = float(model.cap[v]) / area
    is_q = bool(model.is_q[v])
    t = passing_time(dist, density, d_max, is_q, model.speed)
    k = passing_contact(dist, density, area, is_q)
    return t, k


class _SearchCache:
    """Per-model plain-Python adjacency for the hot Dijkstra loop.

    The search relaxes a few thousand edges per query; NumPy scalar indexing
    and per-call function dispatch would dominate the measurement, so door
    coordinates, per-partition out-edge lists and vertex labels are lowered
    to Python lists once per model.  A search *state* is a directed-edge id
    (the pair "door passed, partition entered"), which is exactly the
    information Algorithm 3 keeps via its prev-partition bookkeeping.
    """

    def __init__(self, model: IndoorCrowdModel):
        self.coords = [tuple(c) for c in model.door_xyz]
        self.out_lists = [
            [
                (int(e), int(model.e_door[e]), int(model.e_dst[e]))
                for e in model.out_edges[v]
            ]
            for v in range(model.n_partitions)
        ]
        self.stair = [float(s) for s in model.stair_len]
        self.area = [float(a) for a in model.area]
        self.dmax = [float(c / a) for c, a in zip(model.cap, model.area)]
        self.is_q = [bool(q) for q in model.is_q]
        self.e_door = [int(d) for d in model.e_door]
        self.e_dst = [int(v) for v in model.e_dst]
        self.edge_by_door_dst = {
            (d, v): e
            for e, (d, v) in enumerate(zip(self.e_door, self.e_dst))
        }


def _cache(model: IndoorCrowdModel) -> _SearchCache:
    got = getattr(model, "_search_cache", None)
    if got is None:
        got = _SearchCache(model)
        model._search_cache = got
    return got


def search(
    model: IndoorCrowdModel,
    estimator,
    ps: IndoorPoint | None,
    pt: IndoorPoint,
    t_q: float,
    qt: str = FPQ,
    *,
    start_door: tuple[int, int] | None = None,
) -> PathResult | None:
    """Algorithm 3: crowd-aware search from ``p_s`` to ``p_t`` at ``t_q``.

    ``start_door=(door, partition)`` replaces ``p_s`` as the origin — the
    adaptive baseline re-plans from the door it has just reached.
    """
    sc = _cache(model)
    fpq = qt == FPQ
    ti = model.timeline.ti
    max_tick = model.timeline.horizon - 1
    speed = model.speed
    exp = math.exp
    population = estimator.population
    pt_part = pt.partition
    pt_xyz = pt.xyz

    # states: directed-edge ids; -1 = source, -2 = target
    counter = itertools.count()
    best: dict[int, tuple[float, float]] = {}
    prev: dict[int, int] = {}
    if start_door is None:
        origin = _SOURCE
        origin_partition = ps.partition
    else:
        # resolve (door, partition-entered) to its directed-edge id
        origin = sc.edge_by_door_dst[(int(start_door[0]), int(start_door[1]))]
        origin_partition = int(start_door[1])
    best[origin] = (0.0, 0.0)
    heap: list[tuple] = [((0.0, 0.0), next(counter), origin, 0.0, 0.0, 0.0)]
    done: set[int] = set()
    final_cost = None

    while heap:
        k, _, state, dist_c, time_c, contact_c = heapq.heappop(heap)
        if state in done or k > best.get(state, k):
            continue
        done.add(state)
        if state == _TARGET:
            final_cost = (dist_c, time_c, contact_c)
            break
        if state == _SOURCE:
            v = ps.partition
            fx, fy, fz = ps.xyz
            from_door = -1
        else:
            from_door = sc.e_door[state]
            v = sc.e_dst[state] if state != origin else origin_partition
            fx, fy, fz = sc.coords[from_door]
        arrival = t_q + time_c
        # population-dependent factors of the current partition (Alg. 4 Cost)
        tick = int(arrival // ti)
        if tick > max_tick:
            tick = max_tick
        pop = population(v, tick)
        if pop < 0.0:
            pop = 0.0
        area = sc.area[v]
        dens = pop / area
        ratio = dens / sc.dmax[v]
        is_q = sc.is_q[v]
        exponent = ratio if is_q else ratio * ratio
        rho = 1.0 + exp(exponent if exponent < 60.0 else 60.0)
        stair = sc.stair[v]
        # towards p_t when the current partition hosts it (Alg. 3 l.19-20)
        if v == pt_part:
            if stair > 0.0 and from_door >= 0:
                seg = stair
            else:
                seg = math.sqrt(
                    (fx - pt_xyz[0]) ** 2 + (fy - pt_xyz[1]) ** 2 + (fz - pt_xyz[2]) ** 2
                )
            dt = (seg / speed) * rho
            dk = (1.0 / max(seg, 1.0)) * pop if is_q else seg * dens
            nc = (dist_c + seg, time_c + dt, contact_c + dk)
            nk = (nc[1], nc[0]) if fpq else (nc[2], nc[0])
            old = best.get(_TARGET)
            if old is None or nk < old:
                best[_TARGET] = nk
                prev[_TARGET] = state
                heapq.heappush(heap, (nk, next(counter), _TARGET, *nc))
        # expand to every unvisited leaveable door of v (Alg. 3 l.21-22)
        for e, d_out, _v2 in sc.out_lists[v]:
            if e in done:
                continue
            dx, dy, dz = sc.coords[d_out]
            if stair > 0.0 and from_door >= 0 and d_out != from_door:
                seg = stair
            elif d_out == from_door:
                seg = 0.0
            else:
                seg = math.sqrt((fx - dx) ** 2 + (fy - dy) ** 2 + (fz - dz) ** 2)
            dt = (seg / speed) * rho
            dk = (1.0 / max(seg, 1.0)) * pop if is_q else seg * dens
            nc0 = dist_c + seg
            nc1 = time_c + dt
            nc2 = contact_c + dk
            nk = (nc1, nc0) if fpq else (nc2, nc0)
            old = best.get(e)
            if old is None or nk < old:
                best[e] = nk
                prev[e] = state
                heapq.heappush(heap, (nk, next(counter), e, nc0, nc1, nc2))
    if final_cost is None:
        return None
    return _build_result(sc, origin, origin_partition, prev, final_cost)


def _build_result(
    sc: _SearchCache,
    origin: int,
    origin_partition: int,
    prev: dict[int, int],
    cost: tuple[float, float, float],
) -> PathResult:
    doors: list[int] = []
    partitions: list[int] = []
    state = prev[_TARGET]
    while state != origin and state != _SOURCE:
        doors.append(sc.e_door[state])
        partitions.append(sc.e_dst[state])
        state = prev[state]
    doors.reverse()
    partitions.reverse()
    return PathResult(
        doors=tuple(doors),
        partitions=(origin_partition, *partitions),
        dist=cost[0],
        time=cost[1],
        contact=cost[2],
    )


def static_distances(model: IndoorCrowdModel, ps: IndoorPoint) -> dict[tuple, float]:
    """Crowd-free indoor walking distance from ``p_s`` to every door state.

    Plain Dijkstra over the same state graph with pure Eq. 1 distances —
    used by the ``s2t``-controlled query-instance generator.
    """
    counter = itertools.count()
    dist: dict[tuple, float] = {_SOURCE: 0.0}
    heap: list[tuple] = [(0.0, next(counter), _SOURCE)]
    done: set[tuple] = set()
    while heap:
        d, _, state = heapq.heappop(heap)
        if state in done:
            continue
        done.add(state)
        if state == _SOURCE:
            v, from_door = ps.partition, None
        else:
            _, door, v = state
            from_door = door
        for e in model.out_edges[v]:
            d_out = int(model.e_door[e])
            nxt = ("D", d_out, int(model.e_dst[e]))
            if nxt in done:
                continue
            seg = (
                model.point_to_door(ps, d_out)
                if from_door is None
                else model.d2d(v, from_door, d_out)
            )
            nd = d + seg
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, next(counter), nxt))
    dist.pop(_SOURCE)
    return dist
