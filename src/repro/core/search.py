"""Unified crowd-aware path search (Section 5.1, Algorithms 3 and 4).

One Dijkstra-style label-setting search processes both query types:

* **FPQ** — priority = (overall travel time, overall distance);
* **LCPQ** — priority = (overall contact, overall distance);

per Problems 1 and 2 (minimize the primary cost; among ties, the shortest).

Search states are directed-edge ids — the pair "door passed, partition
entered" — rather than bare doors: with directed doors a door can be
approached from either side and the partition one ends up in differs.  The
paper's Algorithm 3 encodes the same information as "``d_i``'s enterable
partition minus the previous partition".  ``_SearchCache`` is the one
definition of this state graph; ``static_distances`` (the crowd-free
Dijkstra behind query generation) walks it too.

Costs are computed *on the fly* (Algorithm 4's Cost): the time to pass a
partition depends on its population at the arrival time, which depends on the
time spent so far — the population estimator is queried with the tick
covering ``t_q + elapsed``, and ``core.costs`` turns that population into
Eq. 2–4 costs.  The leg to ``p_t`` is a pseudo-neighbour listed first in its
host partition, so every leg goes through one relaxation block and one Eq. 1
length rule (``_leg``).

The search is exact for whichever estimator it is given; plugging in the
global / local / PP / NT / gold estimators yields *PQ-G, *PQ, *PQ-PP,
*PQ-NT and the gold standard respectively.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from repro.core.costs import crowd_factors, passing_costs
from repro.core.model import IndoorCrowdModel
from repro.space.geometry import IndoorPoint

FPQ = "FPQ"
LCPQ = "LCPQ"

_SOURCE = -1  # virtual state (and pseudo-door) for p_s
_TARGET = -2  # virtual state (and pseudo-door) for p_t


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
    at the unit interval covering the arrival time, then apply Eq. 2–4.
    """
    sc = _cache(model)
    pop = estimator.population(v, model.timeline.tick(arrival_s))
    rho, pop, dens = crowd_factors(pop, sc.area[v], sc.dmax[v], sc.is_q[v])
    return passing_costs(dist, model.speed, rho, pop, dens, sc.is_q[v])


class _SearchCache:
    """Per-model plain-Python adjacency for the hot Dijkstra loop.

    The search relaxes a few thousand edges per query; NumPy scalar indexing
    and per-call function dispatch would dominate the measurement, so door
    coordinates, per-partition out-edge lists and vertex labels are lowered
    to Python lists once per model.  ``out_lists[v]`` holds
    ``(edge, door, door xyz)`` for every edge leaving ``v``.
    """

    def __init__(self, model: IndoorCrowdModel):
        self.coords = [tuple(float(x) for x in c) for c in model.door_xyz]
        self.e_door = [int(d) for d in model.e_door]
        self.e_dst = [int(v) for v in model.e_dst]
        self.out_lists = [
            [(int(e), self.e_door[e], self.coords[self.e_door[e]]) for e in model.out_edges[v]]
            for v in range(model.n_partitions)
        ]
        self.stair = [float(s) for s in model.stair_len]
        self.area = [float(a) for a in model.area]
        self.dmax = [float(c / a) for c, a in zip(model.cap, model.area)]
        self.is_q = [bool(q) for q in model.is_q]
        self.edge_by_door_dst = {
            (d, v): e
            for e, (d, v) in enumerate(zip(self.e_door, self.e_dst))
        }


def _cache(model: IndoorCrowdModel) -> _SearchCache:
    got = model.derived.get(__name__)
    if got is None:
        got = model.derived[__name__] = _SearchCache(model)
    return got


def _leg(stair: float, a: int, a_xyz, b: int, b_xyz) -> float:
    """Eq. 1: walking length from door (or point) ``a`` to ``b`` in one partition.

    Same door → 0; a stairway leg that touches a door → the stairway's
    walking length; otherwise the straight line (partitions are convex), as
    for the direct ``p_s → p_t`` leg.  Points pass negative ids.
    """
    if a == b:
        return 0.0
    if stair > 0.0 and (a >= 0 or b >= 0):
        return stair
    return math.sqrt(
        (a_xyz[0] - b_xyz[0]) ** 2 + (a_xyz[1] - b_xyz[1]) ** 2 + (a_xyz[2] - b_xyz[2]) ** 2
    )


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
    population = estimator.population
    pt_part = pt.partition
    # towards p_t when the current partition hosts it (Alg. 3 l.19-20)
    pt_list = [(_TARGET, _TARGET, pt.xyz), *sc.out_lists[pt_part]]

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
        _, _, state, dist_c, time_c, contact_c = heapq.heappop(heap)
        if state in done:
            continue
        done.add(state)
        if state == _TARGET:
            final_cost = (dist_c, time_c, contact_c)
            break
        if state == _SOURCE:
            v, from_door, from_xyz = ps.partition, _SOURCE, ps.xyz
        else:
            v, from_door = sc.e_dst[state], sc.e_door[state]
            from_xyz = sc.coords[from_door]
        # population-dependent factors of the current partition (Alg. 4 Cost)
        tick = int((t_q + time_c) // ti)
        if tick > max_tick:
            tick = max_tick
        is_q = sc.is_q[v]
        rho, pop, dens = crowd_factors(population(v, tick), sc.area[v], sc.dmax[v], is_q)
        stair = sc.stair[v]
        # expand to every unvisited leaveable door of v (Alg. 3 l.21-22)
        for e, d_out, to_xyz in pt_list if v == pt_part else sc.out_lists[v]:
            if e in done:
                continue
            seg = _leg(stair, from_door, from_xyz, d_out, to_xyz)
            dt, dk = passing_costs(seg, speed, rho, pop, dens, is_q)
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
    while state != origin:
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


def static_distances(model: IndoorCrowdModel, ps: IndoorPoint) -> dict[int, float]:
    """Crowd-free indoor walking distance from ``p_s`` to every edge state.

    Plain Dijkstra over the search's state graph with pure Eq. 1 distances,
    keyed by directed-edge id — used by the ``s2t``-controlled query-instance
    generator.
    """
    sc = _cache(model)
    counter = itertools.count()
    dist: dict[int, float] = {}
    heap: list[tuple] = [(0.0, next(counter), _SOURCE)]
    done: set[int] = set()
    while heap:
        d, _, state = heapq.heappop(heap)
        if state in done:
            continue
        done.add(state)
        if state == _SOURCE:
            v, from_door, from_xyz = ps.partition, _SOURCE, ps.xyz
        else:
            v, from_door = sc.e_dst[state], sc.e_door[state]
            from_xyz = sc.coords[from_door]
        stair = sc.stair[v]
        for e, d_out, to_xyz in sc.out_lists[v]:
            if e in done:
                continue
            nd = d + _leg(stair, from_door, from_xyz, d_out, to_xyz)
            if nd < dist.get(e, math.inf):
                dist[e] = nd
                heapq.heappush(heap, (nd, next(counter), e))
    return dist
