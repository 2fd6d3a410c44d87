"""Unified crowd-aware path search (Section 5.1, Algorithms 3 and 4).

One label-setting search processes both query types:

* **FPQ** — label = (overall travel time, overall distance);
* **LCPQ** — label = (overall contact, overall distance);

per Problems 1 and 2 (minimize the primary cost; among ties, the shortest).
A label also counts the doors passed, and among paths of equal cost and
length the one through the fewest doors wins.  An exact tie on all three
keeps the predecessor with the smaller label, then the one with the smaller
state id.  Every leg adds a door, so each predecessor that ties has a
strictly smaller label and is expanded before the state closes: the path
returned does not depend on the order in which tied labels are popped.

FPQ runs as A* (Hart, Nilsson and Raphael, 1968).  Eq. 2 gives every
partition ``ρ = 1 + e^x ≥ 2``, even an empty one, so a leg of length ℓ takes
at least ``2ℓ / s̄``.  Partitions are convex, no stairway is shorter than
the straight line between its doors, and query points lie in rooms, so
``h = 2·euclid(door, p_t) / s̄`` bounds the remaining time from below and
never falls by more than a leg costs.  Only the heap priority moves, to
``(g_t + h, g_d + euclid, doors)``; ``best`` and the tie rule keep the
unshifted label, so the costs and the path equal those of plain Dijkstra.
Both bounds are shrunk by a relative 1e-9 (``_BOUND_SHRINK``): a leg of
positive length then raises the priority by at least 1e-9 of its time, far
above rounding, a zero-length leg raises the door count, and so every tied
predecessor still closes first.  LCPQ stays Dijkstra (bound 0): contact
through an empty R-partition is 0, so no useful bound exists.

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

import numpy as np

from repro.core.costs import crowd_factors, passing_costs
from repro.core.model import IndoorCrowdModel
from repro.space.geometry import IndoorPoint

FPQ = "FPQ"
LCPQ = "LCPQ"

_SOURCE = -1  # virtual state (and pseudo-door) for p_s
_TARGET = -2  # virtual state (and pseudo-door) for p_t
_BOUND_SHRINK = 1.0 - 1e-9  # keeps priorities strictly rising (module docstring)


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
    """Per-model plain-Python adjacency for the hot search loop.

    The search relaxes a few thousand edges per query; NumPy scalar indexing
    and per-call function dispatch would dominate the measurement, so door
    coordinates, per-partition out-edge lists and vertex labels are lowered
    to Python lists once per model.  ``out_lists[v]`` holds
    ``(edge, door, door xyz)`` for every edge leaving ``v``.
    """

    def __init__(self, model: IndoorCrowdModel):
        self.door_xyz = np.asarray(model.door_xyz, dtype=float)
        self.coords = [tuple(float(x) for x in c) for c in self.door_xyz]
        self.no_bound = [0.0] * (len(self.coords) + 2)
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


def lower_bounds(model: IndoorCrowdModel, pt: IndoorPoint, qt: str) -> tuple[list, list]:
    """A*'s ``(time, distance)`` bounds from each door to ``p_t``, by door id.

    FPQ: ``2·euclid / s̄`` and ``euclid``, both shrunk by ``_BOUND_SHRINK``;
    LCPQ: 0.  The last two slots serve the pseudo-doors ``_TARGET`` and
    ``_SOURCE`` (ids -2 and -1) and hold 0.
    """
    sc = _cache(model)
    if qt != FPQ:
        return sc.no_bound, sc.no_bound
    d = np.sqrt(((sc.door_xyz - pt.coords()) ** 2).sum(axis=1)) * _BOUND_SHRINK
    return [*(d * (2.0 / model.speed)).tolist(), 0.0, 0.0], [*d.tolist(), 0.0, 0.0]


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
    h_time, h_dist = lower_bounds(model, pt, qt)

    best: dict[int, tuple[float, float, int]] = {}
    prev: dict[int, int] = {}
    if start_door is None:
        origin = _SOURCE
        origin_partition = ps.partition
    else:
        # resolve (door, partition-entered) to its directed-edge id
        origin = sc.edge_by_door_dst[(int(start_door[0]), int(start_door[1]))]
        origin_partition = int(start_door[1])
    best[origin] = (0.0, 0.0, 0)
    heap: list[tuple] = [((0.0, 0.0, 0), origin, best[origin], 0.0, 0.0, 0.0)]
    done: set[int] = set()
    final_cost = None

    while heap:
        _, state, k, dist_c, time_c, contact_c = heapq.heappop(heap)
        if state in done or k != best[state]:
            continue  # closed, or since improved on: the entry is stale
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
        hops = k[2] + 1
        # expand to every unvisited leaveable door of v (Alg. 3 l.21-22)
        for e, d_out, to_xyz in pt_list if v == pt_part else sc.out_lists[v]:
            if e in done:
                continue
            seg = _leg(stair, from_door, from_xyz, d_out, to_xyz)
            dt, dk = passing_costs(seg, speed, rho, pop, dens, is_q)
            nc0 = dist_c + seg
            nc1 = time_c + dt
            nc2 = contact_c + dk
            nk = (nc1, nc0, hops) if fpq else (nc2, nc0, hops)
            old = best.get(e)
            if old is None or nk < old:
                best[e] = nk
                prev[e] = state
                pk = (nk[0] + h_time[d_out], nc0 + h_dist[d_out], hops)
                heapq.heappush(heap, (pk, e, nk, nc0, nc1, nc2))
            elif nk == old and (k, state) < (best[prev[e]], prev[e]):
                prev[e] = state
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
