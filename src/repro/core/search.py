"""Unified crowd-aware path search (Section 5.1, Algorithms 3 and 4).

One label-setting search, ``label_search``, processes both query types:

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

The search walks a ``StateGraph``: each state stands at a door, and its
successors are ``(next state, partition passed, Eq. 1 leg)``.  On the crowd
model a state is a directed-edge id — the pair "door passed, partition
entered" — rather than a bare door: with directed doors a door can be
approached from either side and the partition one ends up in differs.  The
paper's Algorithm 3 encodes the same information as "``d_i``'s enterable
partition minus the previous partition".  That graph is built once per model
(``_SearchCache``); ``static_distances`` (the crowd-free Dijkstra behind
query generation) walks it too.  *PQ-GTG hands the same loop its door-vertex
graph (``repro.gtg.search``).  ``_leg`` is the one Eq. 1.

Costs are computed *on the fly* (Algorithm 4's Cost): the time to pass a
partition depends on its population at the arrival time, which depends on the
time spent so far — the population estimator is queried with the tick
covering ``t_q + elapsed``, once per expanded state and partition passed, and
``core.costs`` turns that population into Eq. 2–4 costs.  The legs from
``p_s`` and to ``p_t`` are added per query.

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


class StateGraph:
    """The graph ``label_search`` walks.

    ``succ[s]`` lists ``(next state, partition passed, Eq. 1 leg)`` for each
    leg out of state ``s``, the legs through one partition kept together;
    ``leave[v]`` and ``enter[v]`` are the states that leave and enter
    partition ``v`` — the legs from ``p_s`` end at the former, the legs to
    ``p_t`` start at the latter; ``door[s]`` is the door state ``s`` stands at.
    """

    def __init__(self, door_xyz: np.ndarray, succ: list, leave: list, enter: list, door: list):
        self.succ, self.leave, self.enter, self.door = succ, leave, enter, door
        self.xyz = door_xyz[door]
        self.no_bound = [0.0] * (len(door) + 2)


class _SearchCache:
    """Per-model plain-Python lists for the hot search loop, and the crowd
    model's state graph.

    The search relaxes a few thousand edges per query; NumPy scalar indexing
    and per-call function dispatch would dominate the measurement, so door
    coordinates, door sets and vertex labels are lowered to Python lists, and
    every door-to-door leg is computed, once per model.
    """

    def __init__(self, model: IndoorCrowdModel):
        self.door_xyz = np.asarray(model.door_xyz, dtype=float)
        self.coords = [tuple(c) for c in self.door_xyz.tolist()]
        self.stair = model.stair_len.astype(float).tolist()
        self.area = model.area.astype(float).tolist()
        self.dmax = (model.cap / model.area).astype(float).tolist()
        self.is_q = model.is_q.astype(bool).tolist()
        self.part_doors = [d.tolist() for d in model.part_doors]
        e_door, e_dst = model.e_door.tolist(), model.e_dst.tolist()
        self.edge_by_door_dst = {(d, v): e for e, (d, v) in enumerate(zip(e_door, e_dst))}
        leave = [grp.tolist() for grp in model.out_edges]
        c, stair = self.coords, self.stair
        succ = [
            [(f, v, _leg(stair[v], d, c[d], e_door[f], c[e_door[f]])) for f in leave[v]]
            for d, v in zip(e_door, e_dst)
        ]
        enter = [grp.tolist() for grp in model.in_edges]
        self.graph = StateGraph(self.door_xyz, succ, leave, enter, e_door)


def _cache(model: IndoorCrowdModel) -> _SearchCache:
    got = model.derived.get(__name__)
    if got is None:
        got = model.derived[__name__] = _SearchCache(model)
    return got


def lower_bounds(
    model: IndoorCrowdModel, graph: StateGraph, pt: IndoorPoint, qt: str
) -> tuple[list, list]:
    """A*'s ``(time, distance)`` bounds from each state's door to ``p_t``.

    FPQ: ``2·euclid / s̄`` and ``euclid``, both shrunk by ``_BOUND_SHRINK``;
    LCPQ: 0.  Indexed by state; the last two slots serve ``_TARGET`` and
    ``_SOURCE`` (ids -2 and -1) and hold 0.
    """
    if qt != FPQ:
        return graph.no_bound, graph.no_bound
    d = np.sqrt(((graph.xyz - pt.coords()) ** 2).sum(axis=1)) * _BOUND_SHRINK
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


def _source_legs(sc: _SearchCache, graph: StateGraph, ps: IndoorPoint) -> list:
    """The legs from ``p_s`` to every state leaving its host partition."""
    v, door, coords = ps.partition, graph.door, sc.coords
    stair = sc.stair[v]
    return [(s, v, _leg(stair, _SOURCE, ps.xyz, door[s], coords[door[s]])) for s in graph.leave[v]]


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
    """Algorithm 3 on the crowd model: from ``p_s`` to ``p_t`` at ``t_q``.

    ``start_door=(door, partition)`` replaces ``p_s`` as the origin — the
    adaptive baseline re-plans from the door it has just reached.
    """
    sc = _cache(model)
    origin = _SOURCE
    if start_door is not None:
        # resolve (door, partition-entered) to its directed-edge id
        origin = sc.edge_by_door_dst[(int(start_door[0]), int(start_door[1]))]
    return label_search(model, sc.graph, estimator, ps, pt, t_q, qt, origin=origin)


def label_search(
    model: IndoorCrowdModel,
    graph: StateGraph,
    estimator,
    ps: IndoorPoint | None,
    pt: IndoorPoint,
    t_q: float,
    qt: str = FPQ,
    *,
    origin: int = _SOURCE,
) -> PathResult | None:
    """The label-setting loop of Algorithms 3 and 4 over ``graph``.

    Starts at ``p_s``, or at state ``origin`` when one is given.
    """
    sc = _cache(model)
    fpq = qt == FPQ
    ti = model.timeline.ti
    max_tick = model.timeline.horizon - 1
    speed = model.speed
    population = estimator.population
    area, dmax, is_q = sc.area, sc.dmax, sc.is_q
    door = graph.door
    h_time, h_dist = lower_bounds(model, graph, pt, qt)
    heappop, heappush = heapq.heappop, heapq.heappush

    # Per-state lists, indexed by state id; the last two slots serve
    # _TARGET and _SOURCE (ids -2 and -1).  ``adj`` is this query's copy of
    # the successor lists: p_s out of its host, and into p_t from the states
    # entering its host (Alg. 3 l.19-20).  A leg to p_t joins the other legs
    # through p_t's host, so that partition's factors are looked up once.
    n = len(door) + 2
    adj = [*graph.succ, [], []]
    pt_part, pt_stair = pt.partition, sc.stair[pt.partition]
    for s in graph.enter[pt_part]:
        to_pt = (_TARGET, pt_part, _leg(pt_stair, door[s], sc.coords[door[s]], _TARGET, pt.xyz))
        out_s = graph.succ[s]
        i = next((j for j, x in enumerate(out_s) if x[1] == pt_part), len(out_s))
        adj[s] = [*out_s[:i], to_pt, *out_s[i:]]
    if origin == _SOURCE:
        adj[_SOURCE] = _source_legs(sc, graph, ps)
        if ps.partition == pt_part:
            adj[_SOURCE].insert(0, (_TARGET, pt_part, _leg(pt_stair, _SOURCE, ps.xyz, _TARGET, pt.xyz)))

    best: list = [None] * n  # state -> best label (cost, distance, doors)
    prev: list = [None] * n  # state -> (predecessor, partition passed)
    done = [False] * n
    best[origin] = (0.0, 0.0, 0)
    # (priority, distance priority, doors, state, label, distance, time, contact)
    heap: list[tuple] = [(0.0, 0.0, 0, origin, best[origin], 0.0, 0.0, 0.0)]
    while heap:
        _, _, hops, state, k, dist_c, time_c, contact_c = heappop(heap)
        if k is not best[state]:
            continue  # since improved on, or closed: the entry is stale
        done[state] = True
        if state == _TARGET:
            return _path(graph, origin, prev, dist_c, time_c, contact_c)
        tick = int((t_q + time_c) // ti)
        if tick > max_tick:
            tick = max_tick
        hops += 1
        fv = -1
        # expand to every unvisited successor (Alg. 3 l.21-22)
        for nxt, v, seg in adj[state]:
            if done[nxt]:
                continue
            if v != fv:  # population-dependent factors of v (Alg. 4 Cost)
                fv, q = v, is_q[v]
                rho, pop, dens = crowd_factors(population(v, tick), area[v], dmax[v], q)
            dt, dk = passing_costs(seg, speed, rho, pop, dens, q)
            nc0 = dist_c + seg
            nc1 = time_c + dt
            nc2 = contact_c + dk
            nk = (nc1, nc0, hops) if fpq else (nc2, nc0, hops)
            old = best[nxt]
            if old is None or nk < old:
                best[nxt] = nk
                prev[nxt] = (state, v)
                heappush(heap, (nk[0] + h_time[nxt], nc0 + h_dist[nxt], hops, nxt, nk, nc0, nc1, nc2))
            elif nk == old and (k, state) < (best[prev[nxt][0]], prev[nxt][0]):
                prev[nxt] = (state, v)
    return None


def _path(
    graph: StateGraph, origin: int, prev: list, dist: float, time: float, contact: float
) -> PathResult:
    """Follow ``prev`` back from ``p_t``: the doors of the states and the partitions passed."""
    doors: list[int] = []
    state, v = prev[_TARGET]
    partitions = [v]
    while state != origin:
        doors.append(graph.door[state])
        state, v = prev[state]
        partitions.append(v)
    return PathResult(
        doors=tuple(reversed(doors)),
        partitions=tuple(reversed(partitions)),
        dist=dist,
        time=time,
        contact=contact,
    )


def static_distances(model: IndoorCrowdModel, ps: IndoorPoint) -> dict[int, float]:
    """Crowd-free indoor walking distance from ``p_s`` to every edge state.

    Plain Dijkstra over the search's state graph with pure Eq. 1 distances,
    keyed by directed-edge id — used by the ``s2t``-controlled query-instance
    generator.
    """
    sc = _cache(model)
    succ = sc.graph.succ
    source = _source_legs(sc, sc.graph, ps)
    counter = itertools.count()
    dist: dict[int, float] = {}
    heap: list[tuple] = [(0.0, next(counter), _SOURCE)]
    done: set[int] = set()
    while heap:
        d, _, state = heapq.heappop(heap)
        if state in done:
            continue
        done.add(state)
        for e, _, seg in source if state == _SOURCE else succ[state]:
            if e in done:
                continue
            nd = d + seg
            if nd < dist.get(e, math.inf):
                dist[e] = nd
                heapq.heappush(heap, (nd, next(counter), e))
    return dist
