"""*PQ-GTG: Dijkstra over the general time-dependent graph (Section 6.1.1).

Same routing-cost semantics as Algorithm 3 (Eq. 3 / Eq. 4 via a population
estimator — the paper pairs GTG with "our exact population estimator"), but
over door vertices and all-pairs partition edges, with the adjacency built
per query (no precomputation).
"""
from __future__ import annotations

import heapq
import itertools

from repro.core.model import IndoorCrowdModel
from repro.core.search import FPQ, PathResult, segment_cost
from repro.gtg.graph import build_gtg
from repro.space.geometry import IndoorPoint, euclid


def gtg_search(
    model: IndoorCrowdModel,
    estimator,
    ps: IndoorPoint,
    pt: IndoorPoint,
    t_q: float,
    qt: str = FPQ,
) -> PathResult | None:
    """Crowd-aware Dijkstra over the GTG (doors as vertices)."""
    adj = build_gtg(model)

    def key(cost):
        return (cost[1], cost[0]) if qt == FPQ else (cost[2], cost[0])

    counter = itertools.count()
    SOURCE, TARGET = -1, -2
    pt_doors = set(map(int, model.partition_doors(pt.partition)))
    best = {SOURCE: (0.0, 0.0)}
    prev: dict[int, tuple[int | None, int]] = {SOURCE: (None, -1)}
    heap = [((0.0, 0.0), next(counter), SOURCE, (0.0, 0.0, 0.0))]
    done: set[int] = set()
    while heap:
        _, _, node, cost = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == TARGET:
            return _build(model, ps, prev, cost)
        dist_c, time_c, contact_c = cost
        arrival = t_q + time_c

        def relax(nxt, via, seg):
            dt, dk = segment_cost(model, estimator, via, seg, arrival)
            new_cost = (dist_c + seg, time_c + dt, contact_c + dk)
            nk = key(new_cost)
            old = best.get(nxt)
            if old is None or nk < old:
                best[nxt] = nk
                prev[nxt] = (node, via)
                heapq.heappush(heap, (nk, next(counter), nxt, new_cost))

        if node == SOURCE:
            v = ps.partition
            for d in model.partition_doors(v):
                relax(int(d), v, model.point_to_door(ps, int(d)))
            if v == pt.partition:
                relax(TARGET, v, euclid(ps.coords(), pt.coords()))
            continue
        # towards p_t if this door belongs to p_t's host partition
        if node in pt_doors:
            relax(TARGET, pt.partition, model.point_to_door(pt, node))
        for d_j, v, seg in adj.get(node, ()):
            if d_j not in done:
                relax(d_j, v, seg)
    return None


def _build(model, ps, prev, cost) -> PathResult:
    doors: list[int] = []
    parts: list[int] = []
    node, via = prev[-2]
    parts.append(via)
    while node is not None and node != -1:
        doors.append(node)
        node, via = prev[node]
        parts.append(via)
    doors.reverse()
    parts.reverse()
    return PathResult(
        doors=tuple(doors),
        partitions=tuple(parts),
        dist=cost[0],
        time=cost[1],
        contact=cost[2],
    )
