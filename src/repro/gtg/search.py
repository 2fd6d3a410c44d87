"""*PQ-GTG: search over the general time-dependent graph (Section 6.1.1).

Same routing-cost semantics as Algorithm 3 (Eq. 3 / Eq. 4 via a population
estimator — the paper pairs GTG with "our exact population estimator"), but
over door vertices and all-pairs partition edges, with the adjacency built
per query (no precomputation).
"""
from __future__ import annotations

import heapq

from repro.core.model import IndoorCrowdModel
from repro.core.search import FPQ, PathResult, lower_bounds, segment_cost
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
    """Crowd-aware search over the GTG (doors as vertices).

    Labels, exact ties and the FPQ bound follow ``repro.core.search``: the
    label is (cost, distance, doors passed), a tie keeps the predecessor
    with the smaller label, then the smaller ``(door, via)``, and FPQ is A*
    with the same door bound.
    """
    adj = build_gtg(model)
    primary = 1 if qt == FPQ else 2
    h_time, h_dist = lower_bounds(model, pt, qt)

    SOURCE, TARGET = -1, -2
    pt_doors = set(map(int, model.partition_doors(pt.partition)))
    best = {SOURCE: (0.0, 0.0, 0)}
    prev: dict[int, tuple[int | None, int]] = {SOURCE: (None, -1)}
    heap = [((0.0, 0.0, 0), SOURCE, best[SOURCE], (0.0, 0.0, 0.0))]
    done: set[int] = set()
    while heap:
        _, node, k, cost = heapq.heappop(heap)
        if node in done or k != best[node]:
            continue  # closed, or since improved on: the entry is stale
        done.add(node)
        if node == TARGET:
            return _build(model, ps, prev, cost)
        dist_c, time_c, contact_c = cost
        arrival = t_q + time_c
        hops = k[2] + 1

        def relax(nxt, via, seg):
            dt, dk = segment_cost(model, estimator, via, seg, arrival)
            new_cost = (dist_c + seg, time_c + dt, contact_c + dk)
            nk = (new_cost[primary], new_cost[0], hops)
            old = best.get(nxt)
            if old is None or nk < old:
                best[nxt] = nk
                prev[nxt] = (node, via)
                pk = (nk[0] + h_time[nxt], new_cost[0] + h_dist[nxt], hops)
                heapq.heappush(heap, (pk, nxt, nk, new_cost))
            elif nk == old and (k, node, via) < (best[prev[nxt][0]], *prev[nxt]):
                prev[nxt] = (node, via)

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
