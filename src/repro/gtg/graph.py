"""General time-dependent graph (GTG) baseline — Section 3.1 / Appendix A.

The comparison graph the paper argues against: doors as vertices, and for
every partition all ordered pairs of its doors as edges ("many door-to-door
edges for the same partition").  Because GTG vertices cannot capture door
directionality, all doors are treated as bidirectional — the paper levels
the synthetic/real setups the same way for the comparative experiments.

*PQ-GTG runs "without precomputation": the adjacency is materialized per
query, so its cost (time and memory) is charged to the query, exactly as the
paper charges GTG's larger graph to the search.  Its lengths are the search's
Eq. 1 (``repro.core.search._leg``), and each door's list is the successor
list the shared search loop walks.
"""
from __future__ import annotations

from collections import defaultdict

from repro.core.model import IndoorCrowdModel
from repro.core.search import _cache, _leg


def build_gtg(model: IndoorCrowdModel) -> dict[int, list[tuple[int, int, float]]]:
    """Adjacency: door -> [(next_door, via_partition, distance)].

    For each partition ``v`` with door set ``D_v``, every ordered pair
    ``(d_i ≠ d_j)`` becomes an edge passing ``v`` — ``Σ_v |D_v|·(|D_v|−1)``
    edges versus the crowd model's ``Σ_v |D_v|`` directed door crossings.
    The door sets ``D_v`` are model topology, shared by every search; the
    pairs are what each GTG query builds.  A door's edges through one
    partition are listed together, partitions ascending.
    """
    sc = _cache(model)
    coords = sc.coords
    adj: dict[int, list[tuple[int, int, float]]] = defaultdict(list)
    for v, doors in enumerate(sc.part_doors):
        stair = sc.stair[v]
        for a in doors:
            a_xyz = coords[a]
            for b in doors:
                if b != a:
                    adj[a].append((b, v, _leg(stair, a, a_xyz, b, coords[b])))
    return dict(adj)
