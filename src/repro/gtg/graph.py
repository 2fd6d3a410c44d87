"""General time-dependent graph (GTG) baseline — Section 3.1 / Appendix A.

The comparison graph the paper argues against: doors as vertices, and for
every partition all ordered pairs of its doors as edges ("many door-to-door
edges for the same partition").  Because GTG vertices cannot capture door
directionality, all doors are treated as bidirectional — the paper levels
the synthetic/real setups the same way for the comparative experiments.

*PQ-GTG runs "without precomputation": the adjacency is materialized per
query, so its cost (time and memory) is charged to the query, exactly as the
paper charges GTG's larger graph to the search.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.model import IndoorCrowdModel


def build_gtg(model: IndoorCrowdModel) -> dict[int, list[tuple[int, int, float]]]:
    """Adjacency: door -> [(next_door, via_partition, distance)].

    For each partition ``v`` with door set ``D_v``, every ordered pair
    ``(d_i ≠ d_j)`` becomes an edge passing ``v`` — ``Σ_v |D_v|·(|D_v|−1)``
    edges versus the crowd model's ``Σ_v |D_v|`` directed door crossings.
    """
    part_doors: dict[int, np.ndarray] = {
        v: model.partition_doors(v) for v in range(model.n_partitions)
    }
    adj: dict[int, list[tuple[int, int, float]]] = defaultdict(list)
    for v, doors in part_doors.items():
        for d_i in doors:
            for d_j in doors:
                if d_i == d_j:
                    continue
                adj[int(d_i)].append((int(d_j), v, model.d2d(v, int(d_i), int(d_j))))
    return dict(adj)

