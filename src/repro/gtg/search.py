"""*PQ-GTG: search over the general time-dependent graph (Section 6.1.1).

Same routing-cost semantics as Algorithm 3 (Eq. 3 / Eq. 4 via a population
estimator — the paper pairs GTG with "our exact population estimator"), but
over door vertices and all-pairs partition edges, with the adjacency built
per query (no precomputation).  This module only supplies that state graph:
the search is ``repro.core.search.label_search``, the loop every crowd-model
search runs, with its labels, exact-tie rule and FPQ bound.
"""
from __future__ import annotations

from repro.core.model import IndoorCrowdModel
from repro.core.search import FPQ, PathResult, StateGraph, _cache, label_search
from repro.gtg.graph import build_gtg
from repro.space.geometry import IndoorPoint


def gtg_search(
    model: IndoorCrowdModel,
    estimator,
    ps: IndoorPoint,
    pt: IndoorPoint,
    t_q: float,
    qt: str = FPQ,
) -> PathResult | None:
    """Crowd-aware search over the GTG (doors as vertices, both ways).

    A state is a door; ``p_s`` reaches, and ``p_t`` is reached from, every
    door of its host partition.
    """
    adj = build_gtg(model)
    sc = _cache(model)
    doors = list(range(model.n_doors))
    graph = StateGraph(sc.door_xyz, [adj.get(d, []) for d in doors], sc.part_doors, sc.part_doors, doors)
    return label_search(model, graph, estimator, ps, pt, t_q, qt)
