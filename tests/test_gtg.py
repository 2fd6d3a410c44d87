"""Tests for the GTG baseline (Section 3.1 / Appendix A / Section 6.1.1)."""
import numpy as np
import pytest

from repro.core.estimators import GlobalEstimator
from repro.core.search import FPQ, LCPQ, search
from repro.gtg.graph import build_gtg
from repro.gtg.search import gtg_search


def _gtg_edge_formula(m):
    """Appendix A: ``Σ_v |D_v|·(|D_v|−1)`` ordered door pairs per partition."""
    return sum(
        len(m.partition_doors(v)) * (len(m.partition_doors(v)) - 1)
        for v in range(m.n_partitions)
    )


def test_gtg_sizes_formula(tiny_space):
    m = tiny_space.model
    adj = build_gtg(m)
    assert sum(len(v) for v in adj.values()) == _gtg_edge_formula(m)
    assert set(adj) <= set(range(m.n_doors))  # vertices are doors


def test_gtg_has_more_edges_than_crowd_model(tiny_space):
    """Appendix A: the GTG contains many more door-to-door edges."""
    m = tiny_space.model
    adj = build_gtg(m)
    assert sum(len(v) for v in adj.values()) > m.n_edges


def test_adjacency_matches_sizes(tiny_space):
    """Door ``d`` has ``|D_v| − 1`` out-edges through each partition ``v ∋ d``."""
    m = tiny_space.model
    adj = build_gtg(m)
    expect = {}
    for v in range(m.n_partitions):
        doors = m.partition_doors(v)
        for d in doors:
            expect[int(d)] = expect.get(int(d), 0) + len(doors) - 1
    got = {d: len(outs) for d, outs in adj.items()}
    assert got == {d: k for d, k in expect.items() if k}
    for d_i, outs in adj.items():
        for d_j, v, _ in outs:
            assert {d_i, d_j} <= set(m.partition_doors(v).tolist())


def test_adjacency_distances_symmetric(tiny_space):
    m = tiny_space.model
    adj = build_gtg(m)
    for d_i, outs in adj.items():
        for d_j, v, dist in outs:
            back = [x for x in adj[d_j] if x[0] == d_i and x[1] == v]
            assert back and back[0][2] == pytest.approx(dist)


@pytest.mark.parametrize("qt", [FPQ, LCPQ])
def test_gtg_matches_exact_search_costs(tiny_world, qt):
    """The paper: *PQ-GTG accuracy equals the exact searches."""
    m = tiny_world.model
    t_q = tiny_world.settings.t_q
    for inst in tiny_world.instances:
        a = search(m, GlobalEstimator(m), inst.ps, inst.pt, t_q, qt)
        b = gtg_search(m, GlobalEstimator(m), inst.ps, inst.pt, t_q, qt)
        assert b is not None
        key_a = (a.time, a.dist) if qt == FPQ else (a.contact, a.dist)
        key_b = (b.time, b.dist) if qt == FPQ else (b.contact, b.dist)
        assert key_b == pytest.approx(key_a, rel=1e-9)


def test_gtg_path_valid(tiny_world):
    m = tiny_world.model
    inst = tiny_world.instances[0]
    r = gtg_search(m, GlobalEstimator(m), inst.ps, inst.pt, tiny_world.settings.t_q, FPQ)
    assert r.partitions[0] == inst.ps.partition
    assert r.partitions[-1] == inst.pt.partition
    for i, d in enumerate(r.doors):
        assert d in set(map(int, m.partition_doors(r.partitions[i])))
        assert d in set(map(int, m.partition_doors(r.partitions[i + 1])))
