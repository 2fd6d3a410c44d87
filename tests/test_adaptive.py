"""Tests for the *PQ-A adaptive baseline."""
import numpy as np
import pytest

from repro.core.adaptive import FrozenEstimator, adaptive_search
from repro.core.estimators import GoldEstimator
from repro.core.search import FPQ, LCPQ, search


def test_frozen_estimator_pins_tick(tiny_world):
    est = FrozenEstimator(tiny_world.gold_pop, 12)
    assert est.population(3, 50) == tiny_world.gold_pop[12, 3]
    assert est.population(3, 0) == tiny_world.gold_pop[12, 3]


def test_frozen_estimator_clamps():
    table = np.arange(12).reshape(3, 4).astype(float)
    assert FrozenEstimator(table, 99).population(1, 0) == table[2, 1]
    assert FrozenEstimator(table, -1).population(1, 0) == table[0, 1]


@pytest.mark.parametrize("qt", [FPQ, LCPQ])
def test_adaptive_reaches_target(tiny_world, qt):
    m = tiny_world.model
    for inst in tiny_world.instances:
        r = adaptive_search(
            m, tiny_world.gold_pop, inst.ps, inst.pt, tiny_world.settings.t_q, qt
        )
        assert r is not None
        assert r.partitions[0] == inst.ps.partition
        assert r.partitions[-1] == inst.pt.partition


def test_adaptive_path_topologically_valid(tiny_world):
    m = tiny_world.model
    inst = tiny_world.instances[1]
    r = adaptive_search(
        m, tiny_world.gold_pop, inst.ps, inst.pt, tiny_world.settings.t_q, FPQ
    )
    for i, d in enumerate(r.doors):
        ok = any(
            int(m.e_src[e]) == r.partitions[i]
            and int(m.e_dst[e]) == r.partitions[i + 1]
            and int(m.e_door[e]) == d
            for e in m.out_edges[r.partitions[i]]
        )
        assert ok


def test_adaptive_near_gold_in_static_world(tiny_world):
    """With a time-frozen world, adaptivity loses nothing: path == gold."""
    m = tiny_world.model
    static = np.repeat(tiny_world.gold_pop[10][None, :], len(tiny_world.gold_pop), 0)
    inst = tiny_world.instances[0]
    t_q = tiny_world.settings.t_q
    gold = search(m, GoldEstimator(static), inst.ps, inst.pt, t_q, FPQ)
    ada = adaptive_search(m, static, inst.ps, inst.pt, t_q, FPQ)
    assert ada.doors == gold.doors
    assert ada.time == pytest.approx(gold.time, rel=1e-9)


def test_adaptive_max_steps_guard(tiny_world):
    inst = tiny_world.instances[0]
    r = adaptive_search(
        tiny_world.model,
        tiny_world.gold_pop,
        inst.ps,
        inst.pt,
        tiny_world.settings.t_q,
        FPQ,
        max_steps=0,
    )
    assert r is None
