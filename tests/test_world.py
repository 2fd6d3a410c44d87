"""Tests for the world builders (Table 3 / Table 4 configurations)."""
import pickle

import numpy as np
import pytest

from repro.experiments.params import Settings
from repro.experiments.world import build_mall_world, build_synthetic_world


def test_synthetic_world_invariants(small_world):
    w = small_world
    m = w.model
    assert m.pop_l is not None
    assert m.tick_l == w.settings.tick_l == 30
    assert w.gold_pop.shape[1] == m.n_partitions
    assert len(w.instances) == w.settings.n_instances
    # gold populations conserve the initial object count
    totals = w.gold_pop.sum(axis=1)
    assert (totals == totals[0]).all()


def test_synthetic_world_snapshot_matches_gold(small_world):
    w = small_world
    assert np.array_equal(
        w.model.pop_l, w.gold_pop[w.model.tick_l].astype(float)
    )


def test_world_is_picklable(small_world):
    # required for Spark broadcast
    w2 = pickle.loads(pickle.dumps(small_world))
    assert len(w2.instances) == len(small_world.instances)
    assert np.array_equal(w2.gold_pop, small_world.gold_pop)


def test_settings_defaults_are_paper_bold_values():
    s = Settings()
    assert s.floors == 5
    assert s.obj_max == 600
    assert s.ti == 10.0
    assert s.s2t == 1300.0


@pytest.fixture(scope="module")
def mini_mall(spark):
    # shrunken trajectory world over the full mall topology
    return build_mall_world(
        Settings(n_instances=3),
        spark,
        horizon_ticks=420,
        n_objects=200,
        session_ticks=60,
    )


def test_mall_world_topology(mini_mall):
    assert mini_mall.model.n_partitions == 977
    assert mini_mall.model.n_doors == 1613


def test_mall_world_has_fitted_flows(mini_mall):
    lam = mini_mall.model.e_lam
    assert (lam >= 0).all()
    assert lam.sum() > 0


def test_mall_lambda_symmetric_per_door(mini_mall):
    m = mini_mall.model
    by_key = {
        (int(m.e_src[e]), int(m.e_dst[e]), int(m.e_door[e])): float(m.e_lam[e])
        for e in range(m.n_edges)
    }
    for (s, d, k), lam in by_key.items():
        back = by_key.get((d, s, k))
        if back is not None:
            assert back == lam


def test_mall_world_nt_skip_share(mini_mall):
    """Pins NT's skip share on the Spark-built mini mall: all 977 partitions
    have σ < η = 3 (the largest reads 1.9439), so NT never falls back to PP
    here either; the fallback is covered on the tiny world."""
    from repro.core.estimators import NTEstimator

    m = mini_mall.model
    sigma = np.array([s for _, s in m.flow_stats])
    assert len(sigma) == m.n_partitions
    assert (sigma < NTEstimator(m).eta).mean() == 1.0
    assert sigma.max() == pytest.approx(1.9439364415764444, rel=1e-9)


def test_mall_world_gold_consistency(mini_mall):
    w = mini_mall
    assert np.array_equal(
        w.model.pop_l, w.gold_pop[w.model.tick_l].astype(float)
    )
    totals = w.gold_pop.sum(axis=1)
    assert (totals == totals[0]).all()


def test_mall_world_instances_usable(mini_mall):
    from repro.core.estimators import PPEstimator
    from repro.core.search import FPQ, search
    from repro.experiments.harness import model_tq

    inst = mini_mall.instances[0]
    r = search(
        mini_mall.model,
        PPEstimator(mini_mall.model),
        inst.ps,
        inst.pt,
        model_tq(mini_mall.model),
        FPQ,
    )
    assert r is not None and r.time > 0
