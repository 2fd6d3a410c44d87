"""Tests for the population estimators (Section 4, Algorithms 1–2, PP/NT)."""
import numpy as np
import pytest

from repro.core.estimators import (
    GlobalEstimator,
    GoldEstimator,
    LocalEstimator,
    NTEstimator,
    PPEstimator,
)
from repro.sim.microsim import install_snapshot, simulate
from tests.conftest import make_tiny_space


@pytest.fixture(scope="module")
def world():
    bs = make_tiny_space()
    sim = simulate(bs.model, bs.pop0, seed=5)
    install_snapshot(bs.model, sim.pop, sim.diff, tick_l=10)
    return bs, sim


def _update_count(model, v, lo, hi):
    """Brute force ``|{t ∈ UT(v) | lo < t ≤ hi}|``: ticks some door period of v divides."""
    periods = [int(p) for p in model.door_period[model.partition_doors(v)]]
    return sum(any(t % p == 0 for p in periods) for t in range(lo + 1, hi + 1))


def _reference_global(model, tick):
    """Straight-line NumPy transcription of Algorithm 1 (reference)."""
    P = model.n_partitions
    pop = model.pop_l.copy()
    periods = model.door_period[model.e_door]
    for x in range(model.tick_l + 1, tick + 1):
        flow = np.where(x % periods == 0, model.e_lam, 0.0)
        out = np.bincount(model.e_src, weights=flow, minlength=P)
        scale = np.where(out > pop, pop / np.where(out > 0, out, 1.0), 1.0)
        flow = flow * scale[model.e_src]
        out = np.minimum(out, pop)
        pop = pop - out + np.bincount(model.e_dst, weights=flow, minlength=P)
    return pop


@pytest.mark.parametrize("tick", [11, 15, 30, 60])
def test_global_matches_reference(world, tick):
    bs, _ = world
    est = GlobalEstimator(bs.model)
    ref = _reference_global(bs.model, tick)
    got = np.array([est.population(v, tick) for v in range(bs.model.n_partitions)])
    assert np.allclose(got, ref, atol=1e-9)


@pytest.mark.parametrize("tick", [11, 20, 45, 70])
def test_local_equals_global(world, tick):
    """The paper's two exact estimators must agree to float precision."""
    bs, _ = world
    ge, le = GlobalEstimator(bs.model), LocalEstimator(bs.model)
    for v in range(bs.model.n_partitions):
        assert le.population(v, tick) == pytest.approx(
            ge.population(v, tick), abs=1e-9
        )


def test_local_interleaved_queries_equal_global(world):
    bs, _ = world
    ge, le = GlobalEstimator(bs.model), LocalEstimator(bs.model)
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = int(rng.integers(0, bs.model.n_partitions))
        t = int(rng.integers(11, 75))
        assert le.population(v, t) == pytest.approx(ge.population(v, t), abs=1e-9)


def test_local_sparse_query_derives_only_cone(world):
    bs, _ = world
    le = LocalEstimator(bs.model)
    le.population(0, bs.model.tick_l + 2)
    covered = sum(int(mask.sum()) for t, mask in le.valid.items() if t > bs.model.tick_l)
    assert covered < 2 * bs.model.n_partitions  # strictly less than full


def test_population_before_snapshot_is_latest(world):
    bs, _ = world
    for est in (
        GlobalEstimator(bs.model),
        LocalEstimator(bs.model),
        PPEstimator(bs.model),
        NTEstimator(bs.model),
    ):
        assert est.population(4, bs.model.tick_l) == bs.model.pop_l[4]
        assert est.population(4, 0) == bs.model.pop_l[4]


def test_total_population_conserved_by_global(world):
    bs, _ = world
    est = GlobalEstimator(bs.model)
    est.ensure(60)
    totals = [p.sum() for p in est.pops]
    assert np.allclose(totals, totals[0])


def test_global_populations_nonnegative(world):
    bs, _ = world
    est = GlobalEstimator(bs.model)
    est.ensure(70)
    assert all((p >= -1e-9).all() for p in est.pops)


def test_pp_equals_exact_without_rectification():
    """With λ ≡ 0 nothing flows: every estimator returns P_tl."""
    bs = make_tiny_space(lam_max=0.0)
    sim = simulate(bs.model, bs.pop0, seed=1)
    install_snapshot(bs.model, sim.pop, sim.diff, tick_l=5)
    ge, pp = GlobalEstimator(bs.model), PPEstimator(bs.model)
    for v in range(bs.model.n_partitions):
        assert pp.population(v, 40) == pytest.approx(ge.population(v, 40))
        assert pp.population(v, 40) == bs.model.pop_l[v]


def test_pp_ignores_upstream_rectification(world):
    """PP pops must dominate exact where upstream partitions rectify."""
    bs, _ = world
    ge, pp = GlobalEstimator(bs.model), PPEstimator(bs.model)
    diffs = [
        pp.population(v, 70) - ge.population(v, 70)
        for v in range(bs.model.n_partitions)
    ]
    # raw-λ inflows can only overestimate relative to rectified inflows
    assert min(diffs) > -1e-6


def test_pp_rectifying_scan_matches_stepwise(world):
    """PP's vectorized fast path + tail scan equals a naive recurrence."""
    bs, _ = world
    m = bs.model
    pp = PPEstimator(m)
    for v in range(m.n_partitions):
        tick = 70
        got = [pp.population(v, t) for t in range(m.tick_l + 1, tick + 1)]
        # naive recurrence
        cur = float(m.pop_l[v])
        periods = m.door_period[m.e_door]
        naive = []
        for x in range(m.tick_l + 1, tick + 1):
            out = float(m.e_lam[m.out_edges[v]][x % periods[m.out_edges[v]] == 0].sum())
            inn = float(m.e_lam[m.in_edges[v]][x % periods[m.in_edges[v]] == 0].sum())
            cur = cur - min(cur, out) + inn
            naive.append(cur)
        assert np.allclose(got, naive, atol=1e-9)


def test_nt_skips_stable_partition_with_eq7(world):
    bs, _ = world
    m = bs.model
    nt = NTEstimator(m, eta=1e9)  # force every partition stable
    for v in range(m.n_partitions):
        mu, _ = nt.stats(v)
        k = _update_count(m, v, m.tick_l, 50)
        assert nt.population(v, 50) == pytest.approx(m.pop_l[v] + mu * k)


def test_nt_falls_back_to_pp_when_unstable(world):
    bs, _ = world
    m = bs.model
    nt = NTEstimator(m, eta=0.0)  # nothing is stable
    pp = PPEstimator(m)
    for v in range(m.n_partitions):
        assert nt.population(v, 42) == pytest.approx(pp.population(v, 42))


def test_nt_no_history_never_skips():
    bs = make_tiny_space()
    sim = simulate(bs.model, bs.pop0, seed=2)
    bs.model.set_snapshot(10, sim.pop[10].astype(float))  # no history
    nt = NTEstimator(bs.model)
    assert nt.eta == 3.0  # the paper's η
    pp = PPEstimator(bs.model)
    assert nt.population(3, 30) == pytest.approx(pp.population(3, 30))


@pytest.mark.parametrize("tick", [12, 25, 50])
def test_nt_count_updates_matches_bruteforce(world, tick):
    bs, _ = world
    m = bs.model
    nt = NTEstimator(m)
    for v in range(m.n_partitions):
        assert nt._count_updates(v, tick) == _update_count(m, v, m.tick_l, tick)


def test_gold_estimator_lookup(world):
    bs, sim = world
    est = GoldEstimator(bs.model, sim.pop)
    assert est.population(3, 17) == sim.pop[17, 3]
    # clamps beyond horizon
    assert est.population(3, 10**6) == sim.pop[-1, 3]
    assert est.population(3, -5) == sim.pop[0, 3]


def test_estimator_requires_snapshot():
    bs = make_tiny_space()
    for cls in (GlobalEstimator, LocalEstimator, PPEstimator, NTEstimator):
        with pytest.raises(ValueError, match="snapshot"):
            cls(bs.model)


def test_local_dense_switch_preserves_values(world):
    bs, _ = world
    m = bs.model
    le = LocalEstimator(m)
    ge = GlobalEstimator(m)
    # advancing ticks across partitions guarantee misses that trip the
    # dense switch; values must stay identical across the transition
    for t in range(11, 75):
        v = t % m.n_partitions
        assert le.population(v, t) == pytest.approx(ge.population(v, t), abs=1e-9)
    assert le._dense is not None  # the switch actually happened
