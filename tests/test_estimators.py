"""Tests for the population estimators (Section 4, Algorithms 1–2, PP/NT)."""
import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.estimators import (
    GlobalEstimator,
    GoldEstimator,
    LocalEstimator,
    NTEstimator,
    PPEstimator,
)
from repro.core.search import FPQ, LCPQ, search
from repro.experiments.harness import model_tq
from repro.sim.microsim import install_snapshot, simulate
from repro.space.mall import mall_space
from tests.conftest import make_tiny_space, reference_flow_stats, sparse_lambdas


@pytest.fixture(scope="module")
def world():
    bs = make_tiny_space()
    sim = simulate(bs.model, bs.pop0, seed=5)
    install_snapshot(bs.model, sim.pop, sim.diff, tick_l=10)
    return bs, sim


def _update_count(model, v, lo, hi):
    """Brute force ``|{t ∈ UT(v) | lo < t ≤ hi}|``: ticks some door period of v divides."""
    periods = [int(p) for p in model.door_period[model.part_doors[v]]]
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


@pytest.fixture(scope="module")
def drained(world):
    """The tiny world with one partition emptied at the snapshot and its
    outflows quadrupled: it rectifies on most ticks it reports at.  It is
    the partition that reports most often without reporting every tick, so
    some ticks rectify nowhere."""
    bs, _ = world
    m = dataclasses.replace(bs.model)
    share = m.part_updates.mean(axis=0)
    v = int(np.argmax(np.where(share < 1, share, 0)))
    lam = m.e_lam.copy()
    lam[m.out_edges[v]] *= 4
    m.set_lambdas(lam)
    pop = m.pop_l.copy()
    pop[v] = 0.0
    m.set_snapshot(m.tick_l, pop)
    return m


@pytest.mark.parametrize("tick", [11, 15, 30, 60])
def test_global_matches_reference(world, tick):
    bs, _ = world
    est = GlobalEstimator(bs.model)
    ref = _reference_global(bs.model, tick)
    got = np.array([est.population(v, tick) for v in range(bs.model.n_partitions)])
    assert np.array_equal(got, ref)


def test_global_matches_reference_while_rectifying(drained):
    """Both branches of the Eq. 6 step: summed flows when nothing
    rectifies, re-summed scaled flows when some partition would ship more
    than it holds."""
    m = drained
    est = GlobalEstimator(m)
    est.ensure(75)
    rectifying = [
        bool((m.flow_table(x)[3] > est.pops[x - m.tick_l - 1]).any())
        for x in range(m.tick_l + 1, 76)
    ]
    assert 2 * sum(rectifying) > len(rectifying) and not all(rectifying)
    for tick in (11, 30, 75):
        assert np.array_equal(est.pops[tick - m.tick_l], _reference_global(m, tick))
    le = LocalEstimator(m)
    for v in range(m.n_partitions):
        assert le.population(v, 40) == est.population(v, 40)


@pytest.fixture(scope="module")
def mall_regime():
    """The mall topology in the fitted mall's regime, built without Spark:
    λ = 0 on a seeded half of the edges, a third of the partitions empty at
    the snapshot, and one partition holding exactly what it ships at the
    first tick (a ``P == out`` tie).  Most ticks rectify somewhere."""
    m = mall_space(horizon_ticks=90).model
    m.set_lambdas(sparse_lambdas(m, seed=8))
    rng = np.random.default_rng(9)
    pop = rng.integers(0, 6, m.n_partitions).astype(float)
    pop[rng.random(m.n_partitions) < 1 / 3] = 0.0
    out = m.flow_table(1)[3]
    v = int(np.flatnonzero(out % 1 > 0)[0])
    pop[v] = out[v]
    m.set_snapshot(0, pop)
    return m


def test_mall_regime_matches_references(mall_regime):
    """Global and PP equal their straight-line references bit for bit on
    every tick, where zero-λ edges, empty partitions and a tie meet
    rectification on nearly every tick."""
    m, last = mall_regime, 70
    assert (m.flow_table(1)[3] == m.pop_l).any()
    ge, pp = GlobalEstimator(m), PPEstimator(m)
    ge.ensure(last)
    rectifying = [bool((m.flow_table(x)[3] > ge.pops[x - 1]).any()) for x in range(1, last + 1)]
    assert sum(rectifying) >= 0.9 * last
    for x in range(1, last + 1):
        assert np.isfinite(ge.pops[x]).all()
        assert ge.pops[x].tobytes() == _reference_global(m, x).tobytes(), x
    for v in range(m.n_partitions):
        assert [pp.population(v, t) for t in range(1, last + 1)] == _reference_pp(m, v, last)
    assert all(np.isfinite(p).all() for p in pp.pops)


@pytest.mark.parametrize("tick", [11, 20, 45, 70])
def test_local_equals_global(world, tick):
    """The paper's two exact estimators agree bit for bit."""
    bs, _ = world
    ge, le = GlobalEstimator(bs.model), LocalEstimator(bs.model)
    for v in range(bs.model.n_partitions):
        assert le.population(v, tick) == ge.population(v, tick)


def test_local_interleaved_queries_equal_global(world):
    bs, _ = world
    ge, le = GlobalEstimator(bs.model), LocalEstimator(bs.model)
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = int(rng.integers(0, bs.model.n_partitions))
        t = int(rng.integers(11, 75))
        assert le.population(v, t) == ge.population(v, t)


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


def _reference_pp(model, v, tick):
    """Naive per-partition PP recurrence ``P[x] = P[x-1] − min(out, P[x-1]) + in``
    over ticks ``tick_l+1..tick``, with ``v``'s raw-λ out/in sums per tick."""
    periods = model.door_period[model.e_door]
    outs, ins = model.out_edges[v], model.in_edges[v]
    cur = float(model.pop_l[v])
    naive = []
    for x in range(model.tick_l + 1, tick + 1):
        out = float(model.e_lam[outs][x % periods[outs] == 0].sum())
        inn = float(model.e_lam[ins][x % periods[ins] == 0].sum())
        cur = cur - min(cur, out) + inn
        naive.append(cur)
    return naive


def test_pp_rectifying_scan_matches_stepwise(world, drained):
    """Dense PP equals the naive per-partition recurrence bit for bit, also
    on the drained model, where some tick ships more than a partition holds."""
    tick = 70
    for m in (world[0].model, drained):
        pp = PPEstimator(m)
        for v in range(m.n_partitions):
            got = [pp.population(v, t) for t in range(m.tick_l + 1, tick + 1)]
            assert got == _reference_pp(m, v, tick)
    # ``pp`` is the drained model's: its recurrence did rectify
    assert any(
        (drained.flow_table(x)[3] > pp.pops[x - drained.tick_l - 1]).any()
        for x in range(drained.tick_l + 1, tick + 1)
    )


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


def test_nt_stats_match_per_partition_reference(world):
    """μ/σ over each partition's own update ticks in the history window
    (ticks 1..10), summed in window order as the column reductions sum them."""
    bs, sim = world
    m = bs.model
    nt = NTEstimator(m)
    ref = reference_flow_stats(m, sim.diff, range(1, 11))
    assert [nt.stats(v) for v in range(m.n_partitions)] == ref


def test_default_world_nt_skip_share(default_world):
    """Pins NT's skip share on the Table-2 default world: all 721 partitions
    have σ < η = 3 (the largest reads 2.1189), so NT answers every lookup
    past ``t_l`` by Eq. 7 and no Table-2 default exercises its PP fallback.
    The fallback is covered on the tiny world instead
    (``test_nt_falls_back_to_pp_when_unstable``,
    ``test_nt_no_history_never_skips``)."""
    m = default_world.model
    sigma = np.array([s for _, s in m.flow_stats])
    assert len(sigma) == m.n_partitions
    assert (sigma < NTEstimator(m).eta).mean() == 1.0
    assert sigma.max() == pytest.approx(2.11888400378303, rel=1e-12)


@pytest.mark.parametrize("tick", [12, 25, 50])
def test_nt_count_updates_matches_bruteforce(world, tick):
    bs, _ = world
    m = bs.model
    for v in range(m.n_partitions):
        assert m.update_count(v, m.tick_l, tick) == _update_count(m, v, m.tick_l, tick)


def test_gold_estimator_lookup(world):
    bs, sim = world
    est = GoldEstimator(sim.pop)
    assert est.population(3, 17) == sim.pop[17, 3]
    # clamps beyond horizon
    assert est.population(3, 10**6) == sim.pop[-1, 3]
    assert est.population(3, -5) == sim.pop[0, 3]


def test_estimator_requires_snapshot():
    bs = make_tiny_space()
    for cls in (GlobalEstimator, LocalEstimator, PPEstimator, NTEstimator):
        with pytest.raises(ValueError, match="snapshot"):
            cls(bs.model)


class _LoggingGlobal(GlobalEstimator):
    """Algorithm 1 that records every ``(v, tick)`` lookup."""

    def __init__(self, model):
        super().__init__(model)
        self.lookups = []

    def population(self, v, tick):
        self.lookups.append((v, tick))
        return super().population(v, tick)


def test_upstream_cones_cover_global_work(default_world):
    """Why *PQ derives as *PQ-G: the exact upstream cones of one search's
    lookups, closed back to ``t_l``, cover most of the (partition, tick)
    cells Algorithm 1 derives up to the last lookup.  If this fails, cones
    have become sparse and Algorithm 2 needs its own derivation again."""
    m = default_world.model
    P = m.n_partitions
    for inst in default_world.instances:
        for qt in (FPQ, LCPQ):
            est = _LoggingGlobal(m)
            search(m, est, inst.ps, inst.pt, model_tq(m), qt)
            at: dict[int, list[int]] = {}
            for v, t in est.lookups:
                if t > m.tick_l:
                    at.setdefault(t, []).append(v)
            last = max(at)
            cone = np.zeros(P, dtype=bool)
            cells = 0
            for x in range(last, m.tick_l, -1):
                cone[at.get(x, [])] = True
                cells += int(cone.sum())
                # P[x] reads P[x-1] of v and of the sources reporting into v at x
                src, dst = m.flow_table(x)[:2]
                cone[src[cone[dst]]] = True
            assert cells >= 0.8 * P * (last - m.tick_l), (qt, cells)


def test_default_world_digests(default_world):
    """Regression pins for the Table-2 default world, recorded before the
    Eq. 6 step moved onto per-residue flow tables: Global's populations up
    to the horizon, and NT's and PP's values on a fixed lookup grid."""
    m = default_world.model
    H = m.timeline.horizon
    ge = GlobalEstimator(m)
    ge.ensure(H - 1)
    pops = np.stack(ge.pops)
    assert pops.shape == (H - m.tick_l, m.n_partitions)
    assert hashlib.sha256(pops.tobytes()).hexdigest() == (
        "9cbb8878d02ea18dd660167adadb426a590c2b8fc18a41b476269c4f1cf31b56"
    )
    nt = NTEstimator(m)
    grid = np.array(
        [[nt.population(v, t) for t in range(m.tick_l + 1, H, 7)] for v in range(m.n_partitions)]
    )
    assert hashlib.sha256(grid.tobytes()).hexdigest() == (
        "2dbde7ca5840a78cda89ca856ffe3b7a22c1035e19028c9f3c7b533bf015aa97"
    )
    pp = PPEstimator(m)
    grid = np.array(
        [[pp.population(v, t) for t in range(m.tick_l + 1, H, 7)] for v in range(m.n_partitions)]
    )
    assert hashlib.sha256(grid.tobytes()).hexdigest() == (
        "c4759f3a8ea8c96198174457bbc980572ce2111229be366cd6afa11ae4c59734"
    )
