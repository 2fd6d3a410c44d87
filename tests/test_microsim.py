"""Tests for the object-level microsimulation (gold-standard substrate)."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.microsim import apportion, install_snapshot, simulate
from tests.conftest import make_tiny_space


@pytest.fixture(scope="module")
def space():
    return make_tiny_space()


@pytest.mark.parametrize("flows", ["mixed", "dithered"])
def test_population_conserved(space, flows):
    sim = simulate(space.model, space.pop0, seed=1, flows=flows)
    totals = sim.pop.sum(axis=1)
    assert (totals == space.pop0.sum()).all()


@pytest.mark.parametrize("flows", ["mixed", "dithered"])
def test_population_nonnegative(space, flows):
    sim = simulate(space.model, space.pop0, seed=2, flows=flows)
    assert (sim.pop >= 0).all()


def test_populations_are_integers(space):
    sim = simulate(space.model, space.pop0, seed=3)
    assert sim.pop.dtype == np.int64


def test_determinism(space):
    a = simulate(space.model, space.pop0, seed=7)
    b = simulate(space.model, space.pop0, seed=7)
    assert np.array_equal(a.pop, b.pop)


def test_seed_changes_world(space):
    a = simulate(space.model, space.pop0, seed=7)
    b = simulate(space.model, space.pop0, seed=8)
    assert not np.array_equal(a.pop, b.pop)


def test_diff_consistent_with_populations(space):
    sim = simulate(space.model, space.pop0, seed=4)
    assert np.array_equal(sim.pop[1:] - sim.pop[:-1], sim.diff[1:])


def test_initial_tick_is_pop0(space):
    sim = simulate(space.model, space.pop0, seed=5)
    assert np.array_equal(sim.pop[0], space.pop0)


def test_report_counts_match_periods(space):
    m = space.model
    sim = simulate(m, space.pop0, seed=6)
    periods = m.door_period[m.e_door]
    H = m.timeline.horizon
    expected = np.array([(H - 1) // int(p) for p in periods])
    assert np.array_equal(sim.edge_report_count, expected)


def test_dithered_tracks_expectation(space):
    """Dithered flows deviate from Σλ by < 1 object per edge in total."""
    m = space.model
    sim = simulate(m, space.pop0 * 0 + 10_000, seed=9, flows="dithered")
    # with effectively infinite populations no rectification occurs, so the
    # emitted totals are the pure dithered rate process
    periods = m.door_period[m.e_door]
    expected = m.e_lam * sim.edge_report_count
    assert np.abs(sim.edge_flow_sum - expected).max() < 1.0


def test_unknown_flow_mode_rejected(space):
    with pytest.raises(ValueError, match="unknown flow mode"):
        simulate(space.model, space.pop0, flows="nope")


def test_install_snapshot_window(space):
    m = space.model
    sim = simulate(m, space.pop0, seed=11)
    install_snapshot(m, sim.pop, sim.diff, tick_l=20, window=8)
    assert m.tick_l == 20
    assert np.array_equal(m.pop_l, sim.pop[20].astype(float))
    assert m.hist_ticks.tolist() == list(range(13, 21))
    assert m.hist_diff.shape == (8, m.n_partitions)


def test_install_snapshot_clamps_window(space):
    m = space.model
    sim = simulate(m, space.pop0, seed=11)
    install_snapshot(m, sim.pop, sim.diff, tick_l=3, window=30)
    assert m.hist_ticks.tolist() == [1, 2, 3]


@given(
    desired=st.lists(st.integers(0, 50), min_size=1, max_size=8),
    budget=st.integers(0, 100),
)
def test_apportion_properties(desired, budget):
    out = apportion(np.array(desired), budget)
    assert (out >= 0).all()
    assert (out <= np.array(desired)).all()
    assert out.sum() == min(sum(desired), budget)


def test_apportion_proportionality():
    out = apportion(np.array([40, 20, 0]), 30)
    assert out.tolist() == [20, 10, 0]


def test_apportion_largest_remainder():
    # 3·(2/3)=2, 1·(2/3)=0.67, 2·(2/3)=1.33 → floors 2,0,1 = 3, one left
    out = apportion(np.array([3, 1, 2]), 4)
    assert out.sum() == 4
    assert (out <= np.array([3, 1, 2])).all()
