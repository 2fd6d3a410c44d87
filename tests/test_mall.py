"""Tests for the simulated mall and trajectory world (Section 6.2 substrate)."""
import numpy as np
import pytest

from repro.space.mall import (
    MALL_DOORS,
    MALL_PARTITIONS,
    MALL_STAIRS,
    mall_space,
    simulate_trajectories,
)


@pytest.fixture(scope="module")
def mall():
    return mall_space(horizon_ticks=120)


@pytest.fixture(scope="module")
def traj(mall):
    return simulate_trajectories(
        mall, n_objects=120, session_ticks=20, seed=3
    )


def test_paper_counts(mall):
    m = mall.model
    assert m.n_partitions == MALL_PARTITIONS == 977
    assert m.n_doors == MALL_DOORS == 1613
    assert int((m.stair_len > 0).sum()) == MALL_STAIRS == 10


def test_seven_floors(mall):
    assert mall.n_floors == 7
    assert set(mall.part_floor.tolist()) == set(range(7))


def test_no_q_partitions(mall):
    assert not mall.model.is_q.any()  # footnote 7


def test_flows_sampled_every_10s(mall):
    assert (mall.model.door_period == 1).all()


def test_occupancy_conserves_objects(traj):
    totals = traj.occupancy.sum(axis=1)
    assert (totals == 120).all()


def test_fix_records_schema(traj):
    assert list(traj.fixes.columns) == ["mac", "t", "partition", "x", "y", "z"]
    assert traj.fixes["mac"].nunique() <= 120
    assert (traj.fixes["t"] >= 0).all()


def test_fixes_inside_partitions(mall, traj):
    sample = traj.fixes.head(200)
    for _, row in sample.iterrows():
        x0, y0, x1, y1 = mall.part_rect[int(row["partition"])]
        assert x0 <= row["x"] <= x1 and y0 <= row["y"] <= y1


def test_gap_rate_near_paper(mall):
    """~12% of consecutive fixes should not be topologically connected."""
    tw = simulate_trajectories(mall, n_objects=400, session_ticks=40, seed=7)
    df = tw.fixes.sort_values(["mac", "t"])
    v0 = df.groupby("mac")["partition"].shift(1)
    pairs = df[v0.notna()].assign(v0=v0[v0.notna()].astype(int))
    adj = set(zip(map(int, mall.model.e_src), map(int, mall.model.e_dst)))
    moved = pairs[pairs["v0"] != pairs["partition"]]
    same = (pairs["v0"] == pairs["partition"]).sum()
    gaps = sum(
        (int(a), int(b)) not in adj
        for a, b in zip(moved["v0"], moved["partition"])
    )
    rate = gaps / max(len(moved) + same, 1)
    assert 0.04 <= rate <= 0.25  # the paper reports ~12%


def test_trajectories_deterministic(mall):
    a = simulate_trajectories(mall, n_objects=30, session_ticks=10, seed=5)
    b = simulate_trajectories(mall, n_objects=30, session_ticks=10, seed=5)
    assert a.fixes.equals(b.fixes)
    assert np.array_equal(a.occupancy, b.occupancy)


def test_no_spawn_in_stairwells(mall, traj):
    first = traj.fixes.groupby("mac").first()
    # fixes can be anywhere, but occupancy at tick 0 excludes stairs
    stair_ids = np.flatnonzero(mall.model.stair_len > 0)
    assert traj.occupancy[0, stair_ids].sum() == 0
