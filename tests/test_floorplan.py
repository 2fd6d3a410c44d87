"""Tests for the synthetic indoor-space generator (Section 6.1.1 statistics)."""
import collections

import numpy as np
import pytest

from repro.core.search import _leg
from repro.space.floorplan import build_space, synthetic_space
from tests.conftest import make_tiny_space


@pytest.mark.parametrize("floors", [1, 2, 3])
def test_paper_counts_per_floor(floors):
    bs = synthetic_space(floors=floors)
    m = bs.model
    stairs = 4 * (floors - 1)
    assert m.n_partitions == 141 * floors + stairs
    assert m.n_doors == 216 * floors + 2 * stairs
    assert int((m.stair_len > 0).sum()) == stairs


def test_default_five_floor_space():
    m = synthetic_space().model
    assert m.n_partitions == 141 * 5 + 16
    assert m.n_doors == 216 * 5 + 32


@pytest.mark.parametrize("floors", [1, 2])
def test_q_partitions_per_floor(floors):
    bs = synthetic_space(floors=floors)
    assert int(bs.model.is_q.sum()) == 14 * floors


def test_q_partitions_have_two_doors():
    bs = synthetic_space(floors=1)
    m = bs.model
    for v in np.flatnonzero(m.is_q):
        # two doors counted on the floor's own doors (stairs excepted)
        assert len(m.partition_doors(v)) >= 2


def test_strong_connectivity():
    m = synthetic_space(floors=2).model
    adj = collections.defaultdict(set)
    for s, d in zip(m.e_src, m.e_dst):
        adj[int(s)].add(int(d))
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert len(seen) == m.n_partitions


def test_every_edge_has_valid_endpoints():
    m = synthetic_space(floors=1).model
    assert (m.e_src >= 0).all() and (m.e_src < m.n_partitions).all()
    assert (m.e_dst >= 0).all() and (m.e_dst < m.n_partitions).all()
    assert (m.e_door >= 0).all() and (m.e_door < m.n_doors).all()
    assert (m.e_src != m.e_dst).all()


def test_bidirectional_by_default():
    m = synthetic_space(floors=1).model
    pairs = {(int(s), int(d), int(k)) for s, d, k in zip(m.e_src, m.e_dst, m.e_door)}
    for s, d, k in list(pairs):
        assert (d, s, k) in pairs


def test_one_way_fraction_breaks_symmetry():
    bs = make_tiny_space(one_way_frac=1.0)
    m = bs.model
    pairs = {(int(s), int(d), int(k)) for s, d, k in zip(m.e_src, m.e_dst, m.e_door)}
    one_way = [p for p in pairs if (p[1], p[0], p[2]) not in pairs]
    assert len(one_way) > 0


def test_lambda_symmetric_per_door():
    m = synthetic_space(floors=1).model
    by_door = collections.defaultdict(set)
    for d, lam in zip(m.e_door, m.e_lam):
        by_door[int(d)].add(round(float(lam), 12))
    assert all(len(v) == 1 for v in by_door.values())


def test_lambda_asymmetric_option():
    bs = make_tiny_space(lam_symmetric=False)
    m = bs.model
    by_door = collections.defaultdict(set)
    for d, lam in zip(m.e_door, m.e_lam):
        by_door[int(d)].add(round(float(lam), 12))
    assert any(len(v) == 2 for v in by_door.values())


def test_lambda_range():
    m = synthetic_space(floors=1).model
    assert (m.e_lam >= 0).all() and (m.e_lam <= 3.0).all()


def test_periods_in_paper_range():
    m = synthetic_space(floors=1).model
    assert (m.door_period >= 1).all() and (m.door_period <= 5).all()


def test_initial_population_bounds():
    bs = synthetic_space(floors=1, obj_max=600)
    assert (bs.pop0 >= 0).all()
    assert (bs.pop0 <= 600).all()
    assert (bs.pop0 <= bs.model.cap).all()


def test_capacity_is_area_times_beta():
    m = synthetic_space(floors=1).model
    assert np.allclose(m.cap, m.area)  # β = 1 obj/m²


def test_stairs_connect_adjacent_floors():
    bs = synthetic_space(floors=2)
    m = bs.model
    for v in np.flatnonzero(m.stair_len > 0):
        nbrs = {int(m.e_dst[e]) for e in m.out_edges[v]}
        floors = {int(bs.part_floor[u]) for u in nbrs}
        assert floors == {0, 1}
        assert m.stair_len[v] == 20.0  # paper: stairways 20 m long


def test_stair_walking_distance():
    bs = synthetic_space(floors=2)
    m = bs.model
    v = int(np.flatnonzero(m.stair_len > 0)[0])
    doors = m.partition_doors(v)
    a, b = int(doors[0]), int(doors[1])
    assert _leg(float(m.stair_len[v]), a, tuple(m.door_xyz[a]), b, tuple(m.door_xyz[b])) == 20.0


def test_determinism_same_seed():
    a = synthetic_space(floors=1, seed=42).model
    b = synthetic_space(floors=1, seed=42).model
    assert np.array_equal(a.e_src, b.e_src)
    assert np.allclose(a.e_lam, b.e_lam)
    assert np.array_equal(a.door_period, b.door_period)


def test_different_seed_differs():
    a = synthetic_space(floors=1, seed=1).model
    b = synthetic_space(floors=1, seed=2).model
    assert not np.allclose(a.e_lam, b.e_lam)


def test_door_budget_validation():
    with pytest.raises(ValueError, match="door budget"):
        build_space(
            floors=1,
            parts_per_floor=[16],
            doors_per_floor=[10],  # < spanning tree size 15
            stairs_per_gap=[],
        )


def test_count_list_validation():
    with pytest.raises(ValueError, match="length == floors"):
        build_space(
            floors=2,
            parts_per_floor=[16],
            doors_per_floor=[20],
            stairs_per_gap=[1],
        )


def test_random_point_inside_partition(tiny_space, rng):
    for v in range(tiny_space.model.n_partitions):
        x, y, z = tiny_space.random_point(rng, v)
        x0, y0, x1, y1 = tiny_space.part_rect[v]
        assert x0 <= x <= x1 and y0 <= y <= y1
        assert z == tiny_space.part_z[v]


def test_table2_floor_variants_buildable():
    for floors in (3, 5):
        m = synthetic_space(floors=floors).model
        assert m.n_partitions == 141 * floors + 4 * (floors - 1)
