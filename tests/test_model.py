"""Tests for the indoor crowd model structure (Section 3.1)."""
import numpy as np
import pytest

from repro.space.geometry import IndoorPoint, euclid


def test_out_edges_partition_consistency(tiny_space):
    m = tiny_space.model
    for v in range(m.n_partitions):
        for e in m.out_edges[v]:
            assert m.e_src[e] == v


def test_in_edges_partition_consistency(tiny_space):
    m = tiny_space.model
    for v in range(m.n_partitions):
        for e in m.in_edges[v]:
            assert m.e_dst[e] == v


def test_every_edge_indexed_exactly_once(tiny_space):
    m = tiny_space.model
    out_all = np.concatenate([m.out_edges[v] for v in range(m.n_partitions)])
    in_all = np.concatenate([m.in_edges[v] for v in range(m.n_partitions)])
    assert sorted(out_all) == list(range(m.n_edges))
    assert sorted(in_all) == list(range(m.n_edges))


def test_leaveable_enterable_doors(tiny_space):
    m = tiny_space.model
    for v in range(m.n_partitions):
        leave = set(m.leaveable_doors(v))
        enter = set(m.enterable_doors(v))
        # all doors bidirectional in this space
        assert leave == enter
        assert set(m.partition_doors(v)) == leave | enter


def test_upstream_matches_in_edges(tiny_space):
    m = tiny_space.model
    for v in range(m.n_partitions):
        ups = set(m.upstream(v))
        assert ups == {int(m.e_src[e]) for e in m.in_edges[v]}


def test_d2d_zero_same_door(tiny_space):
    m = tiny_space.model
    v = 0
    d = int(m.partition_doors(v)[0])
    assert m.d2d(v, d, d) == 0.0


def test_d2d_symmetric(tiny_space):
    m = tiny_space.model
    for v in range(m.n_partitions):
        doors = m.partition_doors(v)
        for i in range(len(doors)):
            for j in range(i + 1, len(doors)):
                a, b = int(doors[i]), int(doors[j])
                assert m.d2d(v, a, b) == pytest.approx(m.d2d(v, b, a))


def test_d2d_is_euclidean_for_rooms(tiny_space):
    m = tiny_space.model
    v = 0
    doors = m.partition_doors(v)
    if len(doors) >= 2:
        a, b = int(doors[0]), int(doors[1])
        assert m.d2d(v, a, b) == pytest.approx(
            euclid(m.door_xyz[a], m.door_xyz[b])
        )


def test_point_to_door(tiny_space, rng):
    m = tiny_space.model
    v = 3
    p = IndoorPoint(v, tiny_space.random_point(rng, v))
    d = int(m.partition_doors(v)[0])
    assert m.point_to_door(p, d) == pytest.approx(euclid(p.coords(), m.door_xyz[d]))


def test_partition_update_ticks_union_of_doors(tiny_space):
    m = tiny_space.model
    v = 5
    periods = m.part_periods[v]
    got = m.partition_update_ticks(v, 0, 40)
    expect = sorted(
        {x for x in range(1, 41) if any(x % int(p) == 0 for p in periods)}
    )
    assert got.tolist() == expect


def test_part_periods_union_of_doors(tiny_space):
    """NT's update ticks ``UT(v)`` come from the periods of all of v's doors."""
    m = tiny_space.model
    for v in range(m.n_partitions):
        expect = sorted({int(p) for p in m.door_period[m.partition_doors(v)]})
        assert m.part_periods[v].tolist() == expect


def test_snapshot_install(tiny_world):
    m = tiny_world.model
    assert m.pop_l is not None
    assert len(m.pop_l) == m.n_partitions
    assert m.tick_l == 10


def test_snapshot_copy_semantics():
    from tests.conftest import make_tiny_space

    bs = make_tiny_space()
    m = bs.model
    pops = np.ones(m.n_partitions)
    m.set_snapshot(4, pops)
    pops[0] = 99.0
    assert m.pop_l[0] == 1.0  # set_snapshot must copy


def test_model_is_picklable(tiny_space):
    import pickle

    m2 = pickle.loads(pickle.dumps(tiny_space.model))
    assert m2.n_partitions == tiny_space.model.n_partitions
    assert np.array_equal(m2.e_src, tiny_space.model.e_src)
