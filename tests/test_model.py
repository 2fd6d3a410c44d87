"""Tests for the indoor crowd model structure (Section 3.1)."""
import dataclasses

import numpy as np
import pytest

from repro.core.search import _SOURCE, _leg
from repro.core.timeline import reporting_mask
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


def test_partition_doors_union_on_one_way_model():
    """``D_v`` is the union of the doors ``v`` can be left and entered by,
    also where the two differ: partition 0's out-edges removed.  Its edge
    list is still an empty int64 array, and every list is ascending."""
    from tests.conftest import make_tiny_space

    m = make_tiny_space().model
    keep = m.e_src != 0
    m.e_src, m.e_dst, m.e_door, m.e_lam = (
        m.e_src[keep],
        m.e_dst[keep],
        m.e_door[keep],
        m.e_lam[keep],
    )
    m.__post_init__()
    assert len(m.out_edges[0]) == 0 and len(m.in_edges[0]) > 0
    for v in range(m.n_partitions):
        for edges in (m.out_edges[v], m.in_edges[v]):
            assert edges.dtype == np.int64 and (np.diff(edges) > 0).all()
        leave = {int(d) for d in m.e_door[m.out_edges[v]]}
        enter = {int(d) for d in m.e_door[m.in_edges[v]]}
        assert m.part_doors[v].tolist() == sorted(leave | enter)


def _d2d(m, v, a, b):
    """The search's Eq. 1 leg from door ``a`` to door ``b`` inside ``v``."""
    return _leg(float(m.stair_len[v]), a, tuple(m.door_xyz[a]), b, tuple(m.door_xyz[b]))


def test_d2d_zero_same_door(tiny_space):
    m = tiny_space.model
    v = 0
    d = int(m.part_doors[v][0])
    assert _d2d(m, v, d, d) == 0.0


def test_d2d_symmetric(tiny_space):
    m = tiny_space.model
    for v in range(m.n_partitions):
        doors = m.part_doors[v]
        for i in range(len(doors)):
            for j in range(i + 1, len(doors)):
                a, b = int(doors[i]), int(doors[j])
                assert _d2d(m, v, a, b) == pytest.approx(_d2d(m, v, b, a))


def test_d2d_is_euclidean_for_rooms(tiny_space):
    m = tiny_space.model
    v = 0
    doors = m.part_doors[v]
    if len(doors) >= 2:
        a, b = int(doors[0]), int(doors[1])
        assert _d2d(m, v, a, b) == pytest.approx(
            euclid(m.door_xyz[a], m.door_xyz[b])
        )


def test_point_to_door(tiny_space, rng):
    m = tiny_space.model
    v = 3
    p = IndoorPoint(v, tiny_space.random_point(rng, v))
    d = int(m.part_doors[v][0])
    leg = _leg(float(m.stair_len[v]), _SOURCE, p.xyz, d, tuple(m.door_xyz[d]))
    assert leg == pytest.approx(euclid(p.coords(), m.door_xyz[d]))


def test_part_periods_union_of_doors(tiny_space):
    """NT's update ticks ``UT(v)`` are the ticks some door of v reports at."""
    m = tiny_space.model
    L = m.hyperperiod
    for v in range(m.n_partitions):
        periods = m.door_period[m.part_doors[v]]
        for t in range(1, 2 * L + 1):
            expect = bool(reporting_mask(periods, t).any())
            assert m.part_updates[t % L, v] == expect
            assert m.update_count(v, t - 1, t) == expect


@pytest.mark.parametrize("world", ["tiny", "mall"])
def test_schedule_rows_match_reporting_mask(tiny_space, world):
    """Row ``x mod L`` of the schedule is ``reporting_mask`` at tick ``x``."""
    if world == "tiny":
        m = tiny_space.model
    else:
        from repro.space.mall import mall_space

        m = mall_space(horizon_ticks=120).model
        assert m.hyperperiod == 1
    rng = np.random.default_rng(4)
    for x in rng.integers(0, m.timeline.horizon, 200):
        expect = reporting_mask(m.door_period[m.e_door], int(x))
        assert np.array_equal(m.reports(int(x)), expect)


def test_flow_tables_follow_lambda_change():
    """``set_lambdas`` re-tabulates Eq. 6's per-residue inputs."""
    from tests.conftest import make_tiny_space

    m = make_tiny_space().model
    P = m.n_partitions
    lam = np.random.default_rng(6).uniform(0.0, 3.0, m.n_edges)
    assert not np.array_equal(lam, m.e_lam)
    m.set_lambdas(lam)
    assert np.array_equal(m.e_lam, lam)
    for x in range(m.hyperperiod):
        rep = m.reports(x)
        src, dst, got, out, inf = m.flow_table(x)
        assert np.array_equal(src, m.e_src[rep]) and np.array_equal(dst, m.e_dst[rep])
        assert np.array_equal(got, lam[rep])
        flow = np.where(rep, lam, 0.0)
        assert np.array_equal(out, np.bincount(m.e_src, weights=flow, minlength=P))
        assert np.array_equal(inf, np.bincount(m.e_dst, weights=flow, minlength=P))


def test_flow_tables_skip_zero_flow_edges(tiny_space):
    """Eq. 6's tables list only the reporting edges with λ > 0; their sums
    are bit-equal to sums over every reporting edge, and the schedule that
    NT and ``simulate`` read still holds the λ = 0 edges."""
    from tests.conftest import sparse_lambdas

    m = dataclasses.replace(tiny_space.model)
    P, L = m.n_partitions, m.hyperperiod
    reports = m.edge_reports.copy()
    counts = [m.update_count(v, 3, 3 + 2 * L) for v in range(P)]
    lam = sparse_lambdas(m, seed=7)
    m.set_lambdas(lam)
    skipped = 0
    for x in range(L):
        rep = m.reports(x)
        assert np.array_equal(rep, reports[x])
        keep = np.flatnonzero(rep & (lam > 0))
        skipped += int(rep.sum()) - len(keep)
        src, dst, got, out, inf = m.flow_table(x)
        assert np.array_equal(src, m.e_src[keep]) and np.array_equal(dst, m.e_dst[keep])
        assert np.array_equal(got, lam[keep])
        every_out = np.bincount(m.e_src[rep], weights=lam[rep], minlength=P)
        every_in = np.bincount(m.e_dst[rep], weights=lam[rep], minlength=P)
        assert out.tobytes() == every_out.tobytes() and inf.tobytes() == every_in.tobytes()
    assert skipped > 0
    assert counts == [m.update_count(v, 3, 3 + 2 * L) for v in range(P)]


@pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
def test_negative_or_nonfinite_lambda_rejected(tiny_space, bad):
    """λ is a Poisson mean: finite and >= 0, or the model refuses it."""
    m = dataclasses.replace(tiny_space.model)
    before = m.e_lam
    lam = before.copy()
    lam[3] = bad
    with pytest.raises(ValueError, match="λ"):
        m.set_lambdas(lam)
    assert m.e_lam is before
    with pytest.raises(ValueError, match="λ"):
        dataclasses.replace(m, e_lam=lam)


@pytest.mark.parametrize("world", ["tiny", "default", "mall"])
def test_listed_sources_ship_flow(tiny_space, default_world, world):
    """``eq6_step`` divides by ``out[src]`` unguarded: every edge a flow
    table lists leaves a partition that ships more than 0 at that residue."""
    if world == "tiny":
        m = tiny_space.model
    elif world == "default":
        m = default_world.model
    else:
        from repro.space.mall import mall_space
        from tests.conftest import sparse_lambdas

        m = mall_space(horizon_ticks=120).model
        m.set_lambdas(sparse_lambdas(m, seed=8))
    listed = 0
    for x in range(m.hyperperiod):
        src, _, lam, out, _ = m.flow_table(x)
        assert (lam > 0).all() and (out[src] > 0).all()
        listed += len(src)
    assert listed > 0


@pytest.mark.parametrize("period", [0, 6])
def test_door_period_outside_paper_range_rejected(tiny_space, period):
    m = tiny_space.model
    bad = m.door_period.copy()
    bad[0] = period
    with pytest.raises(ValueError, match="1..5"):
        dataclasses.replace(m, door_period=bad)


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
