"""Tests for the unified FPQ/LCPQ search (Algorithms 3 and 4)."""
import itertools

import numpy as np
import pytest

from repro.core.estimators import GlobalEstimator, GoldEstimator
from repro.core.search import (
    FPQ,
    LCPQ,
    search,
    segment_cost,
    static_distances,
)
from repro.space.geometry import IndoorPoint, euclid
from tests.conftest import walk_length


@pytest.fixture(scope="module")
def env(tiny_world):
    m = tiny_world.model
    return tiny_world, m, tiny_world.settings.t_q


def _brute_force(model, est, ps, pt, t_q, qt, max_doors=6):
    """Exhaustive enumeration of simple door paths (reference optimum)."""
    best = None
    states = [
        (e, int(model.e_dst[e]), int(model.e_door[e]))
        for e in range(model.n_edges)
    ]

    def extend(seq, v, dist, time, contact, visited):
        nonlocal best
        if v == pt.partition:
            last = seq[-1] if seq else None
            seg = walk_length(model, v, ps if last is None else last[2], pt)
            dt, dk = segment_cost(model, est, v, seg, t_q + time)
            cand = (dist + seg, time + dt, contact + dk, tuple(s[2] for s in seq))
            key = (cand[1], cand[0]) if qt == FPQ else (cand[2], cand[0])
            if best is None or key < (
                (best[1], best[0]) if qt == FPQ else (best[2], best[0])
            ):
                best = cand
        if len(seq) >= max_doors:
            return
        for e, v2, d in states:
            if model.e_src[e] != v or e in visited:
                continue
            last = seq[-1] if seq else None
            seg = walk_length(model, v, ps if last is None else last[2], d)
            dt, dk = segment_cost(model, est, v, seg, t_q + time)
            extend(
                seq + [(e, v2, d)],
                v2,
                dist + seg,
                time + dt,
                contact + dk,
                visited | {e},
            )

    extend([], ps.partition, 0.0, 0.0, 0.0, frozenset())
    return best


@pytest.mark.parametrize("qt", [FPQ, LCPQ])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_matches_brute_force(env, qt, seed):
    world, m, t_q = env
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, m.n_partitions, 2)
    ps = IndoorPoint(int(a), world.bs.random_point(rng, int(a)))
    pt = IndoorPoint(int(b), world.bs.random_point(rng, int(b)))
    est = GoldEstimator(world.gold_pop)
    got = search(m, est, ps, pt, t_q, qt)
    ref = _brute_force(m, est, ps, pt, t_q, qt)
    if ref is None:
        pytest.skip("brute force depth too small for this pair")
    assert got is not None
    # brute force is depth-limited; the search must be at least as good
    got_key = (got.time, got.dist) if qt == FPQ else (got.contact, got.dist)
    ref_key = (ref[1], ref[0]) if qt == FPQ else (ref[2], ref[0])
    assert got_key <= tuple(x + 1e-9 for x in ref_key)
    if got_key == pytest.approx(ref_key):
        pass  # same optimum (possibly via a different tie)


@pytest.mark.parametrize("qt", [FPQ, LCPQ])
def test_path_is_topologically_valid(env, qt):
    world, m, t_q = env
    for inst in world.instances:
        r = search(m, GlobalEstimator(m), inst.ps, inst.pt, t_q, qt)
        assert r is not None
        assert r.partitions[0] == inst.ps.partition
        assert r.partitions[-1] == inst.pt.partition
        # every consecutive (partition, door, partition) must be an edge
        for i, d in enumerate(r.doors):
            v_from, v_to = r.partitions[i], r.partitions[i + 1]
            ok = any(
                int(m.e_src[e]) == v_from
                and int(m.e_dst[e]) == v_to
                and int(m.e_door[e]) == d
                for e in m.out_edges[v_from]
            )
            assert ok, (v_from, d, v_to)


def _assert_rewalk_matches(model, est, ps, pt, t_q, r):
    """Re-walking ``r``'s path with the test's own Eq. 1 legs reproduces its costs."""
    dist = time = contact = 0.0
    cur_node = None
    for i, d in enumerate(r.doors):
        v = r.partitions[i]
        seg = walk_length(model, v, ps if cur_node is None else cur_node, d)
        dt, dk = segment_cost(model, est, v, seg, t_q + time)
        dist, time, contact = dist + seg, time + dt, contact + dk
        cur_node = d
    v = r.partitions[-1]
    seg = walk_length(model, v, ps if cur_node is None else cur_node, pt)
    dt, dk = segment_cost(model, est, v, seg, t_q + time)
    dist, time, contact = dist + seg, time + dt, contact + dk
    assert dist == pytest.approx(r.dist)
    assert time == pytest.approx(r.time)
    assert contact == pytest.approx(r.contact)


def test_costs_accumulate_consistently(env):
    """Re-walking the returned path reproduces the reported costs."""
    world, m, t_q = env
    est = GlobalEstimator(m)
    for qt in (FPQ, LCPQ):
        for inst in world.instances:
            r = search(m, est, inst.ps, inst.pt, t_q, qt)
            _assert_rewalk_matches(m, est, inst.ps, inst.pt, t_q, r)


def test_costs_accumulate_from_stairway_source():
    """A p_s inside a stairway pays the stairway's length to reach a door."""
    from repro.sim.microsim import install_snapshot, simulate
    from tests.conftest import make_tiny_space

    bs = make_tiny_space(
        floors=2, parts_per_floor=[16, 16], doors_per_floor=[20, 20], stairs_per_gap=[2]
    )
    m = bs.model
    sim = simulate(m, bs.pop0, seed=5)
    install_snapshot(m, sim.pop, sim.diff, tick_l=10)
    rng = np.random.default_rng(0)
    stair = int(np.flatnonzero(m.stair_len > 0)[0])
    ps = IndoorPoint(stair, bs.random_point(rng, stair))
    pt = IndoorPoint(15, bs.random_point(rng, 15))
    est = GlobalEstimator(m)
    for qt in (FPQ, LCPQ):
        r = search(m, est, ps, pt, 100.0, qt)
        assert r.doors
        _assert_rewalk_matches(m, est, ps, pt, 100.0, r)


def test_same_partition_direct(env, rng):
    world, m, t_q = env
    ps = IndoorPoint(2, world.bs.random_point(rng, 2))
    pt = IndoorPoint(2, world.bs.random_point(rng, 2))
    r = search(m, GlobalEstimator(m), ps, pt, t_q, FPQ)
    assert r is not None
    # direct crossing is optimal in an uncrowded tiny room
    assert r.partitions == (2, ) or r.partitions[0] == 2


def test_fpq_prefers_time_lcpq_prefers_contact(env):
    world, m, t_q = env
    inst = world.instances[0]
    est = GlobalEstimator(m)
    f = search(m, est, inst.ps, inst.pt, t_q, FPQ)
    l = search(m, est, inst.ps, inst.pt, t_q, LCPQ)
    assert f.time <= l.time + 1e-9
    assert l.contact <= f.contact + 1e-9


def test_crowd_awareness_changes_route():
    """Inflating one room's population must divert the FPQ route."""
    from repro.sim.microsim import install_snapshot, simulate
    from tests.conftest import make_tiny_space

    bs = make_tiny_space()
    m = bs.model
    sim = simulate(m, bs.pop0, seed=5)
    install_snapshot(m, sim.pop, sim.diff, tick_l=10)
    rng = np.random.default_rng(1)
    ps = IndoorPoint(0, bs.random_point(rng, 0))
    pt = IndoorPoint(15, bs.random_point(rng, 15))
    base = search(m, GlobalEstimator(m), ps, pt, 100.0, FPQ)
    mid = base.partitions[len(base.partitions) // 2]
    crowded = m.pop_l.copy()
    crowded[mid] = m.cap[mid] * 40  # absurdly crowded → enormous ρ
    m.set_snapshot(m.tick_l, crowded)
    diverted = search(m, GlobalEstimator(m), ps, pt, 100.0, FPQ)
    assert mid not in diverted.partitions
    assert diverted.time > 0


def test_start_door_mode(env):
    world, m, t_q = env
    inst = world.instances[0]
    full = search(m, GlobalEstimator(m), inst.ps, inst.pt, t_q, FPQ)
    if not full.doors:
        pytest.skip("degenerate instance")
    d0 = full.doors[0]
    v1 = full.partitions[1]
    rest = search(
        m, GlobalEstimator(m), None, inst.pt, t_q, FPQ, start_door=(d0, v1)
    )
    assert rest is not None
    assert rest.partitions[0] == v1


def test_unreachable_returns_none():
    """A one-way-only world can make the target unreachable."""
    from tests.conftest import make_tiny_space

    bs = make_tiny_space()
    m = bs.model
    # fabricate a model with zero out-edges from the source partition
    import copy

    m2 = copy.deepcopy(m)
    keep = m2.e_src != 0
    m2.e_src, m2.e_dst, m2.e_door, m2.e_lam = (
        m2.e_src[keep],
        m2.e_dst[keep],
        m2.e_door[keep],
        m2.e_lam[keep],
    )
    m2.__post_init__()
    m2.set_snapshot(0, np.zeros(m2.n_partitions))
    rng = np.random.default_rng(0)
    ps = IndoorPoint(0, bs.random_point(rng, 0))
    pt = IndoorPoint(15, bs.random_point(rng, 15))
    assert search(m2, GlobalEstimator(m2), ps, pt, 10.0, FPQ) is None


def test_static_distances_triangle_inequality(env, rng):
    world, m, _ = env
    ps = IndoorPoint(0, world.bs.random_point(rng, 0))
    dists = static_distances(m, ps)
    assert all(d >= 0 for d in dists.values())
    # relaxation fixpoint: no edge can improve any distance
    for e, d in dists.items():
        door, part = int(m.e_door[e]), int(m.e_dst[e])
        for e2 in m.out_edges[part]:
            seg = walk_length(m, part, door, int(m.e_door[e2]))
            assert dists[int(e2)] <= d + seg + 1e-9


def test_static_distances_cover_reachable_states(env, rng):
    world, m, _ = env
    ps = IndoorPoint(0, world.bs.random_point(rng, 0))
    assert sorted(static_distances(m, ps)) == list(range(m.n_edges))  # fully connected


def test_crowd_free_search_matches_static_distances(env):
    """With no crowd, FPQ's time is ρ(0)/s̄ × distance: both Dijkstras agree."""
    world, m, t_q = env
    empty = GoldEstimator(np.zeros_like(world.gold_pop))
    for inst in world.instances:
        r = search(m, empty, inst.ps, inst.pt, t_q, FPQ)
        static = static_distances(m, inst.ps)
        routes = [
            d + euclid(m.door_xyz[m.e_door[e]], inst.pt.coords())
            for e, d in static.items()
            if m.e_dst[e] == inst.pt.partition
        ]
        if inst.ps.partition == inst.pt.partition:
            routes.append(euclid(inst.ps.coords(), inst.pt.coords()))
        assert r.dist == pytest.approx(min(routes), abs=1e-9)
