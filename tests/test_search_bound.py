"""FPQ's A* bound: its premises, and equality with plain Dijkstra.

``search`` runs FPQ as A* with ``h = 2·euclid(door, p_t) / s̄``.  The bound
is admissible because Eq. 2 never gives ρ < 2, stairways are no shorter
than the straight line between their doors, and query points lie in rooms.
The first tests check those premises on the default world and the mall
topology.  The rest compare ``search`` with ``_dijkstra`` below, an h ≡ 0
label-setting search under the same tie rule, for bit-equal results and for
the work the bound saves.
"""
import heapq
import statistics
from itertools import combinations

import numpy as np
import pytest

from repro.core.adaptive import FrozenEstimator
from repro.core.costs import crowd_factors, passing_costs
from repro.core.estimators import GlobalEstimator, GoldEstimator, NTEstimator, PPEstimator
from repro.core.model import IndoorCrowdModel
from repro.core.search import FPQ, LCPQ, PathResult, lower_bounds, search
from repro.core.timeline import Timeline
from repro.gtg.search import gtg_search
from repro.space.geometry import IndoorPoint, euclid
from repro.space.mall import mall_space
from repro.space.queries import generate_instances
from tests.conftest import walk_length


_S, _T = -1, -2  # the reference's ids for p_s and p_t


def _dijkstra(model, est, ps, pt, t_q, qt=FPQ):
    """Plain Dijkstra (h ≡ 0) under ``search``'s tie rule, built apart from it.

    States are directed-edge ids, with adjacency read from
    ``model.out_edges`` and legs from the test's own Eq. 1.  Labels are
    ``(cost, dist, doors)``; an exact tie keeps the predecessor with the
    smaller label, then the smaller state id.  The leg to ``p_t`` is relaxed
    last here (``search`` relaxes it first): the rule, not the relaxation
    order, decides ties.
    """
    best = {_S: (0.0, 0.0, 0)}
    costs = {_S: (0.0, 0.0, 0.0)}
    prev: dict[int, tuple[int, int]] = {}  # state -> (predecessor, partition passed)
    heap = [(best[_S], _S)]
    done: set[int] = set()
    while heap:
        k, s = heapq.heappop(heap)
        if s in done:
            continue
        done.add(s)
        if s == _T:
            doors, parts = [], []
            while s != _S:
                s, v = prev[s]
                parts.append(v)
                if s != _S:
                    doors.append(int(model.e_door[s]))
            return PathResult(tuple(doors[::-1]), tuple(parts[::-1]), *costs[_T])
        a = ps if s == _S else int(model.e_door[s])
        v = ps.partition if s == _S else int(model.e_dst[s])
        dist, time, contact = costs[s]
        pop = est.population(v, model.timeline.tick(t_q + time))
        is_q = bool(model.is_q[v])
        rho, pop, dens = crowd_factors(pop, float(model.area[v]), float(model.cap[v] / model.area[v]), is_q)
        legs = [(int(e), int(model.e_door[e])) for e in model.out_edges[v]]
        if v == pt.partition:
            legs.append((_T, pt))
        for e, b in legs:
            if e in done:
                continue
            seg = walk_length(model, v, a, b)
            dt, dk = passing_costs(seg, model.speed, rho, pop, dens, is_q)
            c = (dist + seg, time + dt, contact + dk)
            nk = (c[1] if qt == FPQ else c[2], c[0], k[2] + 1)
            if e not in best or nk < best[e]:
                best[e], costs[e], prev[e] = nk, c, (s, v)
                heapq.heappush(heap, (nk, e))
            elif nk == best[e] and (k, s) < (best[prev[e][0]], prev[e][0]):
                prev[e] = (s, v)
    return None


class _Counting:
    """Counts ``population()`` lookups: one per state a search expands."""

    def __init__(self, inner):
        self.inner, self.lookups = inner, 0

    def population(self, v, tick):
        self.lookups += 1
        return self.inner.population(v, tick)


def _estimators(world):
    m, gold = world.model, world.gold_pop
    return {
        "Global": lambda: GlobalEstimator(m),
        "PP": lambda: PPEstimator(m),
        "NT": lambda: NTEstimator(m),
        "Gold": lambda: GoldEstimator(gold),
        "Frozen": lambda: FrozenEstimator(gold, m.tick_l),
    }


# -- premises of the bound ------------------------------------------------------


@pytest.fixture(scope="module")
def mall():
    return mall_space()


def _stair_pairs(model):
    """``(stair_len, straight line)`` for each pair of doors of each stairway."""
    out = []
    for v in np.flatnonzero(model.stair_len > 0):
        for a, b in combinations(model.part_doors[int(v)], 2):
            out.append((float(model.stair_len[v]), euclid(model.door_xyz[a], model.door_xyz[b])))
    return out


@pytest.mark.parametrize("space", ["default", "mall"])
def test_stairways_no_shorter_than_straight_line(space, default_world, mall):
    model = default_world.model if space == "default" else mall.model
    pairs = _stair_pairs(model)
    assert len(pairs) == {"default": 16, "mall": 10}[space]
    assert all(stair >= line for stair, line in pairs)


def test_query_points_lie_in_rooms(default_world, mall):
    mall_instances = generate_instances(mall, n=12, seed=3)
    for model, instances in (
        (default_world.model, default_world.instances),
        (mall.model, mall_instances),
    ):
        for inst in instances:
            for p in (inst.ps, inst.pt):
                assert model.stair_len[p.partition] == 0


@pytest.mark.parametrize("is_q", [True, False])
def test_empty_partition_lags_by_two(is_q):
    """Eq. 2's floor: ρ = 1 + e^0 = 2 exactly for an empty partition."""
    assert crowd_factors(0.0, 100.0, 1.0, is_q)[0] == 2.0
    assert crowd_factors(-3.0, 100.0, 1.0, is_q)[0] == 2.0  # clamped at 0


# -- equality with plain Dijkstra -------------------------------------------------


@pytest.mark.parametrize("world_name", ["tiny_world", "default_world"])
@pytest.mark.parametrize("est_name", ["Global", "PP", "NT", "Gold", "Frozen"])
def test_fpq_equals_plain_dijkstra(request, world_name, est_name):
    world = request.getfixturevalue(world_name)
    make = _estimators(world)[est_name]
    t_q = world.settings.t_q
    for inst in world.instances:
        got = search(world.model, make(), inst.ps, inst.pt, t_q, FPQ)
        want = _dijkstra(world.model, make(), inst.ps, inst.pt, t_q, FPQ)
        assert want is not None
        assert got == want


def test_lcpq_equals_plain_dijkstra(tiny_world, default_world):
    for world in (tiny_world, default_world):
        for inst in world.instances:
            est = GlobalEstimator(world.model)
            got = search(world.model, est, inst.ps, inst.pt, world.settings.t_q, LCPQ)
            assert got == _dijkstra(world.model, est, inst.ps, inst.pt, world.settings.t_q, LCPQ)


def test_gtg_bound_keeps_paths(default_world, monkeypatch):
    """GTG with the bound returns what GTG without it (h ≡ 0) returns.

    The bound is patched where the one search loop reads it, and the patch
    must be read once per query, or the comparison would be vacuous.
    """
    import repro.core.search as core_search

    w = default_world
    t_q = w.settings.t_q
    with_bound = [gtg_search(w.model, GlobalEstimator(w.model), i.ps, i.pt, t_q, FPQ) for i in w.instances]
    calls = []

    def no_bound(model, graph, pt, qt):
        calls.append(qt)
        return lower_bounds(model, graph, pt, LCPQ)

    monkeypatch.setattr(core_search, "lower_bounds", no_bound)
    without = [gtg_search(w.model, GlobalEstimator(w.model), i.ps, i.pt, t_q, FPQ) for i in w.instances]
    assert calls == [FPQ] * len(w.instances)
    assert with_bound == without


class _Tagging:
    """Tags each ``population()`` lookup with the number of heap pops so far,
    i.e. with the state being expanded."""

    def __init__(self, inner, pops):
        self.inner, self.pops, self.seen = inner, pops, []

    def population(self, v, tick):
        self.seen.append((self.pops[0], v))
        return self.inner.population(v, tick)


def test_one_lookup_per_expanded_state_and_partition(default_world, monkeypatch):
    """Eq. 2's factors are looked up once per expanded state and partition
    passed — not once per relaxed edge, as GTG's own loop once did."""
    pops = [0]
    heappop = heapq.heappop

    def counting_heappop(heap):
        pops[0] += 1
        return heappop(heap)

    monkeypatch.setattr(heapq, "heappop", counting_heappop)
    w = default_world
    for inst in w.instances:
        for qt in (FPQ, LCPQ):
            for run in (gtg_search, search):
                est = _Tagging(GlobalEstimator(w.model), pops)
                assert run(w.model, est, inst.ps, inst.pt, w.settings.t_q, qt) is not None
                assert est.seen and len(set(est.seen)) == len(est.seen), (run.__name__, qt)


def test_fpq_bound_halves_lookups(default_world):
    """Deterministic work measure: the bound at least halves FPQ's lookups."""
    w = default_world
    ratios = []
    for inst in w.instances:
        astar, plain = _Counting(GlobalEstimator(w.model)), _Counting(GlobalEstimator(w.model))
        search(w.model, astar, inst.ps, inst.pt, w.settings.t_q, FPQ)
        _dijkstra(w.model, plain, inst.ps, inst.pt, w.settings.t_q, FPQ)
        ratios.append(plain.lookups / astar.lookups)
    assert statistics.median(ratios) >= 2.0, ratios


# -- constructed exact ties ------------------------------------------------------


def _empty_model(door_xyz, crossings, *, speed=1.2):
    """An empty space whose doors join partitions both ways.

    ``crossings`` lists ``(from, to, door)``; edge ids follow the list, with
    every reverse edge after all of them.  Nothing moves, so ρ = 2 throughout.
    """
    fwd = np.array(crossings)
    src = np.concatenate([fwd[:, 0], fwd[:, 1]])
    dst = np.concatenate([fwd[:, 1], fwd[:, 0]])
    p = int(src.max()) + 1
    model = IndoorCrowdModel(
        timeline=Timeline(ti=10.0, horizon=50),
        area=np.full(p, 400.0),
        is_q=np.zeros(p, dtype=bool),
        cap=np.full(p, 400.0),
        stair_len=np.zeros(p),
        door_xyz=np.array(door_xyz, dtype=float),
        door_period=np.ones(len(door_xyz), dtype=np.int64),
        e_src=src,
        e_dst=dst,
        e_door=np.concatenate([fwd[:, 2], fwd[:, 2]]),
        e_lam=np.zeros(len(src)),
        speed=speed,
    )
    model.set_snapshot(0, np.zeros(p))
    return model


def test_mirror_tie_takes_smaller_state_id():
    """Two mirror-image routes from room 0 to room 3: through corridor 1
    (left, doors 0 then 3) or corridor 2 (right, doors 2 then 1).

    Both cost the same time, distance and door count to the last bit, and
    their last doors have equal labels, so the smaller state id decides:
    edge 1 (door 1) beats edge 3 (door 3) into room 3.  Before the tie rule
    the label pushed first won, and the left route leaves room 0 by the
    smaller edge: both searches returned doors (0, 3).
    """
    model = _empty_model(
        [(-5, 5, 0), (5, 15, 0), (5, 5, 0), (-5, 15, 0)],
        [(0, 1, 0), (2, 3, 1), (0, 2, 2), (1, 3, 3)],
    )
    ps, pt = IndoorPoint(0, (0.0, 0.0, 0.0)), IndoorPoint(3, (0.0, 20.0, 0.0))
    est = GlobalEstimator(model)
    for qt in (FPQ, LCPQ):
        r = search(model, est, ps, pt, 0.0, qt)
        assert r.doors == (2, 1) and r.partitions == (0, 2, 3)
        assert r == _dijkstra(model, est, ps, pt, 0.0, qt)
        # the mirrored route is exactly as long
        assert r.dist == euclid((0, 0, 0), (-5, 5, 0)) + 10.0 + euclid((-5, 15, 0), (0, 20, 0))
    assert gtg_search(model, est, ps, pt, 0.0, FPQ).doors == (2, 1)


def test_tie_takes_predecessor_with_smaller_label():
    """Room 0 → room 1 → room 2 through door 2, entering room 1 by door 0 or 1.

    ``p_s → door 1 → door 2`` is 50 + 40 m and ``p_s → door 0 → door 2`` is
    65 + 25 m: an exact tie at door 2 (s̄ = 1 m/s keeps the times exact).
    Door 1 lies on the straight line from door 2 to ``p_t``, door 0 does not,
    so A* pops door 0 first although its label is larger.  The tie rule
    still keeps door 1, the predecessor Dijkstra expands first.
    """
    model = _empty_model(
        [(-24, 43, 0), (0, 10, 0), (0, 50, 0)],
        [(0, 1, 0), (0, 1, 1), (1, 2, 2)],
        speed=1.0,
    )
    ps, pt = IndoorPoint(0, (-40.0, -20.0, 0.0)), IndoorPoint(2, (0.0, 100.0, 0.0))
    est = GlobalEstimator(model)
    for qt in (FPQ, LCPQ):
        r = search(model, est, ps, pt, 0.0, qt)
        assert (r.doors, r.dist, r.time) == ((1, 2), 140.0, 280.0)
        assert r == _dijkstra(model, est, ps, pt, 0.0, qt)
    assert gtg_search(model, est, ps, pt, 0.0, FPQ).doors == (1, 2)
