"""Shared worlds for the test suite.

Session-scoped because world construction (space + microsim + query
generation) costs seconds; all tests treat them as read-only.  ``tiny_*``
is a one-floor 16-partition space for exhaustive/brute-force checks;
``small_world`` is a one-floor 141-partition world — the paper's per-floor
statistics at test-friendly cost; ``default_world`` is the Table-2 default
world, for timing shape and regression digests.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments.harness import ALGORITHMS, measure_tasks
from repro.experiments.params import Settings
from repro.experiments.world import World, build_synthetic_world
from repro.sim.microsim import install_snapshot, simulate
from repro.space.floorplan import BuiltSpace, build_space
from repro.space.geometry import IndoorPoint, euclid
from repro.space.queries import generate_instances


def table_rows(
    world: World, qts: tuple[str, ...], algs: tuple[str, ...] = ALGORITHMS
) -> dict[str, dict[str, dict[str, float]]]:
    """Table 3/4 rows computed serially: ``rows[qt][alg][metric]``.

    Per-(qt, alg) means of ``measure_tasks`` over every instance, with NaN
    relative errors (no result) left out — the reference that
    ``aggregate_table`` must reproduce.  The variants of one instance run
    back to back, so a drift in machine load shifts them alike.
    """
    n = len(world.instances)
    tasks = [(i, qt, alg) for i in range(n) for qt in qts for alg in algs]
    groups: dict[tuple[str, str], list] = {}
    for m in measure_tasks(world.model, world.gold_pop, world.instances, tasks):
        groups.setdefault((m.qt, m.alg), []).append(m)
    rows: dict[str, dict[str, dict[str, float]]] = {qt: {} for qt in qts}
    for (qt, alg), ms in groups.items():
        errs = [m.rel_err for m in ms if not np.isnan(m.rel_err)]
        rows[qt][alg] = {
            "running_time_ms": float(np.mean([m.wall_ms for m in ms])),
            "memory_kb": float(np.mean([m.mem_kb for m in ms])),
            "hit_rate_pct": 100.0 * float(np.mean([m.hit for m in ms])),
            "relative_error": float(np.mean(errs)) if errs else float("nan"),
        }
    return rows


def walk_length(model, v: int, a, b) -> float:
    """Eq. 1 for the test references, written apart from the search's.

    Walking length inside partition ``v`` from ``a`` to ``b``, each a door
    id or an ``IndoorPoint``: 0 from a door to itself, the stairway's length
    for a stairway leg that touches a door, else the straight line.
    """
    a_point, b_point = isinstance(a, IndoorPoint), isinstance(b, IndoorPoint)
    if not (a_point or b_point) and a == b:
        return 0.0
    if model.stair_len[v] > 0 and not (a_point and b_point):
        return float(model.stair_len[v])
    xyz_a = a.coords() if a_point else model.door_xyz[a]
    xyz_b = b.coords() if b_point else model.door_xyz[b]
    return euclid(xyz_a, xyz_b)


def sparse_lambdas(model, seed: int, lam_max: float = 1.0) -> np.ndarray:
    """λ ~ U(0, lam_max) with a seeded half of the edges at 0 — the sparsity
    of the mall's fitted flows (1,784 of 3,226 edges carry none)."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, lam_max, model.n_edges)
    lam[rng.permutation(model.n_edges)[: model.n_edges // 2]] = 0.0
    return lam


def reference_flow_stats(model, diff, ticks) -> list[tuple[float, float]]:
    """Strategy NT's ``(μ, σ)`` per partition, written apart from the model's
    masked reduction: partition ``v``'s net flows ``diff[t, v]`` at the
    ``ticks`` some door of ``v`` reports at, summed in tick order as the
    column reductions sum them; ``(0.0, inf)`` where there is none."""
    stats = []
    for v in range(model.n_partitions):
        periods = [int(p) for p in model.door_period[model.part_doors[v]]]
        xs = [float(diff[t, v]) for t in ticks if any(t % p == 0 for p in periods)]
        if not xs:
            stats.append((0.0, math.inf))
            continue
        mu = sum(xs) / len(xs)
        stats.append((mu, math.sqrt(sum((x - mu) * (x - mu) for x in xs) / len(xs))))
    return stats


def make_tiny_space(**overrides) -> BuiltSpace:
    kwargs = dict(
        floors=1,
        parts_per_floor=[16],
        doors_per_floor=[20],
        stairs_per_gap=[],
        floor_w=160.0,
        floor_h=160.0,
        q_per_floor=3,
        obj_max=100,
        lam_max=2.0,
        ti=10.0,
        horizon_ticks=80,
        seed=3,
    )
    kwargs.update(overrides)
    return build_space(**kwargs)


@pytest.fixture(scope="session")
def tiny_space() -> BuiltSpace:
    return make_tiny_space()


@pytest.fixture(scope="session")
def tiny_world(tiny_space) -> World:
    sim = simulate(tiny_space.model, tiny_space.pop0, seed=5)
    install_snapshot(tiny_space.model, sim.pop, sim.diff, tick_l=10)
    instances = generate_instances(tiny_space, n=5, s2t=120.0, tol=60.0, seed=2)
    return World(
        settings=Settings(n_instances=5, s2t=120.0, t_q=100.0),
        bs=tiny_space,
        gold_pop=sim.pop,
        instances=instances,
    )


@pytest.fixture(scope="session")
def small_world() -> World:
    settings = Settings(floors=1, n_instances=6, s2t=600.0, space_seed=7)
    return build_synthetic_world(settings)


@pytest.fixture(scope="session")
def default_world() -> World:
    """The Table-2 default synthetic world, with 4 query instances."""
    return build_synthetic_world(Settings(n_instances=4))


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
