"""Tests of the benchmark itself, on a one-floor 16-partition world.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from checks import Tally, chain_error, check_instance, digest, door_touches_only, edge_set  # noqa: E402
from repro.experiments.harness import gold_result, run_query  # noqa: E402
from repro.experiments.params import Settings  # noqa: E402
from repro.experiments.world import World  # noqa: E402
from repro.sim.microsim import install_snapshot, simulate  # noqa: E402
from repro.space.floorplan import build_space  # noqa: E402
from repro.space.queries import generate_instances  # noqa: E402
from sparkenv import Session  # noqa: E402
from tracing import Tracer, patched  # noqa: E402

TINY = workloads.Spec("tiny", "tiny", n_instances=4, scored=3, setup_reps=2, job_instances=2)


def tiny_world(spec=TINY, seed: int = 2, session=None) -> World:
    bs = build_space(
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
    sim = simulate(bs.model, bs.pop0, seed=5)
    install_snapshot(bs.model, sim.pop, sim.diff, tick_l=10)
    instances = generate_instances(bs, n=spec.n_instances, s2t=120.0, tol=60.0, seed=seed)
    settings = Settings(n_instances=spec.n_instances, s2t=120.0, t_q=100.0)
    return World(settings=settings, bs=bs, gold_pop=sim.pop, instances=instances)


@pytest.fixture(scope="module")
def world() -> World:
    return tiny_world()


@pytest.fixture(scope="module")
def bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_proxied_search_returns_run_query_paths(world):
    plain = workloads.first_pass(world, score=True)
    tracer = Tracer()
    with patched(tracer.query_patches()):
        traced = workloads.first_pass(world, score=True)
    assert digest(traced.paths) == digest(plain.paths)
    for key, r in plain.paths.items():
        assert (r is None and traced.paths[key] is None) or r.doors == traced.paths[key].doors
    proxied = [q for q in tracer.queries if q.proxied]
    assert len(proxied) == 10 * len(world.instances)  # 4 estimators x 2 query types + GTG x 2
    assert all(q.lookups > 0 for q in proxied)
    assert tracer.gold_ms and tracer.gtg_edges > 0
    assert all(q.replans >= 1 for q in tracer.queries if q.kind == "adaptive")


def test_patches_are_undone():
    import repro.experiments.harness as harness

    before = harness.search
    with patched(Tracer().query_patches()):
        assert harness.search is not before
    assert harness.search is before


def _results(world, i):
    inst = world.instances[i]
    results = {
        (qt, alg): run_query(world.model, world.gold_pop, inst, qt, alg)
        for qt, alg in workloads.VARIANTS
    }
    golds = {qt: gold_result(world.model, world.gold_pop, inst, qt) for qt in ("FPQ", "LCPQ")}
    return inst, results, golds


def test_checks_pass_on_real_paths(world):
    tally = Tally()
    edges = edge_set(world.model)
    for i in range(len(world.instances)):
        inst, results, golds = _results(world, i)
        check_instance(tally, edges, inst, i, results, golds)
    assert tally.n_attempted == 12 * len(world.instances)
    assert not tally.fatal


def test_checks_flag_a_broken_path(world):
    edges = edge_set(world.model)
    inst, results, golds = _results(world, 0)
    good = results[("FPQ", "-PP")]
    assert good.doors, "instance 0 should cross at least one door"
    assert chain_error(edges, inst, good) is None
    # swap the first door for one that does not join the first two partitions
    p0, p1 = good.partitions[:2]
    wrong = next(d for d in range(world.model.n_doors) if (d, p0, p1) not in edges)
    broken = replace(good, doors=(wrong, *good.doors[1:]))
    assert chain_error(edges, inst, broken) == f"door {wrong} recorded as {p0}->{p1}"
    assert chain_error(edges, inst, replace(good, partitions=good.partitions[:-1])) is not None

    tally = Tally()
    check_instance(tally, edges, inst, 0, {**results, ("FPQ", "-PP"): broken}, golds)
    assert tally.failed[("FPQ", "-PP")] == 1 and len(tally.fatal) == 1

    # *PQ must agree with *PQ-G on doors and cost
    off = replace(results[("LCPQ", "")], contact=results[("LCPQ", "")].contact + 1e-6)
    tally = Tally()
    check_instance(tally, edges, inst, 0, {**results, ("LCPQ", ""): off}, golds)
    assert tally.failed[("LCPQ", "")] == 1

    tally = Tally()
    check_instance(tally, edges, inst, 0, {**results, ("FPQ", "-A"): None}, golds)
    assert tally.failed[("FPQ", "-A")] == 1 and tally.fatal


def test_gtg_door_touch_is_counted_but_not_fatal(world):
    edges = edge_set(world.model)
    inst, results, golds = _results(world, 0)
    good = results[("LCPQ", "-GTG")]
    v = good.partitions[0]
    own = next(d for d, src, _ in sorted(edges) if src == v)
    # walk to one of the first partition's own doors and back, then go on
    touch = replace(
        good, doors=(own, *good.doors), partitions=(v, *good.partitions)
    )
    assert door_touches_only(edges, touch)
    tally = Tally()
    check_instance(tally, edges, inst, 0, {**results, ("LCPQ", "-GTG"): touch}, golds)
    assert tally.failed[("LCPQ", "-GTG")] == 1 and not tally.fatal

    # the same detour is fatal for any other variant, and so is a foreign door
    tally = Tally()
    check_instance(tally, edges, inst, 0, {**results, ("LCPQ", "-PP"): touch}, golds)
    assert tally.fatal
    foreign = next(d for d, src, dst in sorted(edges) if v not in (src, dst))
    jump = replace(touch, doors=(foreign, *good.doors))
    assert not door_touches_only(edges, jump)
    tally = Tally()
    check_instance(tally, edges, inst, 0, {**results, ("LCPQ", "-GTG"): jump}, golds)
    assert tally.fatal


def test_every_printed_metric_is_in_benchmark_json(spark, bench):
    spec_names = {w["name"] for w in bench["workloads"]}
    assert spec_names == set(workloads.SPECS)
    for trace, wanted in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
        session = Session(ROOT, TINY.name, 2, spark=spark)
        out = workloads.run(TINY, 2, 0.5, trace, session, build=tiny_world)
        assert not out.tally.fatal, out.tally.fatal
        printed = bench_run.result_metrics(out.metrics, wanted)
        assert set(printed) == {m["name"] for m in wanted}
        assert all(isinstance(m["value"], float) for m in printed.values())
