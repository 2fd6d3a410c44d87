"""Tests for the experiment harness (metrics of Tables 3/4)."""
import math

import numpy as np
import pytest

import repro.experiments.harness as harness
from repro.core.estimators import GoldEstimator
from repro.core.search import FPQ, LCPQ
from repro.experiments.harness import (
    ALGORITHMS,
    gold_result,
    measure_query,
    measure_tasks,
    model_tq,
    run_query,
)
from tests.conftest import table_rows


def test_model_tq_alignment(tiny_world):
    m = tiny_world.model
    assert model_tq(m) == m.tick_l * m.timeline.ti


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_run_query_returns_path(tiny_world, alg):
    inst = tiny_world.instances[0]
    r = run_query(tiny_world.model, tiny_world.gold_pop, inst, FPQ, alg)
    assert r is not None
    assert r.partitions[-1] == inst.pt.partition


def test_unknown_algorithm_rejected(tiny_world):
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_query(tiny_world.model, tiny_world.gold_pop, tiny_world.instances[0], FPQ, "-XX")


def test_measure_query_fields(tiny_world):
    inst = tiny_world.instances[0]
    gold = gold_result(tiny_world.model, tiny_world.gold_pop, inst, FPQ)
    m = measure_query(tiny_world.model, tiny_world.gold_pop, inst, 0, FPQ, "", gold)
    assert m.wall_ms > 0
    assert m.mem_kb > 0
    assert isinstance(m.hit, bool)
    assert m.rel_err >= 0 and math.isfinite(m.rel_err)


def test_gold_is_its_own_reference(tiny_world):
    """Measuring the gold search against itself: hit, zero error."""
    inst = tiny_world.instances[0]
    gold = gold_result(tiny_world.model, tiny_world.gold_pop, inst, FPQ)
    assert gold is not None
    # exact searches with the gold estimator would reproduce it exactly;
    # here we check γ's definition directly
    gc = gold.cost(FPQ)
    assert abs(gc - gold.cost(FPQ)) / gc == 0.0


@pytest.mark.parametrize("qt", [FPQ, LCPQ])
def test_evaluate_structure(tiny_world, qt):
    """Table 3/4 rows averaged from ``measure_tasks``: the four metrics per
    algorithm, hit rate a percentage, running time positive."""
    rows = table_rows(tiny_world, (qt,), algs=("", "-NT"))[qt]
    assert set(rows) == {"", "-NT"}
    for r in rows.values():
        assert set(r) == {
            "running_time_ms",
            "memory_kb",
            "hit_rate_pct",
            "relative_error",
        }
        assert 0 <= r["hit_rate_pct"] <= 100
        assert r["running_time_ms"] > 0


def test_measure_tasks_one_gold_per_instance_qt(tiny_world, monkeypatch):
    """One gold search per (instance, qt); rows in task order, each scored
    exactly as ``measure_query`` scores it against the same gold path."""
    w = tiny_world
    tasks = [
        (1, LCPQ, "-NT"),
        (0, FPQ, ""),
        (1, LCPQ, ""),
        (0, FPQ, "-GTG"),
        (0, LCPQ, "-G"),
        (1, LCPQ, "-A"),
        (1, FPQ, "-PP"),
    ]
    gold_calls = []
    real_search = harness.search

    def counting_search(model, est, ps, pt, t_q, qt):
        if isinstance(est, GoldEstimator):
            inst = next(i for i, x in enumerate(w.instances) if x.ps is ps)
            gold_calls.append((inst, qt))
        return real_search(model, est, ps, pt, t_q, qt)

    monkeypatch.setattr(harness, "search", counting_search)
    ms = measure_tasks(w.model, w.gold_pop, w.instances, tasks)
    monkeypatch.undo()

    assert sorted(gold_calls) == sorted({(i, qt) for i, qt, _ in tasks})
    assert [(m.instance, m.qt, m.alg) for m in ms] == tasks
    for m, (i, qt, alg) in zip(ms, tasks):
        gold = gold_result(w.model, w.gold_pop, w.instances[i], qt)
        ref = measure_query(w.model, w.gold_pop, w.instances[i], i, qt, alg, gold)
        assert m.hit == ref.hit
        assert m.rel_err == ref.rel_err or (math.isnan(m.rel_err) and math.isnan(ref.rel_err))


def test_exact_pair_identical_results(tiny_world):
    """*PQ and *PQ-G must return identical paths and costs (both exact)."""
    for qt in (FPQ, LCPQ):
        for inst in tiny_world.instances:
            a = run_query(tiny_world.model, tiny_world.gold_pop, inst, qt, "")
            b = run_query(tiny_world.model, tiny_world.gold_pop, inst, qt, "-G")
            assert a.doors == b.doors
            assert a.cost(qt) == pytest.approx(b.cost(qt), rel=1e-12)
