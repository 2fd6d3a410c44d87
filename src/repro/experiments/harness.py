"""Measurement harness for Tables 3 and 4 (Section 6.1.1, metrics).

For each query instance and each of the six algorithm variants the paper
compares (*PQ, *PQ-G, *PQ-PP, *PQ-NT, *PQ-GTG, *PQ-A), we measure:

* **running time** — wall clock of one query (fresh estimator per query, as
  the paper measures per-query cost), the median of ``TIMED_RUNS`` runs;
* **memory** — ``tracemalloc`` peak over a separate identical run (KB); the
  instrumented run is kept apart so tracing overhead never pollutes timing;
* **hit** — whether the returned door sequence equals the gold-standard
  path, "returned by searching over the detailed simulated trajectories"
  (our microsim / trajectory-world populations);
* **relative error** — ``γ = |cost_E − cost_G| / cost_G`` on the query-type
  cost (overall travel time for FPQ, overall contact for LCPQ).
"""
from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from repro.core.adaptive import adaptive_search
from repro.core.estimators import (
    GlobalEstimator,
    GoldEstimator,
    LocalEstimator,
    NTEstimator,
    PPEstimator,
)
from repro.core.model import IndoorCrowdModel
from repro.core.search import PathResult, search
from repro.gtg.search import gtg_search
from repro.space.queries import QueryInstance

ALGORITHMS = ("", "-G", "-PP", "-NT", "-GTG", "-A")
# Runs per query timing; one cold run is noisy enough to flip the paper's
# Table-3 running-time orderings between variants.
TIMED_RUNS = 3


# Estimator class per algorithm; "-A" observes the gold table instead.
_ESTIMATORS = {
    "": LocalEstimator,
    "-G": GlobalEstimator,
    "-PP": PPEstimator,
    "-NT": NTEstimator,
    "-GTG": GlobalEstimator,
}


def run_query(
    model: IndoorCrowdModel,
    gold_table: np.ndarray,
    inst: QueryInstance,
    qt: str,
    alg: str,
) -> PathResult | None:
    """One query with a fresh estimator — the unit the paper measures."""
    t_q = model_tq(model)
    if alg == "-A":
        return adaptive_search(model, gold_table, inst.ps, inst.pt, t_q, qt)
    if alg not in _ESTIMATORS:
        raise ValueError(f"unknown algorithm {alg!r}")
    # looked up at call time, so wrappers installed on this module apply
    run = gtg_search if alg == "-GTG" else search
    return run(model, _ESTIMATORS[alg](model), inst.ps, inst.pt, t_q, qt)


def model_tq(model: IndoorCrowdModel) -> float:
    """Query time: the first instant of the tick after the last report."""
    return model.tick_l * model.timeline.ti


def gold_result(
    model: IndoorCrowdModel, gold_table: np.ndarray, inst: QueryInstance, qt: str
) -> PathResult | None:
    """The gold-standard path: exact search over simulated populations."""
    est = GoldEstimator(gold_table)
    return search(model, est, inst.ps, inst.pt, model_tq(model), qt)


@dataclass
class QueryMeasure:
    alg: str
    qt: str
    instance: int
    wall_ms: float
    mem_kb: float
    hit: bool
    rel_err: float


def measure_query(
    model: IndoorCrowdModel,
    gold_table: np.ndarray,
    inst: QueryInstance,
    instance_id: int,
    qt: str,
    alg: str,
    gold: PathResult | None,
) -> QueryMeasure:
    """Time, memory, hit and γ of one query against its gold path.

    ``wall_ms`` is the median of ``TIMED_RUNS`` runs, each with a fresh
    estimator; memory is the ``tracemalloc`` peak of one more run.
    """
    times = []
    for _ in range(TIMED_RUNS):
        t0 = time.perf_counter()
        result = run_query(model, gold_table, inst, qt, alg)
        times.append((time.perf_counter() - t0) * 1000.0)
    wall_ms = statistics.median(times)
    tracemalloc.start()
    run_query(model, gold_table, inst, qt, alg)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    if result is None or gold is None:
        return QueryMeasure(alg, qt, instance_id, wall_ms, peak / 1024, False, float("nan"))
    gold_cost = gold.cost(qt)
    rel_err = (
        abs(result.cost(qt) - gold_cost) / gold_cost if gold_cost > 0 else 0.0
    )
    return QueryMeasure(
        alg=alg,
        qt=qt,
        instance=instance_id,
        wall_ms=wall_ms,
        mem_kb=peak / 1024,
        hit=result.doors == gold.doors,
        rel_err=rel_err,
    )


def measure_tasks(
    model: IndoorCrowdModel,
    gold_table: np.ndarray,
    instances: list[QueryInstance],
    tasks: list[tuple[int, str, str]],
) -> list[QueryMeasure]:
    """One ``QueryMeasure`` per ``(instance id, qt, alg)`` task, in task order.

    The gold path of each distinct ``(instance, qt)`` is searched once, before
    any variant runs, and every variant of that pair is scored against it.
    """
    golds = {
        (i, qt): gold_result(model, gold_table, instances[i], qt)
        for i, qt in dict.fromkeys((i, qt) for i, qt, _ in tasks)
    }
    return [
        measure_query(model, gold_table, instances[i], i, qt, alg, golds[(i, qt)])
        for i, qt, alg in tasks
    ]
