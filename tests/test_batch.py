"""Spark tests: the distributed query-workload runner (+ oracle aggregation)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.search import FPQ
from repro.dataflow.batch import aggregate_table, config_line, run_batch
from repro.experiments.params import Settings
from repro.experiments.tables import rows_to_dict
from repro.oracle import assert_equivalent
from tests.conftest import table_rows


@pytest.fixture(scope="module")
def measures(spark, tiny_world):
    return run_batch(
        spark, tiny_world, qts=("FPQ", "LCPQ"), algs=("", "-NT")
    ).cache()


def test_all_tasks_executed(measures, tiny_world):
    n = len(tiny_world.instances)
    assert measures.count() == n * 2 * 2
    assert measures.select("alg").distinct().count() == 2
    assert measures.select("qt").distinct().count() == 2


def test_measure_columns(measures):
    assert set(measures.columns) == {
        "alg",
        "qt",
        "instance",
        "wall_ms",
        "mem_kb",
        "hit",
        "rel_err",
    }
    pdf = measures.toPandas()
    assert (pdf["wall_ms"] > 0).all()
    assert (pdf["mem_kb"] > 0).all()
    assert (pdf["rel_err"] >= 0).all()


def test_aggregate_matches_driver_evaluate(measures, tiny_world):
    """Distributed accuracy metrics equal the single-process harness."""
    agg = rows_to_dict(aggregate_table(measures))
    ref = table_rows(tiny_world, (FPQ,), algs=("", "-NT"))[FPQ]
    for alg in ("", "-NT"):
        # hit rate and relative error are deterministic; times are not
        assert agg[("FPQ", alg)]["hit_rate_pct"] == pytest.approx(
            ref[alg]["hit_rate_pct"]
        )
        assert agg[("FPQ", alg)]["relative_error"] == pytest.approx(
            ref[alg]["relative_error"], rel=1e-9
        )


def test_aggregation_oracle(measures):
    """The Table-3/4 GROUP BY vs the same SQL on DuckDB."""
    got = aggregate_table(measures)
    sql = """
        SELECT qt, alg,
               AVG(wall_ms) AS running_time_ms,
               AVG(mem_kb) AS memory_kb,
               AVG(CAST(hit AS DOUBLE)) * 100.0 AS hit_rate_pct,
               AVG(CASE WHEN isnan(rel_err) THEN NULL ELSE rel_err END)
                   AS relative_error
        FROM measures GROUP BY qt, alg
    """
    assert_equivalent(got, sql, measures=measures)


def test_instances_partitioned_not_duplicated(measures, tiny_world):
    per = (
        measures.groupBy("qt", "alg")
        .agg(F.countDistinct("instance").alias("n"))
        .toPandas()
    )
    assert (per["n"] == len(tiny_world.instances)).all()


def test_config_line_names_the_run(spark):
    """The jobs' first line: master, parallelism, driver memory, instances, seed."""
    line = config_line(spark, "table3", Settings(n_instances=7))
    sc = spark.sparkContext
    assert line.startswith("[table3] ") and "\n" not in line
    for part in (
        f"master={sc.master}",
        f"defaultParallelism={sc.defaultParallelism}",
        "driverMemory=",
        "instances=7",
        "query_seed=17",
    ):
        assert part in line, part
