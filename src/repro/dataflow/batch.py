"""Distributed experiment execution: the query workload fanned out on Spark.

The paper evaluates 100 query instances × 6 algorithm variants × 2 query
types per configuration.  Each (instance, algorithm) measurement is
independent, so the workload maps cleanly onto executors: the world (crowd
model + gold populations + instances) is broadcast once, instances are
distributed with ``applyInPandas``, and the Table-3/4 aggregation is a Spark
SQL ``GROUP BY`` whose correctness is oracle-checked against DuckDB in the
test suite.
"""
from __future__ import annotations

from dataclasses import asdict, fields

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.experiments.harness import ALGORITHMS, QueryMeasure, measure_tasks
from repro.experiments.params import Settings
from repro.experiments.world import World

# One row per QueryMeasure; Spark types for its field annotations.
_SPARK_TYPES = {"str": "string", "int": "long", "float": "double", "bool": "boolean"}
_COLUMNS = [f.name for f in fields(QueryMeasure)]
_SCHEMA = ", ".join(f"{f.name} {_SPARK_TYPES[f.type]}" for f in fields(QueryMeasure))


def config_line(spark: SparkSession, job: str, settings: Settings) -> str:
    """One line that says how a job run is configured: where Spark runs,
    how wide, with how much driver memory, and on which query instances."""
    sc = spark.sparkContext
    return (
        f"[{job}] master={sc.master} defaultParallelism={sc.defaultParallelism} "
        f"driverMemory={sc.getConf().get('spark.driver.memory', '1g')} "
        f"instances={settings.n_instances} query_seed={settings.query_seed}"
    )


def run_batch(
    spark: SparkSession,
    world: World,
    qts: tuple[str, ...] = ("FPQ", "LCPQ"),
    algs: tuple[str, ...] = ALGORITHMS,
) -> DataFrame:
    """All per-query measurements as a DataFrame (one row per run).

    Tasks are bucketed by instance over ``defaultParallelism`` groups, so
    each gold path is searched once, in the group that owns its instance.
    """
    bc = spark.sparkContext.broadcast(world)
    tasks = pd.DataFrame(
        [
            (i, qt, alg)
            for i in range(len(world.instances))
            for qt in qts
            for alg in algs
        ],
        columns=["instance", "qt", "alg"],
    )
    n_groups = spark.sparkContext.defaultParallelism
    tasks["bucket"] = tasks["instance"] % n_groups

    def run_group(pdf: pd.DataFrame) -> pd.DataFrame:
        w: World = bc.value
        group = [
            (int(i), qt, alg) for i, qt, alg in zip(pdf["instance"], pdf["qt"], pdf["alg"])
        ]
        measures = measure_tasks(w.model, w.gold_pop, w.instances, group)
        return pd.DataFrame(map(asdict, measures), columns=_COLUMNS)

    sdf = spark.createDataFrame(tasks)
    return (
        sdf.repartition(n_groups, "bucket")
        .groupBy("bucket")
        .applyInPandas(run_group, schema=_SCHEMA)
    )


def aggregate_table(measures: DataFrame) -> DataFrame:
    """Table 3/4 rows: per (qt, alg) averages over instances (Spark SQL)."""
    return (
        measures.groupBy("qt", "alg")
        .agg(
            F.avg("wall_ms").alias("running_time_ms"),
            F.avg("mem_kb").alias("memory_kb"),
            (F.avg(F.col("hit").cast("double")) * 100.0).alias("hit_rate_pct"),
            # NaN marks a query with no result (e.g. A hitting its step
            # guard); exclude it instead of poisoning the mean
            F.avg(
                F.when(~F.isnan("rel_err"), F.col("rel_err"))
            ).alias("relative_error"),
        )
        .orderBy("qt", "alg")
    )
