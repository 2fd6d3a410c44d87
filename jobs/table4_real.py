"""Reproduce Table 4 ("real" data: the simulated Hangzhou mall).

Usage::

    spark-submit jobs/table4_real.py [--instances N]

Runs the full real-data pipeline — mall topology (977 partitions / 1613
doors / 10 stairways), 1,598 simulated trajectories, Spark probabilistic
door-flow counting, λ fitting — then the same distributed workload as
Table 3 and the paper-vs-ours rendering.
"""
from __future__ import annotations

import argparse
import os
import sys

from pyspark.sql import SparkSession

# The package sources, for the driver and (via executorEnv) the workers.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from repro.dataflow.batch import aggregate_table, run_batch
from repro.experiments.params import Settings
from repro.experiments.tables import PAPER_TABLE4, render_table
from repro.experiments.world import build_mall_world


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--instances", type=int, default=100)
    args = ap.parse_args()
    spark = (
        SparkSession.builder.appName("table4")
        .config("spark.executorEnv.PYTHONPATH", SRC)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    settings = Settings(n_instances=args.instances)
    world = build_mall_world(settings, spark)
    agg = aggregate_table(run_batch(spark, world))
    measured = {
        (r["qt"], r["alg"]): {
            "running_time_ms": r["running_time_ms"],
            "memory_kb": r["memory_kb"],
            "hit_rate_pct": r["hit_rate_pct"],
            "relative_error": r["relative_error"],
        }
        for r in agg.collect()
    }
    print(
        render_table(
            measured, PAPER_TABLE4, "Table 4 — Real Data (simulated mall)"
        )
    )
    spark.stop()


if __name__ == "__main__":
    main()
