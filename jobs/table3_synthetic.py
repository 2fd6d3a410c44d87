"""Reproduce Table 3 (synthetic data, default setting).

Usage::

    spark-submit jobs/table3_synthetic.py [--instances N] [--sweep s2t|ti|floors|objects]

Builds the Table-2 default world (5 floors, |o| = 600, TI = 10 s,
s2t = 1300 m), fans the 100-instance × 12-variant workload out over Spark
executors, aggregates with Spark SQL, and prints the paper-vs-ours table.
``--sweep`` re-runs the measurement across one Table-2 axis (the data behind
Figures 5–24; figures themselves are out of scope).
"""
from __future__ import annotations

import argparse
import os
import sys

from pyspark.sql import SparkSession

# The package sources, for the driver and (via executorEnv) the workers.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from repro.dataflow.batch import aggregate_table, config_line, run_batch
from repro.experiments.params import FLOORS, OBJECTS, S2T, TI, Settings
from repro.experiments.tables import PAPER_TABLE3, render_table, rows_to_dict
from repro.experiments.world import build_synthetic_world


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--instances", type=int, default=100)
    ap.add_argument("--sweep", choices=["s2t", "ti", "floors", "objects"])
    args = ap.parse_args()
    spark = (
        SparkSession.builder.appName("table3")
        .config("spark.executorEnv.PYTHONPATH", SRC)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    print(config_line(spark, "table3", Settings(n_instances=args.instances)), flush=True)

    if args.sweep:
        axis = {
            "s2t": ("s2t", S2T),
            "ti": ("ti", TI),
            "floors": ("floors", FLOORS),
            "objects": ("obj_max", OBJECTS),
        }[args.sweep]
        for val in axis[1]:
            settings = Settings(**{axis[0]: val}, n_instances=args.instances)
            world = build_synthetic_world(settings)
            agg = aggregate_table(run_batch(spark, world))
            print(f"\n=== sweep {args.sweep} = {val} ===")
            agg.show(truncate=False)
    else:
        settings = Settings(n_instances=args.instances)
        world = build_synthetic_world(settings)
        agg = aggregate_table(run_batch(spark, world))
        print(
            render_table(
                rows_to_dict(agg),
                PAPER_TABLE3,
                "Table 3 — Synthetic Data (default setting)",
            )
        )
    spark.stop()


if __name__ == "__main__":
    main()
