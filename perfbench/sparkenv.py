"""A local Spark session for the benchmark, started on first use and stopped cleanly.

``repro`` lives in ``src/`` of the checkout and is not installed, so the
session exports ``src`` on ``PYTHONPATH`` before the JVM starts: Python
workers inherit it from the JVM, and ``applyInPandas`` can unpickle
functions that reference ``repro``.  Spark's scratch files go under
``.bench_build/`` in the checkout.
"""
from __future__ import annotations

import os
import subprocess
import time

MASTER_CORES = 4
DRIVER_MEMORY = "2g"


def master() -> str:
    return f"local[{max(1, min(MASTER_CORES, os.cpu_count() or 1))}]"


class Session:
    """Starts Spark when a workload first needs it; ``start_s`` is its start time."""

    def __init__(self, root: str, workload: str, seed: int, spark=None):
        self.root, self.workload, self.seed = root, workload, seed
        self.spark = spark
        self.start_s = 0.0
        self._owned = spark is None

    def get(self):
        if self.spark is None:
            t0 = time.perf_counter()
            self.spark = _start(self.root)
            self.start_s = time.perf_counter() - t0
            print(self.config_line(), flush=True)
        return self.spark

    def config_line(self) -> str:
        sc = self.spark.sparkContext
        return (
            f"[perfbench] workload={self.workload} seed={self.seed} master={sc.master} "
            f"defaultParallelism={sc.defaultParallelism} "
            f"driverMemory={sc.getConf().get('spark.driver.memory', '?')} start_s={self.start_s:.3f}"
        )

    def close(self) -> None:
        """Stop a session this object started, and wait for its JVM to exit."""
        if not self._owned or self.spark is None:
            return
        gateway = self.spark.sparkContext._gateway
        proc = getattr(gateway, "proc", None)
        self.spark.stop()
        gateway.shutdown()
        self.spark = None
        if proc is not None:
            if proc.stdin is not None:
                proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)


def _start(root: str):
    src = os.path.join(root, "src")
    scratch = os.path.join(root, ".bench_build", "spark")
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["TMPDIR"] = tmp
    # every JVM, spark-submit's launcher included, keeps its files in the checkout
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {master()} --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={scratch} "
        f"--conf spark.sql.warehouse.dir={os.path.join(scratch, 'warehouse')} "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
