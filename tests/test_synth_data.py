"""Tests for the synthetic indoor data the dataflow layer consumes."""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.space.floorplan import synthetic_space
from repro.space.mall import simulate_trajectories


@pytest.fixture(scope="module")
def fixes(spark):
    """Positioning fixes (mac, t, partition, x, y, z) from a 1-floor walk."""
    bs = synthetic_space(floors=1, seed=7, horizon_ticks=120)
    tw = simulate_trajectories(bs, n_objects=20, session_ticks=30, seed=7)
    return spark.createDataFrame(tw.fixes)


def test_indoor_trajectories_schema(fixes):
    assert {"mac", "t", "partition", "x", "y", "z"} <= set(fixes.columns)
    assert fixes.count() > 0
    assert fixes.select("mac").distinct().count() <= 20


def test_oracle_detects_wrong_result(fixes):
    """The DuckDB oracle rejects an indoor aggregation that is off by one."""
    wrong = fixes.groupBy("partition").agg((F.count("*") + 1).alias("n"))
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong,
            "SELECT partition, COUNT(*) AS n FROM fixes GROUP BY partition",
            fixes=fixes,
        )
