"""Unit tests for the discrete time grid (repro.core.timeline)."""
import numpy as np
import pytest

from repro.core.timeline import Timeline, reporting_mask


@pytest.mark.parametrize(
    "t,expected",
    [(0.0, 0), (9.99, 0), (10.0, 1), (25.0, 2), (599.0, 59), (1e9, 59)],
)
def test_tick_of_time(t, expected):
    tl = Timeline(ti=10.0, horizon=60)
    assert tl.tick(t) == expected


def test_tick_clamps_negative():
    assert Timeline(ti=5.0, horizon=10).tick(-3.0) == 0


@pytest.mark.parametrize("tick", [0, 1, 7, 59])
def test_seconds_roundtrip(tick):
    tl = Timeline(ti=10.0, horizon=60)
    assert tl.tick(tick * tl.ti) == tick


@pytest.mark.parametrize("ti", [5.0, 10.0, 15.0, 20.0])
def test_table2_intervals(ti):
    """Tick ``k`` is the interval ``[k·TI, (k+1)·TI)``."""
    tl = Timeline(ti=ti, horizon=100)
    for k in (0, 1, 42):
        assert tl.tick(k * ti) == k
        assert tl.tick((k + 1) * ti - 1e-6) == k


@pytest.mark.parametrize("period", [1, 2, 3, 4, 5])
def test_reporting_mask_periodic(period):
    periods = np.array([period])
    ticks = [x for x in range(30) if reporting_mask(periods, x)[0]]
    assert ticks == list(range(0, 30, period))


def test_reporting_mask_vector():
    periods = np.array([1, 2, 3])
    assert reporting_mask(periods, 6).tolist() == [True, True, True]
    assert reporting_mask(periods, 5).tolist() == [True, False, False]


def test_reporting_mask_tick0_all_aligned():
    periods = np.arange(1, 6)
    assert reporting_mask(periods, 0).all()
