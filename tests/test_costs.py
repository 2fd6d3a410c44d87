"""Unit tests for the routing-cost kernel (Eq. 2, 3, 4)."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.costs import BUFFER_W, crowd_factors, passing_costs


def rho_at(density, d_max, is_q):
    """ρ of a unit-area partition holding ``density`` objects per m²."""
    return crowd_factors(density, 1.0, d_max, is_q)[0]


def costs_at(dist, density, area, d_max, is_q, speed=1.2):
    """(T, κ) of one segment through a partition at ``density``."""
    rho, pop, dens = crowd_factors(density * area, area, d_max, is_q)
    return passing_costs(dist, speed, rho, pop, dens, is_q)


@pytest.mark.parametrize("is_q", [True, False])
def test_lagging_empty_partition(is_q):
    # δ = 0 → ρ = 1 + e^0 = 2
    assert rho_at(0.0, 1.0, is_q) == pytest.approx(2.0)


@pytest.mark.parametrize("is_q", [True, False])
def test_lagging_greater_than_one(is_q):
    for d in (0.0, 0.1, 0.5, 1.0, 5.0):
        assert rho_at(d, 1.0, is_q) > 1.0


@pytest.mark.parametrize("is_q", [True, False])
def test_lagging_monotone_in_density(is_q):
    vals = [rho_at(d, 1.0, is_q) for d in (0.0, 0.2, 0.5, 0.9, 1.3)]
    assert vals == sorted(vals)


@pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9])
def test_q_crowd_lags_more_than_r(ratio):
    # below capacity the square shrinks the exponent, so R lags less
    q = rho_at(ratio, 1.0, True)
    r = rho_at(ratio, 1.0, False)
    assert q > r


def test_lagging_at_capacity_equal():
    # δ/Dmax = 1 → both types give 1 + e
    assert rho_at(1.0, 1.0, True) == pytest.approx(1.0 + math.e)
    assert rho_at(1.0, 1.0, False) == pytest.approx(1.0 + math.e)


def test_lagging_overflow_guard():
    assert math.isfinite(rho_at(1e6, 1.0, False))
    assert math.isfinite(rho_at(1e6, 1.0, True))


def test_negative_density_treated_as_zero():
    # a negative population estimate is clamped to an empty partition
    rho, pop, dens = crowd_factors(-5.0, 1.0, 1.0, True)
    assert rho == pytest.approx(2.0)
    assert pop == 0.0 and dens == 0.0


@pytest.mark.parametrize("dist,speed", [(10.0, 1.0), (30.0, 1.2), (0.0, 1.2)])
def test_passing_time_crowd_free(dist, speed):
    # ρ(δ=0) = 2 so T = 2 · dist/speed
    t, _ = costs_at(dist, 0.0, 100.0, 1.0, False, speed)
    assert t == pytest.approx(2.0 * dist / speed)


def test_passing_time_scales_with_lagging():
    t0, _ = costs_at(10.0, 0.0, 100.0, 1.0, True)
    t1, _ = costs_at(10.0, 0.5, 100.0, 1.0, True)
    assert t1 > t0


def test_contact_r_partition_buffer_area():
    # Eq. 4 R-branch: len·w·δ
    _, k = costs_at(20.0, 0.3, 1000.0, 1.0, False)
    assert k == pytest.approx(20.0 * BUFFER_W * 0.3)


def test_contact_q_partition_queue_slice():
    # Eq. 4 Q-branch: (w/len)·pop
    area, pop, dist = 500.0, 100.0, 25.0
    rho, pop, dens = crowd_factors(pop, area, 1.0, True)
    _, k = passing_costs(dist, 1.2, rho, pop, dens, True)
    assert k == pytest.approx((BUFFER_W / dist) * 100.0)


def test_contact_q_short_segment_clamped():
    # a segment shorter than the buffer cannot contact more than the queue
    area, dens = 100.0, 0.5
    pop = dens * area
    _, k = costs_at(0.1, dens, area, 1.0, True)
    assert k <= pop


def test_contact_zero_density():
    assert costs_at(15.0, 0.0, 100.0, 1.0, False)[1] == 0.0
    assert costs_at(15.0, 0.0, 100.0, 1.0, True)[1] == 0.0


def test_contact_negative_density_clamped():
    assert costs_at(15.0, -1.0, 100.0, 1.0, False)[1] == 0.0
    assert costs_at(15.0, -1.0, 100.0, 1.0, True)[1] == 0.0


@given(
    dist=st.floats(0.1, 1e4),
    dens=st.floats(0.0, 10.0),
    dmax=st.floats(0.1, 10.0),
    q=st.booleans(),
)
def test_passing_time_nonnegative_finite(dist, dens, dmax, q):
    t, _ = costs_at(dist, dens, 1.0, dmax, q)
    assert t >= 0.0 and math.isfinite(t)


@given(
    dist=st.floats(0.1, 1e4),
    dens=st.floats(0.0, 10.0),
    area=st.floats(1.0, 1e5),
    q=st.booleans(),
)
def test_contact_nonnegative_finite(dist, dens, area, q):
    _, k = costs_at(dist, dens, area, 1.0, q)
    assert k >= 0.0 and math.isfinite(k)
