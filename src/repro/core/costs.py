"""Crowd-aware routing cost kernel (Section 2.2): the one home of Eq. 2–4.

* ``crowd_factors`` — Eq. 2, once per partition and tick: the population
  clamped at 0, the density ``δ = pop / Area`` and the lagging coefficient
  ``ρ``.  Q-crowds lag more (``1 + e^(δ/Dmax)``) than R-crowds
  (``1 + e^((δ/Dmax)²)``) for the same density ratio ``δ/Dmax ∈ [0, 1]``.
* ``passing_costs`` — Eq. 3 and Eq. 4 for one path segment through that
  partition: passing time ``T = (dist / s̄) · ρ`` and contact ``κ`` with the
  objects inside a buffer of width ``w`` (= 1 m) around the segment.
  R-partition: density × buffer area ``len·w``.  Q-partition: the slice
  ``w/len`` of the whole queue population.

Populations are time-parameterized (Definition 2): ``pop`` is a partition's
population over the unit interval covering the arrival time; callers obtain
it from a population estimator.
"""
from __future__ import annotations

import math

BUFFER_W = 1.0  # buffer width w (m); "many countries suggest ... 1m"

_EXP_CAP = 60.0  # e^60 ≈ 1e26: "effectively impassable" without overflow


def crowd_factors(pop: float, area: float, d_max: float, is_q: bool) -> tuple[float, float, float]:
    """Eq. 2 for one partition: ``(ρ, pop clamped at 0, density)``.

    ``ρ`` is always > 1 and monotone in density; Q-crowds lag more.  The
    exponent is capped: a partition packed far beyond its capacity is
    effectively impassable either way, and ``math.exp`` overflows above ~709.
    """
    if pop < 0.0:
        pop = 0.0
    dens = pop / area
    ratio = dens / d_max
    exponent = ratio if is_q else ratio * ratio
    return 1.0 + math.exp(exponent if exponent < _EXP_CAP else _EXP_CAP), pop, dens


def passing_costs(
    dist: float, speed: float, rho: float, pop: float, dens: float, is_q: bool
) -> tuple[float, float]:
    """Eq. 3 time and Eq. 4 contact of a ``dist``-long segment, given ``crowd_factors``."""
    time = (dist / speed) * rho
    if is_q:
        # The w-long slice of the queue line centred at the user: the
        # proportion w/len of all queued objects.
        return time, (BUFFER_W / max(dist, BUFFER_W)) * pop
    return time, (dist * BUFFER_W) * dens
