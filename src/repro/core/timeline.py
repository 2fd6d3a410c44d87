"""Discrete time grid for the indoor crowd model.

The paper discretizes time into *unit (update) time intervals*: every door
counter reports at a fixed period that is an integer multiple ``n ∈ {1..5}``
of the base interval ``TI`` (Table 2), and all doors' first reports are
aligned (Section 6.1.1).  We therefore keep one global grid of *ticks* of
``TI`` seconds; tick ``x`` denotes the unit interval ``[x·TI, (x+1)·TI)``.

Populations are indexed by tick: ``pop[x]`` is a partition's population over
that interval (Definition 2).  Door flows at tick ``x`` transform
``pop[x-1]`` into ``pop[x]`` (Eq. 6).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Timeline:
    """Global time grid: ``horizon`` ticks of ``ti`` seconds each."""

    ti: float
    horizon: int

    def tick(self, t_seconds: float) -> int:
        """Tick index of the unit interval covering ``t_seconds`` (clamped)."""
        x = int(t_seconds // self.ti)
        return min(max(x, 0), self.horizon - 1)


def reporting_mask(periods: np.ndarray, tick: int) -> np.ndarray:
    """Boolean mask of doors reporting at ``tick``.

    ``periods`` holds each door's report period in ticks.  Doors are aligned
    at tick 0, so door ``d`` reports exactly at multiples of ``periods[d]``.
    Tick 0 is the aligned initial report of every door.  The model
    tabulates this rule once over one hyperperiod (``IndoorCrowdModel.reports``).
    """
    return (tick % periods) == 0
