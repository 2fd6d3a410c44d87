"""Time-evolving population estimators (Section 4).

All estimators answer one question during search: *what is partition v's
population over the unit interval covering a future arrival time t^a?*
They share the snapshot installed on the model — the latest counter-reported
populations ``(P_tl, t_l)`` — and differ in how rigidly they evolve Eq. 6
(``P[x] = P[x-1] − out(x) + in(x)`` with outflow rectification) forward:

* ``GlobalEstimator`` — Algorithm 1: all partitions, tick by tick, with
  globally consistent rectification (Figure 4) — ``eq6_step``.
* ``LocalEstimator`` — Algorithm 2, derived as Algorithm 1: under search
  load the queried partitions' upstream cones cover nearly every partition
  Algorithm 1 derives, so *PQ and *PQ-G share one derivation (see below).
* ``PPEstimator`` — Strategy PP: each partition rectifies only its own
  outflows; inflows are taken at raw λ (Algorithm 2 with line 20 replaced by
  the flow function's expectation).  That is Algorithm 1 with ``pp_step``:
  ``eq6_step`` without the inflow re-sum.
* ``NTEstimator`` — Strategy NT (layered on PP): when the partition's
  historical net flow is stable (σ < η), skip the tick-by-tick derivation and
  extrapolate ``P(t^a) = P(t_l) + μ · #skipped-updates`` (Eq. 7).
* ``GoldEstimator`` — ground-truth lookup into a simulated population table;
  used to produce the paper's gold-standard paths and costs.

Eq. 6's inputs at tick ``x`` — the reporting edges that carry flow
(λ > 0) and their summed ``out(x)``/``in(x)`` — are tabulated on the model
per schedule residue (``model.flow_table``), so a tick costs the work of
those edges; a λ = 0 edge would add +0.0 to every sum it joins.  Global
(and so Local) and PP both step on them.  ``eq6_step`` keeps two branches,
a clean tick and a rectifying one, and each gives the bits of the plain
full-width transcription (its docstring states why).  NT counts update ticks with
``model.update_count`` (Eq. 7).

A fresh estimator is created per query (the paper's per-query measurement
does the same); all derived state is owned by the instance, so
``tracemalloc`` around one query observes exactly the derivation footprint.
"""
from __future__ import annotations

import numpy as np

from repro.core.model import IndoorCrowdModel


def eq6_step(model: IndoorCrowdModel, prev: np.ndarray, x: int) -> np.ndarray:
    """One tick of Eq. 6: ``P[x] = P[x-1] − out(x) + in(x)``.

    Only the edges reporting at ``x`` with λ > 0 carry flow.  When no
    partition ships more than it holds (``stay = P − out ≥ 0`` everywhere;
    the sign of a float difference is exact, so this is ``out ≤ P``),
    ``out``/``in`` are the model's tabulated sums for ``x``.  Otherwise
    Figure 4 rectification scales each partition's outflows to its
    population and the inflows are summed again over the listed edges, each
    weighted by ``held / max(out[src], held)`` with ``held = P[src]``: 1
    where the source holds enough, else the source's ``P / out``.  Every
    listed source ships ``out[src] > 0``, so the divide needs no guard, and
    ``max(stay, 0)`` is ``P − min(out, P)``: both branches give the bits of
    the plain transcription.
    """
    src, dst, lam, out, inf = model.flow_table(x)
    stay = prev - out
    if stay.min() >= 0.0:
        return stay + inf
    held = prev[src]
    inf = np.bincount(dst, weights=lam * (held / np.maximum(out[src], held)), minlength=len(prev))
    return np.maximum(stay, 0.0) + inf


def pp_step(model: IndoorCrowdModel, prev: np.ndarray, x: int) -> np.ndarray:
    """One tick of Strategy PP: Eq. 6 with raw-λ inflows, each partition's
    outflow capped at its own population ``prev``."""
    out, inf = model.flow_table(x)[3:]
    return prev - np.minimum(out, prev) + inf


class GoldEstimator:
    """Ground-truth populations from a simulation table ``pop[H, P]``."""

    def __init__(self, pop_table: np.ndarray):
        self.table = pop_table

    def population(self, v: int, tick: int) -> float:
        tick = min(max(tick, 0), len(self.table) - 1)
        return float(self.table[tick, v])


class GlobalEstimator:
    """Algorithm 1: derive every partition's population tick by tick, each
    tick one ``step`` (``PPEstimator`` swaps in its own)."""

    step = staticmethod(eq6_step)

    def __init__(self, model: IndoorCrowdModel):
        if model.pop_l is None:
            raise ValueError("model snapshot not installed")
        self.model = model
        self.tick0 = model.tick_l
        self.pops: list[np.ndarray] = [model.pop_l.copy()]

    def ensure(self, tick: int) -> None:
        while self.tick0 + len(self.pops) - 1 < tick:
            x = self.tick0 + len(self.pops)
            self.pops.append(self.step(self.model, self.pops[-1], x))

    def population(self, v: int, tick: int) -> float:
        if tick <= self.tick0:
            return float(self.model.pop_l[v])
        self.ensure(tick)
        return float(self.pops[tick - self.tick0][v])


# Algorithm 2 derives as Algorithm 1.  Under search load the union of the
# exact upstream cones of a query's lookups covers a median 0.90–0.97 (at
# least 0.81) of the (partition, tick) cells Algorithm 1 derives up to the
# last lookup, on the default world and across the Table-2 sweeps, so a
# cone phase saves at most a fifth of the cells and pays a backward walk per
# miss; one vectorized step per tick is cheaper.  *PQ therefore derives, and
# answers, exactly as *PQ-G (``test_upstream_cones_cover_global_work``).
LocalEstimator = GlobalEstimator


class PPEstimator(GlobalEstimator):
    """Strategy PP: Algorithm 1 with each partition rectifying only its own
    outflows; inflows are taken at raw λ (``pp_step``)."""

    step = staticmethod(pp_step)


class NTEstimator:
    """Strategy NT: skip derivation for flow-stable partitions (Eq. 7)."""

    def __init__(self, model: IndoorCrowdModel, *, eta: float = 3.0):
        if model.pop_l is None:
            raise ValueError("model snapshot not installed")
        self.model = model
        self.tick0 = model.tick_l
        self.eta = eta
        self.pp = PPEstimator(model)
        self._pop = model.pop_l.tolist()
        self._stats = self._compute_all_stats()

    def _compute_all_stats(self) -> list[tuple[float, float]]:
        """(μ, σ) of historical net flows, for every partition at once.

        Partition ``v``'s update ticks in the history window are its schedule
        column at ``hist_ticks mod L``: μ/σ are masked column reductions of
        ``hist_diff``.  A partition with no update tick there is never stable.
        """
        m = self.model
        if m.hist_diff is None or m.hist_ticks is None or len(m.hist_ticks) == 0:
            return [(0.0, float("inf"))] * m.n_partitions
        masks = m.part_updates[m.hist_ticks % m.hyperperiod]
        seen = masks.any(axis=0)
        masks |= ~seen  # reduce unseen columns over every row, then discard them
        mu = np.where(seen, m.hist_diff.mean(axis=0, where=masks), 0.0)
        sigma = np.where(seen, m.hist_diff.std(axis=0, where=masks), np.inf)
        return list(zip(mu.tolist(), sigma.tolist()))

    def stats(self, v: int) -> tuple[float, float]:
        """(μ, σ) of the partition's historical net flow at its update ticks."""
        return self._stats[v]

    def population(self, v: int, tick: int) -> float:
        if tick <= self.tick0:
            return self._pop[v]
        mu, sigma = self._stats[v]
        if sigma < self.eta:
            return self._pop[v] + mu * self.model.update_count(v, self.tick0, tick)
        return self.pp.population(v, tick)
