"""Time-evolving population estimators (Section 4).

All estimators answer one question during search: *what is partition v's
population over the unit interval covering a future arrival time t^a?*
They share the snapshot installed on the model — the latest counter-reported
populations ``(P_tl, t_l)`` — and differ in how rigidly they evolve Eq. 6
(``P[x] = P[x-1] − out(x) + in(x)`` with outflow rectification) forward:

* ``GlobalEstimator`` — Algorithm 1: all partitions, tick by tick, with
  globally consistent rectification (Figure 4) — ``eq6_step``, which
  ``LocalEstimator`` shares.
* ``LocalEstimator`` — Algorithm 2: only the ticks the queried partition's
  *upstream cone* (the partitions whose rectified outflows feed it within
  the derivation window) needs, each one ``eq6_step``; the cone decides
  which ticks are derived and which values are kept, not the per-tick work.
* ``PPEstimator`` — Strategy PP: each partition rectifies only its own
  outflows; inflows are taken at raw λ (Algorithm 2 with line 20 replaced by
  the flow function's expectation).  That is Algorithm 1 with ``pp_step``:
  ``eq6_step`` without the inflow re-sum.
* ``NTEstimator`` — Strategy NT (layered on PP): when the partition's
  historical net flow is stable (σ < η), skip the tick-by-tick derivation and
  extrapolate ``P(t^a) = P(t_l) + μ · #skipped-updates`` (Eq. 7).
* ``GoldEstimator`` — ground-truth lookup into a simulated population table;
  used to produce the paper's gold-standard paths and costs.

Eq. 6's inputs at tick ``x`` — the reporting edges and their summed
``out(x)``/``in(x)`` — are tabulated on the model per schedule residue
(``model.flow_table``), so a tick costs the work of its reporting edges;
Global, Local and PP all step on them.  NT counts update ticks with
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

    Only the edges reporting at ``x`` carry flow.  When no partition ships
    more than it holds, ``out``/``in`` are the model's tabulated sums for
    ``x``; otherwise Figure 4 rectification scales each partition's outflows
    to its population ``prev`` and the inflows are summed again over the
    reporting edges.
    """
    src, dst, lam, out, inf = model.flow_table(x)
    over = out > prev
    if not over.any():
        return prev - out + inf
    scale = np.divide(prev, out, out=np.ones_like(prev), where=over)
    inf = np.bincount(dst, weights=lam * scale[src], minlength=len(prev))
    return prev - np.minimum(out, prev) + inf


def pp_step(model: IndoorCrowdModel, prev: np.ndarray, x: int) -> np.ndarray:
    """One tick of Strategy PP: Eq. 6 with raw-λ inflows, each partition's
    outflow capped at its own population ``prev``."""
    out, inf = model.flow_table(x)[3:]
    return prev - np.minimum(out, prev) + inf


class GoldEstimator:
    """Ground-truth populations from a simulation table ``pop[H, P]``."""

    def __init__(self, model: IndoorCrowdModel, pop_table: np.ndarray):
        self.model = model
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


class LocalEstimator:
    """Algorithm 2: derive only the queried partition's upstream cone.

    State per derived tick: a validity mask and a population vector valid
    on the mask.  A request for ``(v, t)`` walks the cone backwards
    (``needed[x-1] = needed[x] ∪ upstream(needed[x])``, upstream read off
    the tick's reporting edges) until it reaches already-valid ticks, then
    derives forwards, keeping ``eq6_step``'s values on ``needed[x]`` only —
    Algorithm 2's memoized recursion (``F[t_c]`` caching) in vectorized
    form.  Each derived tick costs one full-width step, as in Algorithm 1:
    the cone saves ticks, not work within a tick.

    Under search load the queried partitions blanket the graph and the union
    of cones converges to the full vertex set; once the request count shows
    that regime (> ``_DENSE_AFTER`` cone derivations), the estimator switches
    to dense shared derivation — equivalent values, amortized cost.  This
    mirrors the paper's observation that *PQ and *PQ-G cost the same at the
    default setting while the cone still pays off for sparse queries.
    """

    _DENSE_AFTER = 8

    def __init__(self, model: IndoorCrowdModel):
        if model.pop_l is None:
            raise ValueError("model snapshot not installed")
        self.model = model
        self.tick0 = model.tick_l
        P = model.n_partitions
        self.valid: dict[int, np.ndarray] = {self.tick0: np.ones(P, dtype=bool)}
        self.pops: dict[int, np.ndarray] = {self.tick0: model.pop_l.copy()}
        self._misses = 0
        self._dense: GlobalEstimator | None = None

    def _derive(self, v: int, tick: int) -> None:
        m = self.model
        P = m.n_partitions
        # backward cone construction
        needed: dict[int, np.ndarray] = {}
        mask = np.zeros(P, dtype=bool)
        mask[v] = True
        x = tick
        while x > self.tick0:
            have = self.valid.get(x)
            if have is not None:
                mask = mask & ~have
            if not mask.any():
                break
            # Once the cone covers a sizeable share of the graph, the extra
            # work of deriving the remainder is one masked vector op — batch
            # to the full vertex set (Algorithm 2's memoized F[t] arrays make
            # those derivations reusable anyway).
            if mask.sum() * 3 > P:
                mask = np.ones(P, dtype=bool)
                if have is not None:
                    mask &= ~have
            needed[x] = mask
            # upstream closure: sources of reporting in-edges of the mask
            src, dst = m.flow_table(x)[:2]
            mask = mask.copy()
            mask[src[mask[dst]]] = True
            x -= 1
        # forward derivation: the Eq. 6 step is exact on ``todo`` because
        # ``pops[x - 1]`` is valid on ``todo`` and on the sources feeding it
        for x in sorted(needed):
            todo = needed[x]
            prev_pop = self.pops[x - 1]
            new = eq6_step(m, prev_pop, x)
            if x in self.pops:
                self.pops[x] = np.where(todo, new, self.pops[x])
                self.valid[x] = self.valid[x] | todo
            else:
                self.pops[x] = np.where(todo, new, prev_pop)
                self.valid[x] = todo.copy()

    def population(self, v: int, tick: int) -> float:
        if tick <= self.tick0:
            return float(self.model.pop_l[v])
        if self._dense is not None:
            return self._dense.population(v, tick)
        have = self.valid.get(tick)
        if have is None or not have[v]:
            self._misses += 1
            if self._misses > self._DENSE_AFTER:
                self._dense = GlobalEstimator(self.model)
                self.valid.clear()
                self.pops.clear()
                return self._dense.population(v, tick)
            self._derive(v, tick)
        return float(self.pops[tick][v])


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
