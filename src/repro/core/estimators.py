"""Time-evolving population estimators (Section 4).

All estimators answer one question during search: *what is partition v's
population over the unit interval covering a future arrival time t^a?*
They share the snapshot installed on the model — the latest counter-reported
populations ``(P_tl, t_l)`` — and differ in how rigidly they evolve Eq. 6
(``P[x] = P[x-1] − out(x) + in(x)`` with outflow rectification) forward:

* ``GlobalEstimator`` — Algorithm 1: all partitions, tick by tick, with
  globally consistent rectification (Figure 4) — ``rectified_step``, which
  ``LocalEstimator`` applies to its masked flows as well.
* ``LocalEstimator`` — Algorithm 2: only the queried partition and its
  *upstream cone* (the partitions whose rectified outflows feed it within
  the derivation window); per-tick work is proportional to the cone's edges.
* ``PPEstimator`` — Strategy PP: rectify only the queried partition's own
  outflows; inflows are taken at raw λ (Algorithm 2 with line 20 replaced by
  the flow function's expectation).
* ``NTEstimator`` — Strategy NT (layered on PP): when the partition's
  historical net flow is stable (σ < η), skip the tick-by-tick derivation and
  extrapolate ``P(t^a) = P(t_l) + μ · #skipped-updates`` (Eq. 7).
* ``GoldEstimator`` — ground-truth lookup into a simulated population table;
  used to produce the paper's gold-standard paths and costs.

Which edges report at tick ``x`` (Eq. 6's ``out(x)``/``in(x)``) and how many
update ticks a partition has (Eq. 7) are read off the model's reporting
schedule: ``model.reports(x)``, its rows ``model.edge_reports`` and
``model.update_count``.

A fresh estimator is created per query (the paper's per-query measurement
does the same); all derived state is owned by the instance, so
``tracemalloc`` around one query observes exactly the derivation footprint.
"""
from __future__ import annotations

import numpy as np

from repro.core.model import IndoorCrowdModel


def rectified_step(
    model: IndoorCrowdModel, prev: np.ndarray, flow: np.ndarray
) -> np.ndarray:
    """One tick of Eq. 6: ``P[x] = P[x-1] − out(x) + in(x)``.

    ``flow`` is each directed edge's expected flow at tick ``x`` (0 where
    its door does not report).  Figure 4 rectification scales a partition's
    outflows so they never exceed its population ``prev``.
    """
    m = model
    out = np.bincount(m.e_src, weights=flow, minlength=m.n_partitions)
    scale = np.divide(prev, out, out=np.ones_like(prev), where=out > prev)
    flow = flow * scale[m.e_src]
    out = np.minimum(out, prev)
    inf = np.bincount(m.e_dst, weights=flow, minlength=m.n_partitions)
    return prev - out + inf


class GoldEstimator:
    """Ground-truth populations from a simulation table ``pop[H, P]``."""

    def __init__(self, model: IndoorCrowdModel, pop_table: np.ndarray):
        self.model = model
        self.table = pop_table

    def population(self, v: int, tick: int) -> float:
        tick = min(max(tick, 0), len(self.table) - 1)
        return float(self.table[tick, v])


class GlobalEstimator:
    """Algorithm 1: derive every partition's population tick by tick."""

    def __init__(self, model: IndoorCrowdModel):
        if model.pop_l is None:
            raise ValueError("model snapshot not installed")
        self.model = model
        self.tick0 = model.tick_l
        self.pops: list[np.ndarray] = [model.pop_l.copy()]

    def _step(self, x: int) -> None:
        m = self.model
        flow = np.where(m.reports(x), m.e_lam, 0.0)
        self.pops.append(rectified_step(m, self.pops[-1], flow))

    def ensure(self, tick: int) -> None:
        while self.tick0 + len(self.pops) - 1 < tick:
            self._step(self.tick0 + len(self.pops))

    def population(self, v: int, tick: int) -> float:
        if tick <= self.tick0:
            return float(self.model.pop_l[v])
        self.ensure(tick)
        return float(self.pops[tick - self.tick0][v])


class LocalEstimator:
    """Algorithm 2: derive only the queried partition's upstream cone.

    State per derived tick: a validity mask and a population vector defined
    on the cone.  A request for ``(v, t)`` walks the cone backwards
    (``needed[x-1] = needed[x] ∪ upstream(needed[x])``) until it reaches
    already-valid ticks, then derives forwards; per-tick work touches only
    edges incident to the cone — Algorithm 2's memoized recursion
    (``F[t_c]`` caching) in vectorized form.

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
            rep = m.reports(x)
            feeds = rep & mask[m.e_dst]
            prev = mask.copy()
            prev[m.e_src[feeds]] = True
            mask = prev
            x -= 1
        # forward derivation over the cone
        for x in sorted(needed):
            todo = needed[x]
            prev_pop = self.pops[x - 1]
            rep = m.reports(x)
            # edges relevant at x: outflows of every partition whose pop or
            # rectification scale is needed (todo ∪ upstream(todo))
            src_needed = todo.copy()
            src_needed[m.e_src[rep & todo[m.e_dst]]] = True
            act = rep & src_needed[m.e_src]
            new = rectified_step(m, prev_pop, np.where(act, m.e_lam, 0.0))
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


class PPEstimator:
    """Strategy PP: per-partition derivation with raw-λ inflows.

    The common case — the partition's population never dips below its
    expected outflow — is fully vectorized (a cumulative sum); the rare
    rectifying case falls back to a sequential scan.
    """

    def __init__(self, model: IndoorCrowdModel):
        if model.pop_l is None:
            raise ValueError("model snapshot not installed")
        self.model = model
        self.tick0 = model.tick_l
        self._series: dict[int, np.ndarray] = {}  # v -> pops for ticks tick0+1..

    def _derive(self, v: int, tick: int) -> np.ndarray:
        m = self.model
        # expected out/in flow per schedule row, then laid over the ticks
        outs, ins = m.out_edges[v], m.in_edges[v]
        out_row = m.edge_reports[:, outs] @ m.e_lam[outs]
        in_row = m.edge_reports[:, ins] @ m.e_lam[ins]
        rows = np.arange(self.tick0 + 1, tick + 1) % m.hyperperiod
        out_exp, in_exp = out_row[rows], in_row[rows]
        p0 = float(m.pop_l[v])
        traj = p0 + np.cumsum(in_exp - out_exp)
        prev = np.concatenate(([p0], traj[:-1]))
        bad = prev < out_exp
        if not bad.any():
            return traj
        # Rectifying scan (outflow capped at the current population) — only
        # from the first tick where the unrectified trajectory would ship
        # more than it holds; everything before is exact.
        i0 = int(np.argmax(bad))
        pops = traj
        cur = float(prev[i0])
        oe = out_exp[i0:].tolist()
        ie = in_exp[i0:].tolist()
        for j, (o, i_) in enumerate(zip(oe, ie)):
            cur = cur - (o if o < cur else cur) + i_
            pops[i0 + j] = cur
        return pops

    def population(self, v: int, tick: int) -> float:
        if tick <= self.tick0:
            return float(self.model.pop_l[v])
        series = self._series.get(v)
        if series is None or len(series) < tick - self.tick0:
            # derive with generous headroom so repeated visits at growing
            # arrival times don't re-derive the prefix each time — the
            # per-tick marginal cost is two vector adds, re-deriving is the
            # expensive part
            series = self._derive(v, tick + 256)
            self._series[v] = series
        return float(series[tick - self.tick0 - 1])


class NTEstimator:
    """Strategy NT: skip derivation for flow-stable partitions (Eq. 7)."""

    def __init__(self, model: IndoorCrowdModel, *, eta: float = 3.0):
        if model.pop_l is None:
            raise ValueError("model snapshot not installed")
        self.model = model
        self.tick0 = model.tick_l
        self.eta = eta
        self.pp = PPEstimator(model)
        self._stats: dict[int, tuple[float, float]] = {}

    def _compute_all_stats(self) -> None:
        """Vectorized (μ, σ) of historical net flows, for every partition.

        A partition's update ticks in the history window are its schedule
        column at ``hist_ticks mod L``; partitions sharing that column share
        one masked column-wise mean/std.
        """
        m = self.model
        P = m.n_partitions
        if m.hist_diff is None or m.hist_ticks is None or len(m.hist_ticks) == 0:
            for v in range(P):
                self._stats[v] = (0.0, float("inf"))
            return
        masks = m.part_updates[m.hist_ticks % m.hyperperiod]
        groups: dict[bytes, list[int]] = {}
        for v in range(P):
            groups.setdefault(masks[:, v].tobytes(), []).append(v)
        for vs in groups.values():
            mask = masks[:, vs[0]]
            if not mask.any():
                for v in vs:
                    self._stats[v] = (0.0, float("inf"))
                continue
            sub = m.hist_diff[np.ix_(mask, vs)]
            mus = sub.mean(axis=0)
            sigmas = sub.std(axis=0)
            for i, v in enumerate(vs):
                self._stats[v] = (float(mus[i]), float(sigmas[i]))

    def stats(self, v: int) -> tuple[float, float]:
        """(μ, σ) of the partition's historical net flow at its update ticks."""
        if not self._stats:
            self._compute_all_stats()
        return self._stats[v]

    def population(self, v: int, tick: int) -> float:
        if tick <= self.tick0:
            return float(self.model.pop_l[v])
        mu, sigma = self.stats(v)
        if sigma < self.eta:
            k = self.model.update_count(v, self.tick0, tick)
            return float(self.model.pop_l[v]) + mu * k
        return self.pp.population(v, tick)
