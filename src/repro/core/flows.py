"""Door flow functions (Section 3.2).

Each directed edge ``(v_i, v_j, d_k)`` carries a door flow function
``f : t ↦ P_t`` with ``P_t ~ Poisson(λ)`` (Eq. 5): the number of objects
flowing from ``v_i`` to ``v_j`` between report timestamp ``t`` and the next.
The framework only ever consumes the *expected* value ``f.λ`` (estimation)
or an actual *draw* (simulation / gold standard), so the module exposes both:
``sim.microsim`` takes its Poisson draws from ``draw_flows``, and the λ fit
is the historical-mean MLE (the paper defers trend-fitting details to [5]
and assumes an up-to-date λ at query time), which the mall computes per
edge in Spark (``dataflow.trajectory_flows.fit_edge_lambdas``).
"""
from __future__ import annotations

import numpy as np


def fit_lambda(flow_samples: np.ndarray) -> float:
    """MLE of a Poisson mean from recent per-report flow counts.

    Non-negative samples only; empty history fits λ = 0 (a never-used door).
    """
    s = np.asarray(flow_samples, dtype=float)
    if s.size == 0:
        return 0.0
    if (s < 0).any():
        raise ValueError("flow samples must be non-negative")
    return float(s.mean())


def fit_lambdas_per_edge(
    flow_sum: np.ndarray, report_count: np.ndarray
) -> np.ndarray:
    """Vectorized λ fit: total observed flow / number of report intervals."""
    cnt = np.maximum(np.asarray(report_count, dtype=float), 1.0)
    return np.asarray(flow_sum, dtype=float) / cnt


def draw_flows(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    """Actual flows for one report timestamp: independent Poisson draws."""
    return rng.poisson(np.asarray(lam, dtype=float))
