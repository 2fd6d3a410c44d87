"""PySpark reproduction of "Towards Crowd-aware Indoor Path Planning"
(Liu, Li, Lu, Cheema, Shou — PVLDB 14(8), 2021).

Subpackages:

* :mod:`repro.core` — the paper's contribution: indoor crowd model,
  routing costs (Eq. 1–4), the four population estimators
  (Algorithms 1–2 plus Strategies PP and NT), the unified FPQ/LCPQ search
  (Algorithms 3–4), and the adaptive baseline.
* :mod:`repro.space` — indoor-space substrates: the synthetic multi-floor
  world of Section 6.1 and the simulated mall replacing the proprietary
  real dataset of Section 6.2, plus s2t-controlled query workloads.
* :mod:`repro.gtg` — the general time-dependent graph baseline.
* :mod:`repro.sim` — object-level microsimulation (gold standard).
* :mod:`repro.dataflow` — the PySpark layer: distributed query batches and
  probabilistic trajectory→door-flow counting.
* :mod:`repro.experiments` — Table 2 parameters, measurement harness and
  Table 3/4 renderers.
"""
