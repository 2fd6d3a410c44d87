"""The indoor crowd model (Section 3).

A directed labeled graph ``G(V, E, L_V, L_E)``:

* vertices = indoor partitions, labeled ``[v, Area(v), M_d2d, τ, (P_tl, tl)]``
  — area, intra-partition door-to-door distances, crowd type (Q or R) and the
  latest known absolute population;
* edges = ``(v_i, v_j, d_k)`` meaning one can reach ``v_j`` from ``v_i``
  through door ``d_k``, labeled with a door flow function (its Poisson mean
  ``λ``, Eq. 5) and a local array of recent actual flows ``F[t]``.

Representation: flat NumPy arrays over partition / door / directed-edge
indices — compact and picklable (for Spark broadcast).  ``M_d2d`` is not
materialized as per-vertex matrices: partitions are convex so it is the
door-coordinate Euclidean distance (stairways carry an explicit walking
length instead), and Eq. 1 is written once, in ``repro.core.search._leg``.

The door-reporting schedule (Section 6.1.1) is tabulated here once: doors
report at aligned periods ``n ∈ {1..5}`` ticks, so the pattern repeats every
``L = lcm(periods)`` ticks (at most 60).  Eq. 6's reporting edges at tick
``x`` are row ``x mod L`` of ``edge_reports``; Eq. 7's update counts are read
from per-partition prefix sums over one hyperperiod.  Eq. 6's λ-dependent
inputs are tabulated per residue too (``flow_table``), once for every
estimator that steps Eq. 6 (Global, which Local aliases, and PP): they are
rebuilt whenever λ is installed, by ``__post_init__`` or ``set_lambdas``.
They list only the reporting edges that carry flow (λ > 0): on the mall
1,784 of 3,226 edges have λ = 0, and a zero weight changes no bit of a sum.

The snapshot keeps Strategy NT's reduction of the flow arrays ``F[t]``,
not ``F[t]`` itself: NT is their only reader, and its per-partition
``(μ, σ)`` depend on the snapshot alone, so ``set_snapshot`` reduces the
history once, beside the schedule rows that mask it (``flow_stats``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.timeline import Timeline, reporting_mask


@dataclass
class IndoorCrowdModel:
    """The crowd-aware graph plus its query-time snapshot labels."""

    timeline: Timeline
    # --- vertex labels (one entry per partition) -------------------------
    area: np.ndarray          # float[P] — Area(v)
    is_q: np.ndarray          # bool[P]  — τ == Q
    cap: np.ndarray           # float[P] — max capacity (Area·β)
    stair_len: np.ndarray     # float[P] — walking length if stairway else 0
    # --- doors ----------------------------------------------------------
    door_xyz: np.ndarray      # float[D,3]
    door_period: np.ndarray   # int[D] — report period in ticks (n_d)
    # --- directed edges (v_i --d_k--> v_j) -------------------------------
    e_src: np.ndarray         # int[M]
    e_dst: np.ndarray         # int[M]
    e_door: np.ndarray        # int[M]
    e_lam: np.ndarray         # float[M] — door flow function mean λ
    # --- snapshot: latest counter-reported state (set via set_snapshot) --
    tick_l: int = 0           # latest update tick t_l
    pop_l: np.ndarray | None = None      # float[P] — P_tl
    flow_stats: list = field(default_factory=list, repr=False)  # [P] (μ, σ) of F[t], for NT
    speed: float = 1.2        # average moving speed s̄ (m/s)
    # --- derived adjacency (built in __post_init__) ----------------------
    out_edges: list = field(default_factory=list, repr=False)
    in_edges: list = field(default_factory=list, repr=False)
    part_doors: list = field(default_factory=list, repr=False)
    # --- reporting schedule over one hyperperiod (built in __post_init__) --
    hyperperiod: int = field(default=1, repr=False)  # L = lcm(door periods)
    edge_reports: np.ndarray | None = field(default=None, repr=False)   # bool[L,M]
    part_updates: np.ndarray | None = field(default=None, repr=False)   # bool[L,P]
    update_prefix: list = field(default_factory=list, repr=False)  # [P][L+1] ints
    # --- Eq. 6 inputs per residue, from λ (built in set_lambdas) ---------
    flow_tables: list = field(default_factory=list, repr=False)  # [L] (src, dst, λ, out, in), λ > 0
    # --- objects other modules derive from the topology, keyed by module --
    derived: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not np.all((self.door_period >= 1) & (self.door_period <= 5)):
            raise ValueError("door report periods must lie in 1..5 ticks")
        self.derived = {}
        p = self.n_partitions

        def edges_by(keys: np.ndarray) -> list[np.ndarray]:
            """Edge ids per partition, ascending: a stable sort split at each key."""
            order = np.argsort(keys, kind="stable")
            return np.split(order, np.searchsorted(keys[order], np.arange(1, p)))

        self.out_edges, self.in_edges = edges_by(self.e_src), edges_by(self.e_dst)
        # D_v: doors one can leave or enter v through (P2D⊐(v) ∪ P2D⊏(v))
        self.part_doors = [
            np.union1d(self.e_door[self.out_edges[v]], self.e_door[self.in_edges[v]])
            for v in range(p)
        ]
        # UT(v): the ticks at which some door of v reports, i.e. some edge
        # leaving or entering v does; update_prefix[v][r] counts them over
        # 1..r (Python ints: Eq. 7 reads two of them per NT lookup).
        L = self.hyperperiod = math.lcm(*(int(n) for n in np.unique(self.door_period)))
        edge_periods = self.door_period[self.e_door]
        self.edge_reports = np.array([reporting_mask(edge_periods, r) for r in range(L)])
        rows, cols = np.nonzero(self.edge_reports)
        self.part_updates = np.zeros((L, p), dtype=bool)
        self.part_updates[rows, self.e_src[cols]] = True
        self.part_updates[rows, self.e_dst[cols]] = True
        prefix = np.zeros((L + 1, p), dtype=np.int64)
        prefix[1:] = np.cumsum(self.part_updates[np.arange(1, L + 1) % L], axis=0)
        self.update_prefix = prefix.T.tolist()
        self.set_lambdas(self.e_lam)

    def set_lambdas(self, e_lam: np.ndarray) -> None:
        """Install the edges' flow means λ and tabulate Eq. 6's inputs from them.

        ``flow_tables[r]``: ``src``, ``dst`` and ``λ`` of residue ``r``'s
        reporting edges that carry flow (λ > 0), in edge order, and their
        per-partition sums ``out``/``in`` — the ``bincount``s of Eq. 6 when
        nothing rectifies, and Strategy PP's raw-λ flows on every tick.  A
        λ = 0 edge would add +0.0 to sums that start at +0.0, so leaving it
        out changes no bit of ``out``, ``in`` or a rectified inflow; it also
        makes every listed edge's source ship ``out[src] > 0``, which
        ``eq6_step`` divides by.  ``edge_reports`` keeps every reporting
        edge: NT's update ticks and ``simulate`` count doors whose λ is 0.

        λ is a Poisson mean: a negative or non-finite one raises ``ValueError``.
        """
        e_lam = np.asarray(e_lam, dtype=float)
        if not np.all(np.isfinite(e_lam) & (e_lam >= 0.0)):
            raise ValueError("edge flow means λ must be finite and >= 0")
        self.e_lam = e_lam
        p = self.n_partitions
        self.flow_tables = []
        for rep in self.edge_reports & (e_lam > 0.0):
            src, dst, lam = self.e_src[rep], self.e_dst[rep], e_lam[rep]
            out = np.bincount(src, weights=lam, minlength=p)
            inf = np.bincount(dst, weights=lam, minlength=p)
            self.flow_tables.append((src, dst, lam, out, inf))

    # -- sizes -----------------------------------------------------------
    @property
    def n_partitions(self) -> int:
        return len(self.area)

    @property
    def n_doors(self) -> int:
        return len(self.door_period)

    @property
    def n_edges(self) -> int:
        return len(self.e_src)

    # -- reporting schedule (Eq. 6, Eq. 7) -----------------------------------
    def reports(self, x: int) -> np.ndarray:
        """Mask of the edges whose door reports at tick ``x``."""
        return self.edge_reports[x % self.hyperperiod]

    def flow_table(self, x: int) -> tuple:
        """Eq. 6's inputs at tick ``x``: ``(src, dst, λ, out, in)`` of its reporting edges with λ > 0."""
        return self.flow_tables[x % self.hyperperiod]

    def update_count(self, v: int, lo: int, hi: int) -> int:
        """``|UT(v) ∩ (lo, hi]|``: ticks in ``(lo, hi]`` some door of ``v`` reports at."""
        L, pre = self.hyperperiod, self.update_prefix[v]
        return (hi // L - lo // L) * pre[L] + pre[hi % L] - pre[lo % L]

    # -- snapshot ----------------------------------------------------------
    def set_snapshot(
        self,
        tick_l: int,
        pop_l: np.ndarray,
        hist_diff: np.ndarray | None = None,
        hist_ticks: np.ndarray | None = None,
    ) -> None:
        """Install the latest counter-reported state ``(P_tl, t_l)``.

        ``hist_diff[w, v]`` is partition ``v``'s actual net flow (inflow −
        outflow) at past tick ``hist_ticks[w]`` — the local arrays ``F[t]``
        the paper keeps on edges, aggregated per partition.  The model keeps
        only Strategy NT's reduction of them: ``flow_stats[v]``, the
        ``(μ, σ)`` of ``v``'s net flow at its update ticks in the window,
        i.e. its schedule column at ``hist_ticks mod L``.  These are masked
        column reductions of ``hist_diff``.  A partition with no update tick
        there (or no history at all) reads ``(0.0, inf)``: never stable.
        """
        self.tick_l = int(tick_l)
        self.pop_l = np.asarray(pop_l, dtype=float).copy()
        if hist_diff is None or hist_ticks is None or len(hist_ticks) == 0:
            self.flow_stats = [(0.0, math.inf)] * self.n_partitions
            return
        masks = self.part_updates[hist_ticks % self.hyperperiod]
        seen = masks.any(axis=0)
        masks |= ~seen  # reduce unseen columns over every row, then discard them
        mu = np.where(seen, hist_diff.mean(axis=0, where=masks), 0.0)
        sigma = np.where(seen, hist_diff.std(axis=0, where=masks), np.inf)
        self.flow_stats = list(zip(mu.tolist(), sigma.tolist()))
