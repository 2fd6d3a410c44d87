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
door-coordinate Euclidean distance, computed on demand (stairways carry an
explicit walking length instead).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.timeline import Timeline, update_ticks
from repro.space.geometry import IndoorPoint, euclid


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
    hist_diff: np.ndarray | None = None  # float[W,P] — in−out per past tick
    hist_ticks: np.ndarray | None = None  # int[W] — the past ticks themselves
    speed: float = 1.2        # average moving speed s̄ (m/s)
    # --- derived adjacency (built in __post_init__) ----------------------
    out_edges: list = field(default_factory=list, repr=False)
    in_edges: list = field(default_factory=list, repr=False)
    part_periods: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        p = self.n_partitions
        self.out_edges = [np.empty(0, dtype=np.int64) for _ in range(p)]
        self.in_edges = [np.empty(0, dtype=np.int64) for _ in range(p)]
        order = np.argsort(self.e_src, kind="stable")
        for v, grp in _group_indices(self.e_src, order):
            self.out_edges[v] = grp
        order = np.argsort(self.e_dst, kind="stable")
        for v, grp in _group_indices(self.e_dst, order):
            self.in_edges[v] = grp
        self.part_periods = []
        for v in range(p):
            doors = np.union1d(
                self.e_door[self.out_edges[v]], self.e_door[self.in_edges[v]]
            )
            self.part_periods.append(np.unique(self.door_period[doors]))

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

    # -- topology helpers -------------------------------------------------
    def leaveable_doors(self, v: int) -> np.ndarray:
        """Doors of ``P2D⊐(v)``: doors through which one can leave ``v``."""
        return np.unique(self.e_door[self.out_edges[v]])

    def enterable_doors(self, v: int) -> np.ndarray:
        """Doors of ``P2D⊏(v)``: doors through which one can enter ``v``."""
        return np.unique(self.e_door[self.in_edges[v]])

    def partition_doors(self, v: int) -> np.ndarray:
        return np.union1d(self.leaveable_doors(v), self.enterable_doors(v))

    def upstream(self, v: int) -> np.ndarray:
        """Partitions with an edge into ``v`` (sources of its inflows)."""
        return np.unique(self.e_src[self.in_edges[v]])

    # -- geometry (Eq. 1) --------------------------------------------------
    def d2d(self, v: int, d_i: int, d_j: int) -> float:
        """Intra-partition walking distance from door ``d_i`` to ``d_j``."""
        if d_i == d_j:
            return 0.0
        if self.stair_len[v] > 0:
            return float(self.stair_len[v])
        return euclid(self.door_xyz[d_i], self.door_xyz[d_j])

    def point_to_door(self, p: IndoorPoint, d: int) -> float:
        """Walking distance from an indoor point to a door of its host."""
        if self.stair_len[p.partition] > 0:
            return float(self.stair_len[p.partition])
        return euclid(p.coords(), self.door_xyz[d])

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
        the paper keeps on edges, aggregated per partition, which Strategy NT
        uses to judge flow stability.
        """
        self.tick_l = int(tick_l)
        self.pop_l = np.asarray(pop_l, dtype=float).copy()
        self.hist_diff = hist_diff
        self.hist_ticks = hist_ticks

    # -- NT support --------------------------------------------------------
    def partition_update_ticks(self, v: int, lo: int, hi: int) -> np.ndarray:
        """``{t ∈ UT(v) | lo < t ≤ hi}`` — Eq. 7's skipped-update count."""
        return update_ticks(self.part_periods[v], lo, hi)


def _group_indices(keys: np.ndarray, order: np.ndarray):
    """Yield ``(key, indices)`` for each distinct key, given a sort order."""
    sorted_keys = keys[order]
    bounds = np.flatnonzero(np.diff(sorted_keys)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(sorted_keys)]))
    for s, e in zip(starts, ends):
        yield int(sorted_keys[s]), order[s:e]
