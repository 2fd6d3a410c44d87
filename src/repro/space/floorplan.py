"""Synthetic multi-floor indoor space generator (Section 6.1.1).

The paper decomposes a real floorplan into 141 partitions and 216 doors per
1368 m × 1368 m floor, duplicates it 3/5/7/9 times, connects adjacent floors
with four 20 m stairways, and marks 14 two-door partitions per floor as
Q-partitions.  We reproduce the same statistics with a seeded generator:

* each floor is a ``g×g`` grid of convex cells; the trailing cells beyond the
  requested partition count are dropped (the remaining region stays
  connected);
* a random spanning tree of the cell-adjacency graph guarantees connectivity;
  further doors are sampled from the remaining shared walls until the floor
  reaches its door budget;
* every door is bidirectional (two directed edges), matching the paper's
  comparative setting ("we assume all doors are bidirectional"); a
  ``one_way_frac`` knob exists for directionality tests;
* stairways are extra partitions (fixed 20 m walking length) with one door to
  the same grid cell on each of the two floors they connect;
* door report periods are ``n·TI`` with ``n ∈ {1..5}`` per door; flow-function
  means are ``λ ~ U(0, λ_max)`` per directed edge (Table 2 footnote: λ up to
  3); initial populations are ``U(0, |o|)`` per partition, capped by the fire
  capacity ``Area·β`` with β = 1 obj/m².
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.model import IndoorCrowdModel
from repro.core.timeline import Timeline

FLOOR_HEIGHT = 5.0  # m between floors
STAIR_LEN = 20.0    # m walked through a stairway (the paper's 20 m stairways)
STAIR_AREA = 30.0   # m², a stairway partition's area
BETA = 1.0          # fire capacity in objects per m² (cap = Area·β)


@dataclass
class BuiltSpace:
    """A generated space: the crowd model plus workload-facing metadata."""

    model: IndoorCrowdModel
    pop0: np.ndarray        # int[P] — initial (t=0) population per partition
    part_floor: np.ndarray  # int[P] — floor of each partition (stairs: lower)
    part_rect: np.ndarray   # float[P,4] — (xmin, ymin, xmax, ymax)
    part_z: np.ndarray      # float[P]
    n_floors: int

    def random_point(self, rng: np.random.Generator, v: int) -> tuple[float, float, float]:
        """A uniform random point inside partition ``v`` (for p_s / p_t)."""
        x0, y0, x1, y1 = self.part_rect[v]
        return (
            float(rng.uniform(x0, x1)),
            float(rng.uniform(y0, y1)),
            float(self.part_z[v]),
        )


def build_space(
    *,
    floors: int,
    parts_per_floor: Sequence[int],
    doors_per_floor: Sequence[int],
    stairs_per_gap: Sequence[int],
    floor_w: float = 1368.0,
    floor_h: float = 1368.0,
    q_per_floor: int = 14,
    obj_max: int = 600,
    lam_max: float = 3.0,
    ti: float = 10.0,
    horizon_ticks: int = 620,
    period_max: int = 5,
    one_way_frac: float = 0.0,
    seed: int = 7,
) -> BuiltSpace:
    """Build an indoor space with exactly the requested per-floor counts.

    ``doors_per_floor`` must be at least the spanning-tree size
    (``parts-1``) and at most the number of shared walls of the kept region.
    Stairway partitions/doors are *additional* to the per-floor counts, as in
    the paper.
    """
    if not (len(parts_per_floor) == len(doors_per_floor) == floors):
        raise ValueError("per-floor count lists must have length == floors")
    if floors > 1 and len(stairs_per_gap) != floors - 1:
        raise ValueError("stairs_per_gap must have length floors-1")
    rng = np.random.default_rng(seed)

    areas: list[float] = []
    is_q: list[bool] = []
    stair: list[float] = []
    part_floor: list[int] = []
    part_rect: list[tuple[float, float, float, float]] = []
    part_z: list[float] = []
    door_xyz: list[tuple[float, float, float]] = []
    e_src: list[int] = []
    e_dst: list[int] = []
    e_door: list[int] = []

    # cell_pid[f][(r, c)] -> global partition id, for stair attachment
    cell_pid: list[dict[tuple[int, int], int]] = []

    for f in range(floors):
        n_parts = parts_per_floor[f]
        n_doors = doors_per_floor[f]
        g = math.ceil(math.sqrt(n_parts))
        cw, ch = floor_w / g, floor_h / g
        z = f * FLOOR_HEIGHT
        kept = [(i // g, i % g) for i in range(n_parts)]  # row-major prefix
        pid = {}
        for (r, c) in kept:
            pid[(r, c)] = len(areas)
            areas.append(cw * ch)
            is_q.append(False)
            stair.append(0.0)
            part_floor.append(f)
            part_rect.append((c * cw, r * ch, (c + 1) * cw, (r + 1) * ch))
            part_z.append(z)
        cell_pid.append(pid)

        # candidate walls between kept cells, with the door midpoint
        cands = []
        for (r, c) in kept:
            if (r, c + 1) in pid:
                cands.append(((r, c), (r, c + 1), ((c + 1) * cw, (r + 0.5) * ch)))
            if (r + 1, c) in pid:
                cands.append(((r, c), (r + 1, c), ((c + 0.5) * cw, (r + 1) * ch)))
        if n_doors < n_parts - 1 or n_doors > len(cands):
            raise ValueError(
                f"floor {f}: door budget {n_doors} outside "
                f"[{n_parts - 1}, {len(cands)}]"
            )
        order = rng.permutation(len(cands))
        parent = list(range(n_parts))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        chosen, extra_pool = [], []
        local = {cell: i for i, cell in enumerate(kept)}
        for idx in order:
            a, b, _ = cands[idx]
            ra, rb = find(local[a]), find(local[b])
            if ra != rb:
                parent[ra] = rb
                chosen.append(idx)
            else:
                extra_pool.append(idx)
        chosen.extend(extra_pool[: n_doors - len(chosen)])

        for k, idx in enumerate(chosen):
            a, b, (dx, dy) = cands[idx]
            d = len(door_xyz)
            door_xyz.append((dx, dy, z))
            va, vb = pid[a], pid[b]
            one_way = k >= n_parts - 1 and rng.random() < one_way_frac
            e_src.append(va), e_dst.append(vb), e_door.append(d)
            if not one_way:
                e_src.append(vb), e_dst.append(va), e_door.append(d)

        # Q-partitions: among two-door partitions of this floor (counted on
        # this floor's own doors; stair doors are attached later, which may
        # raise a few of these to three doors — the paper's counts are
        # per-floor before stair attachment too).
        deg = np.zeros(n_parts, dtype=int)
        for idx in chosen:
            a, b, _ = cands[idx]
            deg[local[a]] += 1
            deg[local[b]] += 1
        two_door = [kept[i] for i in range(n_parts) if deg[i] == 2]
        rng.shuffle(two_door)
        for cell in two_door[:q_per_floor]:
            is_q[pid[cell]] = True

    # stairways
    for f in range(floors - 1):
        g_lo = math.ceil(math.sqrt(parts_per_floor[f]))
        pid_lo, pid_hi = cell_pid[f], cell_pid[f + 1]
        shared = [c for c in pid_lo if c in pid_hi]
        # spread stair cells across the floor deterministically
        step = max(1, len(shared) // max(1, stairs_per_gap[f]))
        cells = [shared[(i * step) % len(shared)] for i in range(stairs_per_gap[f])]
        for (r, c) in cells:
            sv = len(areas)
            cw, ch = floor_w / g_lo, floor_h / g_lo
            cx, cy = (c + 0.5) * cw, (r + 0.5) * ch
            areas.append(STAIR_AREA)
            is_q.append(False)
            stair.append(STAIR_LEN)
            part_floor.append(f)
            part_rect.append((cx - 2, cy - 2, cx + 2, cy + 2))
            part_z.append(f * FLOOR_HEIGHT + FLOOR_HEIGHT / 2)
            d_lo, d_hi = len(door_xyz), len(door_xyz) + 1
            door_xyz.append((cx, cy, f * FLOOR_HEIGHT))
            door_xyz.append((cx, cy, (f + 1) * FLOOR_HEIGHT))
            for a, b, d in (
                (pid_lo[(r, c)], sv, d_lo),
                (sv, pid_lo[(r, c)], d_lo),
                (sv, pid_hi[(r, c)], d_hi),
                (pid_hi[(r, c)], sv, d_hi),
            ):
                e_src.append(a), e_dst.append(b), e_door.append(d)

    n_doors_total = len(door_xyz)
    area_arr = np.asarray(areas)
    cap = area_arr * BETA
    # Door-flow means.  Both directions of a door share one λ, so every
    # partition's expected inflow equals its expected outflow — populations
    # hold their (heterogeneous) initial levels in expectation instead of
    # draining/overfilling linearly.  This matches the paper's evaluation
    # regime, where the gold simulation tracks the expected dynamics to ~1e-8
    # and Strategy PP is as accurate as the exact searches (rectification is
    # the exception, not the rule).  Independent λ per direction would give
    # every partition a linear drift under which PP's raw-λ inflows diverge
    # and "PP is as accurate as exact" is unreproducible (DESIGN §5).
    e_door_arr = np.asarray(e_door, dtype=np.int64)
    e_lam = rng.uniform(0.0, lam_max, n_doors_total)[e_door_arr]
    model = IndoorCrowdModel(
        timeline=Timeline(ti=ti, horizon=horizon_ticks),
        area=area_arr,
        is_q=np.asarray(is_q, dtype=bool),
        cap=cap,
        stair_len=np.asarray(stair),
        door_xyz=np.asarray(door_xyz, dtype=float),
        door_period=rng.integers(1, period_max + 1, n_doors_total),
        e_src=np.asarray(e_src, dtype=np.int64),
        e_dst=np.asarray(e_dst, dtype=np.int64),
        e_door=e_door_arr,
        e_lam=e_lam,
    )
    pop0 = np.minimum(
        rng.integers(0, obj_max + 1, model.n_partitions), cap.astype(np.int64)
    )
    return BuiltSpace(
        model=model,
        pop0=pop0,
        part_floor=np.asarray(part_floor),
        part_rect=np.asarray(part_rect),
        part_z=np.asarray(part_z),
        n_floors=floors,
    )


def synthetic_space(
    *,
    floors: int = 5,
    obj_max: int = 600,
    ti: float = 10.0,
    horizon_ticks: int | None = None,
    seed: int = 7,
    parts_per_floor: int = 141,
    doors_per_floor: int = 216,
    **kwargs,
) -> BuiltSpace:
    """The paper's synthetic world: Table 2 defaults in bold."""
    if horizon_ticks is None:
        horizon_ticks = int(6200 / ti)  # covers t_q + the longest path
    return build_space(
        floors=floors,
        parts_per_floor=[parts_per_floor] * floors,
        doors_per_floor=[doors_per_floor] * floors,
        stairs_per_gap=[4] * max(0, floors - 1),
        obj_max=obj_max,
        ti=ti,
        horizon_ticks=horizon_ticks,
        seed=seed,
        **kwargs,
    )
