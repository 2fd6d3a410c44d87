"""Simulated stand-in for the paper's real dataset (Section 6.2).

The paper's real data — a seven-floor 2700 m × 2000 m shopping mall in
Hangzhou with 977 partitions, 1613 doors and 10 staircases, plus 1,598 object
trajectories (>90k positioning records) from 2017-01-05 — is proprietary.
Per the reproduction rules we substitute a seeded synthetic equivalent that
exercises the *identical* code path:

1. a mall topology with exactly 977 partitions / 1613 doors / 10 stairways
   over 7 floors (10 staircases spread over the 6 floor gaps);
2. a continuous-time random-walk simulator producing 1,598 trajectories of
   10 s positioning fixes (~90k records), with fixes dropped so that ~12% of
   consecutive fixes are not topologically connected (the paper's gap rate);
3. door flows recovered from those *sparse, gappy* fixes with the paper's
   probabilistic sub-path method (Spark job in
   ``repro.dataflow.trajectory_flows``), sampled every 10 s;
4. Poisson λ fitted per directed edge from the sampled flows (duty-cycle +
   device-penetration corrected, symmetrized per door);
5. gold-standard populations from an integer microsimulation under the
   fitted flows (``repro.experiments.world.build_mall_world``) — as in the
   paper, real-data accuracy is judged against simulated trajectories of
   the constructed crowd model.

All doors report every 10 s (period 1) — the mall's flows are *sampled*
every 10 s, unlike the synthetic world's per-door 1–5×TI counters.  The mall
has no Q-partitions (paper footnote 7).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.space.floorplan import BuiltSpace, build_space

MALL_FLOORS = 7
MALL_PARTITIONS = 977
MALL_DOORS = 1613
MALL_STAIRS = 10

# Random-walk stays (s): walking through with probability WALK_PROB, else shopping.
WALK_DWELL = 6.0
SHOP_DWELL = 300.0
WALK_PROB = 0.92
# Positioning dropouts: independent per-fix losses, and signal-loss bursts
# that start with BURST_PROB per fix and last BURST_FIXES fixes.
DROP_PROB = 0.2
BURST_PROB = 0.14
BURST_FIXES = 10


def mall_space(*, ti: float = 10.0, horizon_ticks: int = 900, seed: int = 11) -> BuiltSpace:
    """The mall topology: exact paper counts (977 / 1613 / 10 stairs)."""
    room_parts = MALL_PARTITIONS - MALL_STAIRS  # stairways are partitions too
    base, extra = divmod(room_parts, MALL_FLOORS)
    parts = [base + (1 if f < extra else 0) for f in range(MALL_FLOORS)]
    room_doors = MALL_DOORS - 2 * MALL_STAIRS  # each stairway adds two doors
    dbase, dextra = divmod(room_doors, MALL_FLOORS)
    doors = [dbase + (1 if f < dextra else 0) for f in range(MALL_FLOORS)]
    sbase, sextra = divmod(MALL_STAIRS, MALL_FLOORS - 1)
    stairs = [sbase + (1 if g < sextra else 0) for g in range(MALL_FLOORS - 1)]
    bs = build_space(
        floors=MALL_FLOORS,
        parts_per_floor=parts,
        doors_per_floor=doors,
        stairs_per_gap=stairs,
        floor_w=2700.0,
        floor_h=2000.0,
        q_per_floor=0,           # footnote 7: no Q-partitions in the mall
        obj_max=0,               # populations come from trajectories
        lam_max=0.0,             # λ comes from fitted flows
        ti=ti,
        horizon_ticks=horizon_ticks,
        period_max=1,            # flows sampled every 10 s
        seed=seed,
    )
    assert bs.model.n_partitions == MALL_PARTITIONS
    assert bs.model.n_doors == MALL_DOORS
    return bs


@dataclass
class TrajectoryWorld:
    """Ground truth of the simulated mall day.

    ``occupancy[x, v]`` is the true number of *tracked* objects in partition
    ``v`` during tick ``x`` (seeds the crowd model's initial populations,
    scaled by device penetration).  ``fixes`` is what the positioning system
    *observed*: sparse, gappy records the model must work from.
    """

    occupancy: np.ndarray      # int[H, P]
    fixes: pd.DataFrame        # mac, t, partition, x, y, z


def simulate_trajectories(
    bs: BuiltSpace,
    *,
    n_objects: int = 1598,
    fix_interval: float = 10.0,
    session_ticks: int = 60,
    seed: int = 13,
) -> TrajectoryWorld:
    """Random-walk world + sparse positioning fixes.

    Objects alternate two modes per stay — *walking through* (short
    ``Exp(WALK_DWELL)`` stays, probability ``WALK_PROB``) and *shopping*
    (long ``Exp(SHOP_DWELL)`` stays) — then cross a uniformly chosen
    outgoing door.  Every object is "tracked" (a phone with Wi-Fi on) for
    one session of ``session_ticks`` fixes at ``fix_interval`` seconds.
    Two dropout mechanisms mimic real indoor positioning: independent
    per-fix losses (``DROP_PROB``) and signal-loss *bursts* (``BURST_PROB``
    per fix, lasting ``BURST_FIXES`` fixes).  Bursts that span a walking run
    hide several quick hops, which is what puts the share of consecutive
    fixes that are not topologically-connected at the paper's ~12%.
    """
    m = bs.model
    rng = np.random.default_rng(seed)
    H = m.timeline.horizon
    occ = np.zeros((H, m.n_partitions), dtype=np.int64)
    records: list[tuple[int, float, int, float, float, float]] = []

    # precompute outgoing edge lists as plain python for speed
    out_edges = [list(map(int, m.out_edges[v])) for v in range(m.n_partitions)]
    horizon_s = H * m.timeline.ti

    for mac in range(n_objects):
        v = int(rng.integers(0, m.n_partitions))
        while m.stair_len[v] > 0:  # don't spawn inside a stairwell
            v = int(rng.integers(0, m.n_partitions))
        t = 0.0
        session_start = rng.uniform(0, max(1.0, horizon_s - session_ticks * fix_interval))
        session_end = session_start + session_ticks * fix_interval
        next_fix = session_start
        skip_until = -1.0  # end of the current signal-loss burst
        # event-driven walk over [0, horizon_s)
        while t < horizon_s:
            dwell = rng.exponential(
                WALK_DWELL if rng.random() < WALK_PROB else SHOP_DWELL
            )
            t_leave = min(t + dwell, horizon_s)
            # Attribute each tick to the partition occupied at the tick's
            # start — every object counts in exactly one partition per tick,
            # so per-tick totals conserve the object count.
            ti_s = m.timeline.ti
            lo = int(np.ceil(t / ti_s - 1e-12))
            hi = min(int(np.ceil(t_leave / ti_s - 1e-12)) - 1, H - 1)
            if hi >= lo:
                occ[lo : hi + 1, v] += 1
            while next_fix < t_leave and next_fix < session_end:
                if next_fix >= skip_until:
                    if rng.random() < BURST_PROB:
                        skip_until = next_fix + BURST_FIXES * fix_interval
                    elif rng.random() >= DROP_PROB:
                        x, y, z = bs.random_point(rng, v)
                        records.append((mac, next_fix, v, x, y, z))
                next_fix += fix_interval
            if t_leave >= horizon_s:
                break
            edges = out_edges[v]
            if not edges:
                t = t_leave
                continue
            e = edges[int(rng.integers(0, len(edges)))]
            v = int(m.e_dst[e])
            t = t_leave
    fixes = pd.DataFrame(
        records, columns=["mac", "t", "partition", "x", "y", "z"]
    ).sort_values(["mac", "t"], ignore_index=True)
    return TrajectoryWorld(occupancy=occ, fixes=fixes)
