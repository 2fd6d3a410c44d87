"""s2t-controlled query instance generation (Section 6.1.1).

"First, we randomly select a point p_s from the indoor space.  Second, we
find a door d whose indoor distance to p_s approximates s2t.  Then, we
expand from d to find a random point p_t whose indoor distance to p_s
approaches s2t."  For each s2t value the paper generates 100 such pairs.

The crowd-free indoor distance comes from ``static_distances`` (Dijkstra
over Eq. 1 door-to-door distances on the search's state graph).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.search import static_distances
from repro.space.floorplan import BuiltSpace
from repro.space.geometry import IndoorPoint, euclid


@dataclass(frozen=True)
class QueryInstance:
    ps: IndoorPoint
    pt: IndoorPoint
    s2t: float          # requested source-target distance
    static_dist: float  # achieved crowd-free indoor distance


def generate_instances(
    bs: BuiltSpace,
    *,
    n: int = 100,
    s2t: float = 1300.0,
    tol: float = 100.0,
    seed: int = 17,
    max_attempts: int = 2000,
) -> list[QueryInstance]:
    """Seeded (p_s, p_t) pairs whose indoor distance ≈ ``s2t`` (± tol)."""
    m = bs.model
    rng = np.random.default_rng(seed)
    out: list[QueryInstance] = []
    rooms = np.flatnonzero(m.stair_len == 0)  # query points live in rooms
    attempts = 0
    while len(out) < n and attempts < max_attempts:
        attempts += 1
        v = int(rng.choice(rooms))
        ps = IndoorPoint(v, bs.random_point(rng, v))
        dists = static_distances(m, ps)
        # candidate doors whose distance leaves room for the last leg
        cands = [
            (e, d)
            for e, d in dists.items()
            if abs(d - s2t) < tol and m.stair_len[m.e_dst[e]] == 0
        ]
        if not cands:
            continue
        e, d_door = cands[int(rng.integers(0, len(cands)))]
        door, v_t = int(m.e_door[e]), int(m.e_dst[e])
        # place p_t in the entered partition so the total approaches s2t
        best_pt, best_err = None, float("inf")
        for _ in range(16):
            cand = IndoorPoint(v_t, bs.random_point(rng, int(v_t)))
            total = d_door + euclid(m.door_xyz[door], cand.coords())
            err = abs(total - s2t)
            if err < best_err:
                best_pt, best_err, best_total = cand, err, total
        if best_pt is None or best_err > tol:
            continue
        out.append(QueryInstance(ps=ps, pt=best_pt, s2t=s2t, static_dist=best_total))
    if len(out) < n:
        raise RuntimeError(
            f"could only generate {len(out)}/{n} instances for s2t={s2t}"
        )
    return out
