"""*PQ-A: the adaptive re-planning baseline (Section 6.1.1).

"The adaptive method based on [the] indoor crowd model that keeps updating
and recomputing the optimal route at every node until the user gets to the
target."  At each reached node the walker observes the *actual* current
populations (time has passed, counters have reported — we read the gold
simulation table at the current tick), re-plans a full route to the target
with those populations frozen in time, and advances one hop.

Consequences the paper reports, which fall out of this construction:

* results are only locally optimal (the frozen future ignores evolution), so
  the relative error vs. the gold standard is high;
* freshness of the observed populations can beat the exact estimators on
  hit rate for the population-sensitive LCPQ;
* the user cannot know the path before departure; running time (and memory)
  is the *sum over all nodes* of the per-step re-planning cost.
"""
from __future__ import annotations

import numpy as np

from repro.core.model import IndoorCrowdModel
from repro.core.search import _SOURCE, _TARGET, FPQ, PathResult, _cache, _leg, search, segment_cost
from repro.space.geometry import IndoorPoint


class FrozenEstimator:
    """Populations pinned at one observation tick (no future derivation).

    The observed row (clamped into the table) is lowered to a list of
    Python floats once per re-plan, so a lookup is a list index rather than
    a NumPy scalar read; the values are the table's, bit for bit.
    """

    def __init__(self, table: np.ndarray, tick: int):
        self.row = np.asarray(table[min(max(tick, 0), len(table) - 1)], dtype=float).tolist()

    def population(self, v: int, tick: int) -> float:  # tick ignored: frozen
        return self.row[v]


def adaptive_search(
    model: IndoorCrowdModel,
    gold_table: np.ndarray,
    ps: IndoorPoint,
    pt: IndoorPoint,
    t_q: float,
    qt: str = FPQ,
    *,
    max_steps: int = 500,
) -> PathResult | None:
    """Walk from ``p_s`` to ``p_t``, re-planning at every reached node."""
    sc = _cache(model)
    doors: list[int] = []
    partitions: list[int] = [ps.partition]
    dist = time = contact = 0.0
    at_door: tuple[int, int] | None = None  # (door, partition) once walking

    for _ in range(max_steps):
        now_tick = model.timeline.tick(t_q + time)
        est = FrozenEstimator(gold_table, now_tick)
        if at_door is None:
            r = search(model, est, ps, pt, t_q + time, qt)
        else:
            r = search(model, est, None, pt, t_q + time, qt, start_door=at_door)
        if r is None:
            return None
        # one hop: from p_s or the door reached, to the plan's first door or p_t
        cur_part = partitions[-1]
        a, a_xyz = (_SOURCE, ps.xyz) if at_door is None else (at_door[0], sc.coords[at_door[0]])
        b, b_xyz = (r.doors[0], sc.coords[r.doors[0]]) if r.doors else (_TARGET, pt.xyz)
        seg = _leg(sc.stair[cur_part], a, a_xyz, b, b_xyz)
        dt, dk = segment_cost(model, est, cur_part, seg, t_q + time)
        dist += seg
        time += dt
        contact += dk
        if not r.doors:
            return PathResult(
                doors=tuple(doors),
                partitions=tuple(partitions),
                dist=dist,
                time=time,
                contact=contact,
            )
        doors.append(b)
        partitions.append(r.partitions[1])
        at_door = (b, r.partitions[1])
    return None
