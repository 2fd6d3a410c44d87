"""Correctness checks and the path digest of the benchmark.

A query *fails* when it returns ``None``, when its path is not a chain of
real directed edges from host(p_s) to host(p_t), or (for *PQ) when it
disagrees with *PQ-G on doors or by more than 1e-9 on cost.  Failures are
counted against the queries attempted, per variant and pooled; nothing is
filtered out.

The GTG graph treats every door as a bidirectional vertex (see
``repro.gtg.graph``), so GTG paths that walk to a door of a partition and
back without crossing it (recorded as ``v -> v``) fail the chain check.
They are counted like any other failure, but they are a known property of
that baseline and do not by themselves mark the run incorrect; every other
failure does.
"""
from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

from repro.core.search import PathResult
from repro.experiments.harness import ALGORITHMS

QTS = ("FPQ", "LCPQ")
VARIANTS = tuple((qt, alg) for qt in QTS for alg in ALGORITHMS)
LOCAL_GLOBAL_TOL = 1e-9


def variant_name(qt: str, alg: str) -> str:
    return f"{qt}{alg}"


def edge_set(model) -> set[tuple[int, int, int]]:
    """Every real directed crossing as ``(door, from-partition, to-partition)``."""
    return {
        (int(d), int(s), int(t))
        for d, s, t in zip(model.e_door, model.e_src, model.e_dst)
    }


def chain_error(edges: set, inst, path: PathResult) -> str | None:
    """Why ``path`` is not a chain of real edges from host(p_s) to host(p_t)."""
    parts, doors = path.partitions, path.doors
    if len(parts) != len(doors) + 1:
        return f"{len(doors)} doors but {len(parts)} partitions"
    if parts[0] != inst.ps.partition or parts[-1] != inst.pt.partition:
        return f"ends {parts[0]}..{parts[-1]}, want {inst.ps.partition}..{inst.pt.partition}"
    for k, d in enumerate(doors):
        if (d, parts[k], parts[k + 1]) not in edges:
            return f"door {d} recorded as {parts[k]}->{parts[k + 1]}"
    return None


def door_touches_only(edges: set, path: PathResult) -> bool:
    """Every non-edge step of ``path`` goes to a door of its partition and back."""
    parts = path.partitions
    for k, d in enumerate(path.doors):
        v, w = parts[k], parts[k + 1]
        if (d, v, w) in edges:
            continue
        if v != w or not any(e[0] == d and v in (e[1], e[2]) for e in edges):
            return False
    return True


@dataclass
class Tally:
    """Per-variant attempted/failed counts plus the failures' reasons."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    reasons: list[str] = field(default_factory=list)
    fatal: list[str] = field(default_factory=list)  # failures that make a run incorrect

    def fail(self, qt: str, alg: str, instance: int, why: str, *, fatal: bool = True) -> None:
        self.failed[(qt, alg)] += 1
        msg = f"{variant_name(qt, alg)} instance {instance}: {why}"
        self.reasons.append(msg)
        if fatal:
            self.fatal.append(msg)

    @property
    def n_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())

    def fail_pct(self) -> float:
        return 100.0 * self.n_failed / max(self.n_attempted, 1)

    def line(self) -> str:
        per = " ".join(
            f"{variant_name(qt, alg)}={self.failed[(qt, alg)]}/{self.attempted[(qt, alg)]}"
            for qt, alg in VARIANTS
        )
        return f"failures {self.n_failed}/{self.n_attempted} ({self.fail_pct():.3f}%) {per}"


def check_instance(
    tally: Tally, edges: set, inst, instance: int, results: dict, golds: dict | None = None
) -> None:
    """Check one instance's 12 results (``results[(qt, alg)]``) and its golds, if given."""
    for qt in QTS if golds else ():
        gold = golds[qt]
        why = "gold search returned None" if gold is None else chain_error(edges, inst, gold)
        if why is not None:
            tally.fatal.append(f"{qt}-gold instance {instance}: {why}")
    for (qt, alg), r in results.items():
        tally.attempted[(qt, alg)] += 1
        if r is None:
            tally.fail(qt, alg, instance, "returned None")
            continue
        why = chain_error(edges, inst, r)
        if why is not None:
            gtg_touch = alg == "-GTG" and why.startswith("door ") and door_touches_only(edges, r)
            tally.fail(qt, alg, instance, why, fatal=not gtg_touch)
            continue
        if alg == "":
            g = results[(qt, "-G")]
            if g is None or g.doors != r.doors:
                tally.fail(qt, alg, instance, "doors differ from *PQ-G")
            elif abs(g.cost(qt) - r.cost(qt)) > LOCAL_GLOBAL_TOL:
                tally.fail(qt, alg, instance, f"cost differs from *PQ-G by {abs(g.cost(qt) - r.cost(qt)):.3g}")


def hit_and_error(result: PathResult | None, gold: PathResult | None, qt: str):
    """(hit, relative error) against the gold path, as ``measure_query`` scores it."""
    if result is None or gold is None:
        return False, float("nan")
    g = gold.cost(qt)
    return result.doors == gold.doors, (abs(result.cost(qt) - g) / g if g > 0 else 0.0)


def digest(paths: dict) -> str:
    """sha256 over every returned door sequence, keyed by (instance, qt, alg)."""
    h = hashlib.sha256()
    for key in sorted(paths):
        r = paths[key]
        h.update(repr((key, None if r is None else r.doors)).encode())
    return h.hexdigest()[:16]
