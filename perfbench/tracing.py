"""Per-layer tracing for the traced run, kept entirely in the benchmark.

The program is not modified: ``patched`` swaps the public functions each
layer exposes for wrappers, at the module attributes their callers look up,
and restores them on exit.  Spans and counters stay in memory on a
``Tracer``.  The estimator handed to ``search``/``gtg_search`` is wrapped in
``EstimatorProxy`` to count and time population lookups.

Only the benchmark process itself is traced; Spark workers import unpatched modules.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

from repro.core.estimators import (
    GlobalEstimator,
    GoldEstimator,
    LocalEstimator,
    NTEstimator,
    PPEstimator,
)

TRACED_ESTIMATORS = (LocalEstimator, GlobalEstimator, PPEstimator, NTEstimator)


@dataclass
class QueryTrace:
    """Work one query did, as seen from the layer boundaries."""

    kind: str
    ms: float = 0.0
    busy_ms: float = 0.0
    build_ms: float = 0.0
    lookups: int = 0
    ticks_ahead_max: int = 0
    distinct_ticks: int = 0
    clamped: int = 0
    nt_lookups: int = 0
    nt_skips: int = 0
    replans: int = 0
    proxied: bool = False


class EstimatorProxy:
    """Times and counts ``population()`` calls of one estimator."""

    def __init__(self, inner, horizon: int, q: QueryTrace):
        self.inner = inner
        self.tick0 = inner.tick0
        self.last = horizon - 1
        self.q = q
        self.ticks: set[int] = set()
        self.is_nt = isinstance(inner, NTEstimator)

    def population(self, v: int, tick: int) -> float:
        t0 = time.perf_counter()
        val = self.inner.population(v, tick)
        q = self.q
        q.busy_ms += (time.perf_counter() - t0) * 1000.0
        q.lookups += 1
        ahead = tick - self.tick0
        if ahead > q.ticks_ahead_max:
            q.ticks_ahead_max = ahead
        self.ticks.add(tick)
        if tick == self.last:
            q.clamped += 1
        if self.is_nt and ahead > 0:
            q.nt_lookups += 1
            if self.inner.stats(v)[1] < self.inner.eta:
                q.nt_skips += 1
        return val


class Tracer:
    """Spans (summed per name) and per-query traces of one traced run."""

    def __init__(self):
        self.spans: dict[str, float] = defaultdict(float)
        self.queries: list[QueryTrace] = []
        self.gold_ms: list[float] = []
        self.gtg_edges = 0
        self._q: QueryTrace | None = None

    def take_spans(self) -> dict[str, float]:
        """Span totals since the last call (one set-up's worth)."""
        out = dict(self.spans)
        self.spans.clear()
        return out

    # -- wrappers ----------------------------------------------------------
    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[name] += time.perf_counter() - t0

        return wrapper

    def query(self, kind: str, fn, *, est_arg: int | None):
        """Wrap a query entry point; the estimator at ``est_arg`` is proxied."""

        @functools.wraps(fn)
        def wrapper(model, *args, **kwargs):
            args = list(args)
            if est_arg is not None and isinstance(args[est_arg], GoldEstimator):
                t0 = time.perf_counter()
                out = fn(model, *args, **kwargs)
                self.gold_ms.append((time.perf_counter() - t0) * 1000.0)
                return out
            q = QueryTrace(kind)
            if est_arg is not None and isinstance(args[est_arg], TRACED_ESTIMATORS):
                proxy = EstimatorProxy(args[est_arg], model.timeline.horizon, q)
                args[est_arg] = proxy
                q.proxied = True
            self._q = q
            t0 = time.perf_counter()
            try:
                return fn(model, *args, **kwargs)
            finally:
                q.ms = (time.perf_counter() - t0) * 1000.0
                if q.proxied:
                    q.distinct_ticks = len(proxy.ticks)
                self.queries.append(q)
                self._q = None

        return wrapper

    def build_gtg(self, fn):
        @functools.wraps(fn)
        def wrapper(model):
            t0 = time.perf_counter()
            adj = fn(model)
            if self._q is not None:
                self._q.build_ms += (time.perf_counter() - t0) * 1000.0
            self.gtg_edges = sum(len(v) for v in adj.values())
            return adj

        return wrapper

    def replan(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._q is not None:
                self._q.replans += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patch tables ------------------------------------------------------
    def setup_patches(self) -> list[tuple[str, str, object]]:
        world = "repro.experiments.world"
        flows = "repro.dataflow.trajectory_flows"
        return [
            (world, "synthetic_space", lambda f: self.span("space.build", f)),
            ("repro.space.mall", "mall_space", lambda f: self.span("space.build", f)),
            (world, "simulate", lambda f: self.span("sim.simulate", f)),
            (world, "generate_instances", lambda f: self.span("space.instances", f)),
            ("repro.space.mall", "simulate_trajectories", lambda f: self.span("space.trajectories", f)),
            (flows, "count_door_flows", lambda f: self.span("flows.count", f)),
            (flows, "fit_edge_lambdas", lambda f: self.span("flows.count", f)),
        ]

    def query_patches(self) -> list[tuple[str, str, object]]:
        harness = "repro.experiments.harness"
        return [
            (harness, "search", lambda f: self.query("search", f, est_arg=0)),
            (harness, "gtg_search", lambda f: self.query("gtg", f, est_arg=0)),
            (harness, "adaptive_search", lambda f: self.query("adaptive", f, est_arg=None)),
            ("repro.gtg.search", "build_gtg", self.build_gtg),
            ("repro.core.adaptive", "search", self.replan),
        ]


@contextlib.contextmanager
def patched(patches):
    """Install ``(module, attribute, make_wrapper)`` patches; undo on exit."""
    saved = []
    try:
        for mod_name, attr, make in patches:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, make(orig))
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
