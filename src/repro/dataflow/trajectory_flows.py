"""Probabilistic door-flow counting from raw trajectories (Section 6.2).

The paper recovers door flows from positioning data where "nearly 12% of two
consecutive locations are not topologically-connected":

1. pair consecutive fixes per device (window function);
2. a topologically-connected pair contributes flow 1 to the connecting
   door(s) (split uniformly if several doors connect the two partitions);
3. a gap pair gets a set Φ of valid sub-paths, those not longer than twice
   the shortest: a hop-bounded relaxation finds the shortest length first,
   and the enumeration prunes every branch whose length plus the straight
   centroid distance to the target already exceeds twice it (exact, by the
   triangle inequality); sub-path φ_i is taken with probability
   ``P(φ_i) = (1/len(φ_i)) / Σ_k 1/len(φ_k)``, and every door on φ_i
   receives P(φ_i);
4. door flows are sampled per 10 s bucket; λ per directed edge is the mean
   flow per report interval, corrected by the tracked-device penetration
   (the positioning system only sees objects during their tracking session).

Steps 1 and 4 are pure DataFrame work; step 3 runs in ``applyInPandas``
workers, one task per core, over the distinct gap pairs with the
(broadcast) model and a partition graph built once per model.
"""
from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.core.model import IndoorCrowdModel

# A valid sub-path has at most this many more hops than the fewest.
MAX_EXTRA_HOPS = 3


def consecutive_pairs(fixes: DataFrame) -> DataFrame:
    """(mac, t0, v0, t1, v1) for each pair of consecutive fixes per device."""
    w = Window.partitionBy("mac").orderBy("t")
    return (
        fixes.select(
            "mac",
            F.lag("t").over(w).alias("t0"),
            F.lag("partition").over(w).alias("v0"),
            F.col("t").alias("t1"),
            F.col("partition").alias("v1"),
        )
        .where(F.col("t0").isNotNull())
        .where(F.col("v0") != F.col("v1"))
    )


class _FlowGraph:
    """Per-model partition graph for step 3, built once per model.

    ``adj[(u, w)]`` lists the directed edges from ``u`` to ``w``;
    ``nbrs[u]`` the partitions one edge away, ascending; ``centroid[v]`` the
    mean of ``v``'s door coordinates; ``seg[(u, w)]`` the cheapest edge from
    ``u`` to ``w`` and its segment length, door to both centroids.
    """

    def __init__(self, model: IndoorCrowdModel):
        adj: dict[tuple[int, int], list[int]] = defaultdict(list)
        for e in range(model.n_edges):
            adj[(int(model.e_src[e]), int(model.e_dst[e]))].append(e)
        self.adj = dict(adj)
        self.nbrs = [
            sorted({int(model.e_dst[e]) for e in model.out_edges[v]})
            for v in range(model.n_partitions)
        ]
        cent = []
        for v in range(model.n_partitions):
            doors = model.partition_doors(v)
            cent.append(model.door_xyz[doors].mean(axis=0) if len(doors) else np.zeros(3))
        self.centroid = [tuple(float(x) for x in c) for c in cent]
        self.seg: dict[tuple[int, int], tuple[int, float]] = {}
        for (u, w), edges in self.adj.items():
            best_e, best_len = None, math.inf
            for e in edges:
                d = int(model.e_door[e])
                length = float(np.linalg.norm(model.door_xyz[d] - cent[u])) + float(
                    np.linalg.norm(model.door_xyz[d] - cent[w])
                )
                if length < best_len:
                    best_e, best_len = e, length
            self.seg[(u, w)] = (best_e, best_len)


def _flow_graph(model: IndoorCrowdModel) -> _FlowGraph:
    got = model.derived.get(__name__)
    if got is None:
        got = model.derived[__name__] = _FlowGraph(model)
    return got


def subpath_edge_weights(
    model: IndoorCrowdModel, v0: int, v1: int
) -> list[tuple[int, float]]:
    """Step 3 for one gap pair: ``[(edge_id, probability-weight)]``.

    Valid sub-paths are simple partition sequences from ``v0`` to ``v1`` of
    at most ``MAX_EXTRA_HOPS`` more hops than the fewest; their length is
    the sum of segment distances through the cheapest connecting doors.
    Paths longer than twice the shortest are excluded; the remainder get
    1/length-normalized probabilities and every directed edge on a path
    receives that path's probability.

    The enumeration is pruned exactly: a hop-bounded relaxation first finds
    the shortest length, then the DFS drops a branch at ``w`` once its
    length plus ``|c_w − c_v1|`` exceeds twice that.  Every segment
    ``|door − c_u| + |door − c_w|`` is at least ``|c_u − c_w|``, so the
    centroid distance bounds the rest of any path from ``w`` from below.
    """
    if v0 == v1:
        return []
    g = _flow_graph(model)
    nbrs, seg = g.nbrs, g.seg
    # shortest hop count via BFS (bounds the path length in hops)
    hops = {v0: 0}
    frontier = [v0]
    while frontier and v1 not in hops:
        nxt = []
        for u in frontier:
            for wv in nbrs[u]:
                if wv not in hops:
                    hops[wv] = hops[u] + 1
                    nxt.append(wv)
        frontier = nxt
    if v1 not in hops:
        return []
    max_hops = hops[v1] + MAX_EXTRA_HOPS

    # Shortest length over walks of at most max_hops edges, one level per
    # hop; only improved partitions are expanded.  A cycle never shortens a
    # walk, so this is the shortest simple path the DFS below can find.
    cv1 = g.centroid[v1]
    dist = {v0: 0.0}
    level = {v0: 0.0}
    for _ in range(max_hops):
        best = dist.get(v1, math.inf)
        nxt_level: dict[int, float] = {}
        for u, du in level.items():
            for wv in nbrs[u]:
                d = du + seg[(u, wv)][1]
                if (
                    d < dist.get(wv, math.inf)
                    and d < nxt_level.get(wv, math.inf)
                    and d + math.dist(g.centroid[wv], cv1) <= best
                ):
                    nxt_level[wv] = d
        if not nxt_level:
            break
        dist.update(nxt_level)
        level = nxt_level
    # relative slack: rounding never cuts a path the final filter keeps
    bound = 2.0 * max(dist[v1], 1.0) * (1.0 + 1e-9)

    paths: list[tuple[list[int], float]] = []  # (edge ids, length)

    def dfs(u: int, edges: list[int], length: float, seen: set[int]) -> None:
        if u == v1:
            paths.append((edges.copy(), max(length, 1.0)))
            return
        if len(edges) >= max_hops:
            return
        for wv in nbrs[u]:
            if wv in seen:
                continue
            e, slen = seg[(u, wv)]
            if length + slen + math.dist(g.centroid[wv], cv1) > bound:
                continue
            seen.add(wv)
            edges.append(e)
            dfs(wv, edges, length + slen, seen)
            edges.pop()
            seen.remove(wv)

    dfs(v0, [], 0.0, {v0})
    shortest = min(length for _, length in paths)
    kept = [(es, length) for es, length in paths if length <= 2.0 * shortest]
    norm = sum(1.0 / length for _, length in kept)
    out: list[tuple[int, float]] = []
    for es, length in kept:
        p = (1.0 / length) / norm
        out.extend((e, p) for e in es)
    return out


def resolve_pairs(model: IndoorCrowdModel, pdf: pd.DataFrame) -> pd.DataFrame:
    """Steps 2–3 for a batch of consecutive pairs → (edge, bucket, flow)."""
    adj = _flow_graph(model).adj
    memo: dict[tuple[int, int], list[tuple[int, float]]] = {}
    rows = []
    for v0, v1, bucket in zip(pdf["v0"], pdf["v1"], pdf["bucket"]):
        key = (int(v0), int(v1))
        if key in adj:  # topologically connected: split over doors
            edges = adj[key]
            for e in edges:
                rows.append((int(e), int(bucket), 1.0 / len(edges)))
            continue
        w = memo.get(key)
        if w is None:
            w = subpath_edge_weights(model, *key)
            memo[key] = w
        for e, p in w:
            rows.append((int(e), int(bucket), float(p)))
    return pd.DataFrame(rows, columns=["edge", "bucket", "flow"])


def count_door_flows(
    spark: SparkSession,
    model: IndoorCrowdModel,
    fixes: DataFrame,
    *,
    bucket_s: float = 10.0,
) -> DataFrame:
    """Per-(edge, bucket) probabilistic flows: ``(edge, bucket, flow)``."""
    pairs = consecutive_pairs(fixes).withColumn(
        "bucket", F.floor(F.col("t1") / F.lit(bucket_s)).cast("long")
    )
    bc_model = spark.sparkContext.broadcast(model)

    def resolve(pdf: pd.DataFrame) -> pd.DataFrame:
        return resolve_pairs(bc_model.value, pdf)

    # one task per core: the pruned enumeration leaves no skew to hedge
    n_tasks = spark.sparkContext.defaultParallelism
    per_pair = pairs.repartition(n_tasks, "v0").groupBy("v0").applyInPandas(
        lambda pdf: resolve(pdf), schema="edge long, bucket long, flow double"
    )
    return per_pair.groupBy("edge", "bucket").agg(F.sum("flow").alias("flow"))


def count_door_flows_pandas(
    model: IndoorCrowdModel, fixes: pd.DataFrame, *, bucket_s: float = 10.0
) -> pd.DataFrame:
    """Single-machine reference of ``count_door_flows`` (oracle for tests)."""
    df = fixes.sort_values(["mac", "t"])
    pairs = pd.DataFrame(
        {
            "mac": df["mac"],
            "t0": df.groupby("mac")["t"].shift(1),
            "v0": df.groupby("mac")["partition"].shift(1),
            "t1": df["t"],
            "v1": df["partition"],
        }
    ).dropna(subset=["t0"])
    pairs = pairs[pairs["v0"] != pairs["v1"]]
    pairs["bucket"] = (pairs["t1"] // bucket_s).astype(np.int64)
    rows = resolve_pairs(model, pairs)
    return (
        rows.groupby(["edge", "bucket"], as_index=False)["flow"]
        .sum()
        .sort_values(["edge", "bucket"], ignore_index=True)
    )


def fit_edge_lambdas(
    flows: DataFrame,
    model: IndoorCrowdModel,
    *,
    n_buckets: int,
    penetration: float = 1.0,
) -> np.ndarray:
    """λ per directed edge: mean flow per report bucket / penetration.

    ``penetration`` is the fraction of door crossings the positioning system
    observes, a deployment constant of the localization system, not an
    oracle quantity.  ``build_mall_world`` passes device penetration ×
    tracking-session coverage (``DEVICE_RATE × session / horizon``); per-fix
    dropouts do not enter it, because the sub-path counting of step 3
    already recovers the crossings they hide.
    """
    pdf = flows.groupBy("edge").agg(F.sum("flow").alias("total")).toPandas()
    lam = np.zeros(model.n_edges)
    if len(pdf):
        lam[pdf["edge"].to_numpy()] = pdf["total"].to_numpy()
    lam /= max(n_buckets, 1) * max(penetration, 1e-9)
    return lam
