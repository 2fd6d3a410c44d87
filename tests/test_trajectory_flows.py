"""Tests: probabilistic door-flow counting from trajectories (Section 6.2)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.dataflow.trajectory_flows import (
    consecutive_pairs,
    count_door_flows,
    count_door_flows_pandas,
    fit_edge_lambdas,
    resolve_pairs,
    subpath_edge_weights,
)
from repro.oracle import assert_equivalent
from repro.space.mall import simulate_trajectories
from tests.conftest import make_tiny_space


@pytest.fixture(scope="module")
def world():
    bs = make_tiny_space()
    tw = simulate_trajectories(bs, n_objects=50, session_ticks=25, seed=9)
    return bs, tw


def test_consecutive_pairs_basics(spark, world):
    bs, tw = world
    pairs = consecutive_pairs(spark.createDataFrame(tw.fixes)).toPandas()
    assert (pairs["t0"] < pairs["t1"]).all()
    assert (pairs["v0"] != pairs["v1"]).all()


def test_consecutive_pairs_per_device(spark, world):
    bs, tw = world
    got = consecutive_pairs(spark.createDataFrame(tw.fixes)).count()
    # reference with pandas
    df = tw.fixes.sort_values(["mac", "t"])
    v0 = df.groupby("mac")["partition"].shift(1)
    ref = ((v0.notna()) & (v0 != df["partition"])).sum()
    assert got == ref


def test_spark_equals_pandas_counting(spark, world):
    bs, tw = world
    sp = (
        count_door_flows(spark, bs.model, spark.createDataFrame(tw.fixes))
        .toPandas()
        .sort_values(["edge", "bucket"], ignore_index=True)
    )
    pdp = count_door_flows_pandas(bs.model, tw.fixes)
    merged = sp.merge(
        pdp, on=["edge", "bucket"], how="outer", suffixes=("_s", "_p")
    ).fillna(0.0)
    assert np.allclose(merged["flow_s"], merged["flow_p"], atol=1e-9)


def test_aggregation_oracle(spark, world):
    """Per-edge totals of the flow table vs DuckDB."""
    bs, tw = world
    flows = count_door_flows(spark, bs.model, spark.createDataFrame(tw.fixes))
    got = flows.groupBy("edge").agg(F.sum("flow").alias("total"))
    sql = "SELECT edge, SUM(flow) AS total FROM flows GROUP BY edge"
    assert_equivalent(got, sql, flows=flows)


def test_adjacent_pair_unit_flow(world):
    """A topologically-connected pair contributes exactly total flow 1."""
    bs, _ = world
    m = bs.model
    e = 0
    pdf = pd.DataFrame(
        {"v0": [int(m.e_src[e])], "v1": [int(m.e_dst[e])], "bucket": [3]}
    )
    rows = resolve_pairs(m, pdf)
    assert rows["flow"].sum() == pytest.approx(1.0)
    assert (rows["bucket"] == 3).all()


def test_gap_pair_probabilities_normalized(world):
    """Sub-path probabilities are 1/length-normalized: per-hop mass ≤ 1,
    and the first-hop mass sums to 1 across alternatives."""
    bs, _ = world
    m = bs.model
    # find a non-adjacent pair two hops apart
    adj = {(int(s), int(d)) for s, d in zip(m.e_src, m.e_dst)}
    pair = None
    for v0 in range(m.n_partitions):
        for v1 in range(m.n_partitions):
            if v0 != v1 and (v0, v1) not in adj:
                pair = (v0, v1)
                break
        if pair:
            break
    weights = subpath_edge_weights(m, *pair)
    assert weights, "expected at least one valid sub-path"
    assert all(0 < p <= 1 for _, p in weights)
    # every sub-path passes one out-edge of v0, so their mass sums to 1
    first_hop = [p for e, p in weights if int(m.e_src[e]) == pair[0]]
    assert sum(first_hop) == pytest.approx(1.0)


def _reference_subpath_weights(m, v0, v1, max_extra_hops=3):
    """Brute force: every simple path up to shortest+3 hops, then the 2× cut."""
    adj = {}
    for e in range(m.n_edges):
        adj.setdefault((int(m.e_src[e]), int(m.e_dst[e])), []).append(e)
    nbrs = [
        sorted({int(m.e_dst[e]) for e in m.out_edges[v]}) for v in range(m.n_partitions)
    ]
    hops, frontier = {v0: 0}, [v0]
    while frontier and v1 not in hops:
        nxt = []
        for u in frontier:
            for w in nbrs[u]:
                if w not in hops:
                    hops[w] = hops[u] + 1
                    nxt.append(w)
        frontier = nxt
    if v1 not in hops:
        return []
    max_hops = hops[v1] + max_extra_hops

    def centroid(v):
        return m.door_xyz[m.part_doors[v]].mean(axis=0)

    def seg(u, w):
        best_e, best_len = None, np.inf
        for e in adj[(u, w)]:
            d = int(m.e_door[e])
            length = float(np.linalg.norm(m.door_xyz[d] - centroid(u))) + float(
                np.linalg.norm(m.door_xyz[d] - centroid(w))
            )
            if length < best_len:
                best_e, best_len = e, length
        return best_e, best_len

    paths = []

    def dfs(u, edges, length, seen):
        if u == v1:
            paths.append((edges.copy(), max(length, 1.0)))
            return
        if len(edges) >= max_hops:
            return
        for w in nbrs[u]:
            if w in seen:
                continue
            e, slen = seg(u, w)
            seen.add(w)
            edges.append(e)
            dfs(w, edges, length + slen, seen)
            edges.pop()
            seen.remove(w)

    dfs(v0, [], 0.0, {v0})
    shortest = min(length for _, length in paths)
    kept = [(es, length) for es, length in paths if length <= 2.0 * shortest]
    norm = sum(1.0 / length for _, length in kept)
    return [(e, (1.0 / length) / norm) for es, length in kept for e in es]


def _gap_pairs(m, fixes):
    """Distinct consecutive-fix pairs whose partitions share no edge."""
    df = fixes.sort_values(["mac", "t"])
    v0 = df.groupby("mac")["partition"].shift(1)
    adj = {(int(s), int(d)) for s, d in zip(m.e_src, m.e_dst)}
    return sorted(
        {
            (int(a), int(b))
            for a, b in zip(v0, df["partition"])
            if not pd.isna(a) and a != b and (int(a), int(b)) not in adj
        }
    )


def test_subpath_excludes_long_paths(world):
    """The pruned enumeration keeps exactly the brute force's sub-paths
    (those not longer than twice the shortest), with bit-identical weights,
    on every gap pair of the tiny world and of the benchmark's mall."""
    from repro.space.mall import mall_space

    bs, tw = world
    pairs = _gap_pairs(bs.model, tw.fixes)
    assert pairs
    for v0, v1 in pairs:
        assert subpath_edge_weights(bs.model, v0, v1) == _reference_subpath_weights(
            bs.model, v0, v1
        )
    mall = mall_space(ti=10, horizon_ticks=900, seed=7)
    mall_tw = simulate_trajectories(
        mall, n_objects=200, fix_interval=10, session_ticks=20, seed=13
    )
    pairs = _gap_pairs(mall.model, mall_tw.fixes)
    assert len(pairs) == 91
    for v0, v1 in pairs:
        assert subpath_edge_weights(mall.model, v0, v1) == _reference_subpath_weights(
            mall.model, v0, v1
        )


def test_unreachable_pair_empty():
    """No sub-path, no weights: the same partition, and a target that the
    source cannot leave towards (partition 0 has no out-edges)."""
    import copy

    m = make_tiny_space().model
    assert subpath_edge_weights(m, 0, 0) == []
    target = 15
    assert subpath_edge_weights(m, 0, target) != []  # builds m's flow graph
    m2 = copy.deepcopy(m)  # carries m's flow graph along
    keep = m2.e_src != 0
    m2.e_src, m2.e_dst, m2.e_door, m2.e_lam = (
        m2.e_src[keep],
        m2.e_dst[keep],
        m2.e_door[keep],
        m2.e_lam[keep],
    )
    m2.__post_init__()  # drops the copied flow graph with the old edges
    assert subpath_edge_weights(m2, 0, target) == []
    assert subpath_edge_weights(m2, 0, 0) == []


def test_fit_edge_lambdas(spark, world):
    bs, tw = world
    flows = count_door_flows(spark, bs.model, spark.createDataFrame(tw.fixes))
    lam = fit_edge_lambdas(flows, bs.model, n_buckets=80, penetration=0.5)
    assert lam.shape == (bs.model.n_edges,)
    assert (lam >= 0).all()
    # halving the penetration doubles λ
    lam2 = fit_edge_lambdas(flows, bs.model, n_buckets=80, penetration=0.25)
    assert np.allclose(lam2, 2 * lam)


def test_counting_only_credits_real_edges(world):
    bs, tw = world
    pdp = count_door_flows_pandas(bs.model, tw.fixes)
    assert pdp["edge"].between(0, bs.model.n_edges - 1).all()
    assert (pdp["flow"] > 0).all()
