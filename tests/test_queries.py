"""Tests for the s2t-controlled query-instance generator."""
import hashlib

import numpy as np
import pytest

from repro.core.search import static_distances
from repro.space.geometry import euclid
from repro.space.queries import generate_instances


def test_instance_count(tiny_space):
    out = generate_instances(tiny_space, n=7, s2t=120.0, tol=60.0, seed=4)
    assert len(out) == 7


def test_s2t_within_tolerance(tiny_space):
    tol = 60.0
    for inst in generate_instances(tiny_space, n=6, s2t=120.0, tol=tol, seed=4):
        assert abs(inst.static_dist - 120.0) <= tol
        assert inst.s2t == 120.0


def test_points_inside_partitions(tiny_space):
    for inst in generate_instances(tiny_space, n=5, s2t=120.0, tol=60.0, seed=4):
        for p in (inst.ps, inst.pt):
            x0, y0, x1, y1 = tiny_space.part_rect[p.partition]
            assert x0 <= p.xyz[0] <= x1 and y0 <= p.xyz[1] <= y1


def test_static_dist_matches_metric(tiny_space):
    """The recorded distance equals the crowd-free metric of the pair."""
    m = tiny_space.model
    for inst in generate_instances(tiny_space, n=3, s2t=120.0, tol=60.0, seed=5):
        dists = static_distances(m, inst.ps)
        best = min(
            d + euclid(m.door_xyz[m.e_door[e]], inst.pt.coords())
            for e, d in dists.items()
            if m.e_dst[e] == inst.pt.partition
        )
        # recorded distance is one realizable route; it cannot beat the optimum
        assert inst.static_dist >= best - 1e-9


def test_determinism(tiny_space):
    a = generate_instances(tiny_space, n=5, s2t=120.0, tol=60.0, seed=9)
    b = generate_instances(tiny_space, n=5, s2t=120.0, tol=60.0, seed=9)
    assert [(x.ps, x.pt) for x in a] == [(x.ps, x.pt) for x in b]


def test_seed_variation(tiny_space):
    a = generate_instances(tiny_space, n=5, s2t=120.0, tol=60.0, seed=1)
    b = generate_instances(tiny_space, n=5, s2t=120.0, tol=60.0, seed=2)
    assert [(x.ps, x.pt) for x in a] != [(x.ps, x.pt) for x in b]


def test_no_stair_endpoints(small_world):
    m = small_world.model
    for inst in small_world.instances:
        assert m.stair_len[inst.ps.partition] == 0
        assert m.stair_len[inst.pt.partition] == 0


def test_unreachable_s2t_raises(tiny_space):
    with pytest.raises(RuntimeError, match="could only generate"):
        generate_instances(
            tiny_space, n=3, s2t=10_000.0, tol=10.0, seed=1, max_attempts=20
        )


def test_default_world_instances_pinned(default_world):
    """The benchmark's inputs stay put: the default world's seed-3 instances
    (points and ``static_dist``).  They depend on the order in which
    ``static_distances`` pops exactly tied distances, so a change to its
    state graph or its loop must keep that order."""
    h = hashlib.sha256()
    for inst in generate_instances(default_world.bs, seed=3):
        h.update(np.array([inst.ps.partition, inst.pt.partition], dtype=np.int64).tobytes())
        h.update(np.array([*inst.ps.xyz, *inst.pt.xyz, inst.static_dist], dtype=float).tobytes())
    assert h.hexdigest() == "d0e76ec71b0e640167b5c5538b979eca11366956bb28a1215779611934a9068f"
