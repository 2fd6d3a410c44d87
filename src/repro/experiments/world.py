"""World builders: compose space + simulation + snapshot + query workload.

A *world* is everything one Table-3/Table-4 configuration needs: the crowd
model with its counter snapshot installed, the gold-standard population
table, and the s2t-controlled query instances.  Worlds are picklable, so the
Spark batch runner can broadcast one to the executors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.params import Settings
from repro.sim.microsim import install_snapshot, simulate
from repro.space.floorplan import BuiltSpace, synthetic_space
from repro.space.queries import QueryInstance, generate_instances

# Share of mall visitors whose devices the positioning system tracks.
DEVICE_RATE = 0.05


@dataclass
class World:
    settings: Settings
    bs: BuiltSpace
    gold_pop: np.ndarray          # int[H, P] ground-truth populations
    instances: list[QueryInstance]

    @property
    def model(self):
        return self.bs.model


def build_synthetic_world(settings: Settings = Settings()) -> World:
    """The Table 3 world: synthetic space + microsim gold + snapshot."""
    bs = synthetic_space(
        floors=settings.floors,
        obj_max=settings.obj_max,
        ti=settings.ti,
        seed=settings.space_seed,
    )
    sim = simulate(bs.model, bs.pop0, seed=settings.sim_seed)
    install_snapshot(bs.model, sim.pop, sim.diff, settings.tick_l)
    instances = generate_instances(
        bs, n=settings.n_instances, s2t=settings.s2t, seed=settings.query_seed
    )
    return World(settings=settings, bs=bs, gold_pop=sim.pop, instances=instances)


def build_mall_world(
    settings: Settings,
    spark,
    *,
    horizon_ticks: int = 900,
    n_objects: int = 1598,
    session_ticks: int = 190,
    traj_seed: int = 13,
) -> World:
    """The Table 4 world: simulated mall + trajectory-derived door flows.

    The full real-data pipeline: random-walk ground truth → sparse gappy
    positioning fixes → probabilistic door-flow counting on Spark → Poisson
    λ fitting with a penetration correction → crowd-model snapshot from the
    counted state.  Gold populations are the simulator's true occupancy.
    """
    from repro.dataflow.trajectory_flows import count_door_flows, fit_edge_lambdas
    from repro.space.mall import mall_space, simulate_trajectories

    bs = mall_space(ti=settings.ti, horizon_ticks=horizon_ticks, seed=settings.space_seed)
    tw = simulate_trajectories(
        bs,
        n_objects=n_objects,
        fix_interval=settings.ti,
        session_ticks=session_ticks,
        seed=traj_seed,
    )
    horizon_s = horizon_ticks * settings.ti
    # Observation model constants (not oracle quantities): a crossing can be
    # counted only while its device is Wi-Fi-tracked (DEVICE_RATE) and
    # inside its tracking session (duty cycle).  Per-fix dropouts are
    # handled by the probabilistic sub-path counting itself, so they do not
    # enter the correction.
    penetration = DEVICE_RATE * (session_ticks * settings.ti) / horizon_s
    flows = count_door_flows(
        spark, bs.model, spark.createDataFrame(tw.fixes), bucket_s=settings.ti
    )
    lam = fit_edge_lambdas(
        flows, bs.model, n_buckets=horizon_ticks, penetration=penetration
    )
    # Symmetrize each door's two directions: mall doors are bidirectional
    # with balanced traffic, and averaging the directions cancels the
    # sampling noise of the sparse fixes — otherwise the fitted flows carry
    # a spurious per-partition drift that drains/overfills rooms.  A door
    # carries one or two edges, so its mean is (λ + λ_reverse) / 2 or λ.
    e_door = bs.model.e_door
    lam = (np.bincount(e_door, weights=lam) / np.bincount(e_door))[e_door]
    bs.model.set_lambdas(lam)
    # Gold standard: as in the paper, accuracy on real data is judged against
    # *simulated trajectories* of the constructed crowd model — we run the
    # integer microsimulation under the fitted flows, seeded with the
    # observed occupancy.  "dithered" keeps the noise at integer granularity
    # (the paper's real-data exact searches err at the 1e-15 scale).
    pop0 = np.round(tw.occupancy[0] / DEVICE_RATE).astype(np.int64)
    sim = simulate(bs.model, pop0, seed=settings.sim_seed, flows="dithered")
    install_snapshot(bs.model, sim.pop, sim.diff, settings.tick_l)
    instances = generate_instances(
        bs, n=settings.n_instances, s2t=settings.s2t, seed=settings.query_seed
    )
    return World(settings=settings, bs=bs, gold_pop=sim.pop, instances=instances)
