"""Tour of the unified SLO autopilot: one control plane pricing every
knob the fleet has — switch representation, scale membership, re-warm a
cache, swap the router — against one cost function.

    python examples/autopilot.py [--queries 20000]

Three exhibits:
  1. One knob vs four — the diurnal + flash-crowd workload served by a
     static floor fleet, a static ceiling fleet, the plane with only its
     scale action (the autoscaler), and the full autopilot.  Cost is
     joule-equivalents: fleet energy + node-seconds at 1 W/node.
  2. The decision trace — every committed action with the predicted
     cost of everything it rejected (`ClusterResult.control_decisions`),
     showing the escalation ladder emerge from prices alone: re-routes
     and re-warms are nearly free, a switch costs milliseconds of node
     time, a join costs a warm window plus rented iron.
  3. The real deployment — the KAGGLE model through
     `run_autopilot_serving`, decisions priced off real embedding-table
     bytes.
"""

import argparse

import numpy as np

from repro.analysis.sharding import greedy_shard
from repro.core.online import StaticScheduler
from repro.core.paths import ExecutionPath, PathProfile
from repro.core.representations import RepresentationConfig
from repro.core.switching import SwitchController
from repro.data.queries import Query, QuerySet, arrival_times
from repro.experiments.setup import run_autopilot_serving
from repro.hardware.catalog import GPU_V100
from repro.models.configs import KAGGLE
from repro.serving.cluster import ClusterSimulator
from repro.serving.controlplane import ControlPlane, format_decision
from repro.serving.workload import ServingScenario

SLA_S = 0.015
MIN_NODES, MAX_NODES = 2, 6
SIZES = np.unique(np.geomspace(1, 4096, 33).astype(int)).astype(float)


def header(title: str) -> None:
    print(f"\n=== {title} ===")


def node_paths() -> tuple[ExecutionPath, ExecutionPath]:
    """Two synthetic residencies: accurate-but-slow vs fast-but-coarse."""
    accurate = ExecutionPath(
        rep=RepresentationConfig("table", 16),
        device=GPU_V100,
        accuracy=79.5,
        profile=PathProfile(sizes=SIZES, latencies=0.0003 + 0.0012 * SIZES),
        label="ACCURATE",
    )
    fast = ExecutionPath(
        rep=RepresentationConfig("dhe", 16, k=4, dnn=64, h=1),
        device=GPU_V100,
        accuracy=78.0,
        profile=PathProfile(sizes=SIZES, latencies=0.0003 + 0.0004 * SIZES),
        label="FAST",
    )
    return accurate, fast


def diurnal_flash_scenario(n_queries: int) -> ServingScenario:
    """A compressed day/night cycle with a flash crowd on the peak."""
    rng = np.random.default_rng(7)
    base = arrival_times(
        n_queries, 2_000.0, rng=rng, process="diurnal",
        period_s=12.0, amplitude=0.75,
    )
    spike = 14.0 + arrival_times(4000, 2_000.0, rng=rng, process="poisson")
    merged = np.sort(np.concatenate([base, spike]))
    queries = [
        Query(index=i, size=1, arrival_s=float(t))
        for i, t in enumerate(merged)
    ]
    return ServingScenario(queries=QuerySet(queries=queries), sla_s=SLA_S)


def make_switcher() -> SwitchController:
    accurate, fast = node_paths()
    return SwitchController(
        candidates={GPU_V100.name: [accurate, fast]},
        load_s=0.002, teardown_s=0.0005, cooldown_s=0.25,
    )


def make_fleet(n_nodes, switcher=None, plane=None) -> ClusterSimulator:
    accurate, _ = node_paths()
    plan = greedy_shard(
        [1_000_000, 800_000, 700_000, 600_000, 500_000, 400_000], 16, n_nodes
    )
    return ClusterSimulator(
        StaticScheduler([accurate]), plan, router="least-loaded",
        replication=2, max_batch_size=16, batch_timeout_s=0.008,
        switch_controller=switcher, controlplane=plane,
        cache_bytes=4 << 20,
    )


def row(label: str, cluster) -> None:
    res = cluster.result
    cost = cluster.fleet_energy_j + cluster.node_seconds
    print(
        f"{label:24s} violations={res.violation_rate * 100:5.1f}% "
        f"node-seconds={cluster.node_seconds:7.1f} "
        f"cost={cost / 1e3:6.2f} kJ-eq"
    )


def one_knob_vs_four(scenario):
    header("1. One knob vs four (diurnal + flash crowd)")
    scale_only = make_fleet(
        MAX_NODES,
        plane=ControlPlane(
            min_nodes=MIN_NODES, max_nodes=MAX_NODES, actions=("scale",),
            hi_pressure=0.75, lo_pressure=0.1, util_hi=0.9,
            patience=4, patience_down=48, cooldown_s=0.25,
        ),
    ).run(scenario)
    autopilot = make_fleet(
        MAX_NODES,
        switcher=make_switcher(),
        plane=ControlPlane(
            min_nodes=MIN_NODES, max_nodes=MAX_NODES,
            hi_pressure=0.75, lo_pressure=0.1,
            patience=4, patience_down=48, cooldown_s=0.25,
        ),
    ).run(scenario)
    row(f"static {MIN_NODES} nodes", make_fleet(MIN_NODES).run(scenario))
    row(f"static {MAX_NODES} nodes", make_fleet(MAX_NODES).run(scenario))
    row(f"scale only {MIN_NODES}..{MAX_NODES}", scale_only)
    row(f"autopilot {MIN_NODES}..{MAX_NODES}", autopilot)
    print(
        f"{'':24s} autopilot: {len(autopilot.control_decisions)} decisions, "
        f"{autopilot.switches} switches, "
        f"{autopilot.scale_ups} joins, {autopilot.scale_downs} drains"
    )
    return autopilot


def decision_trace(autopilot) -> None:
    header("2. The decision trace (every candidate priced, one winner)")
    for decision in autopilot.control_decisions[:10]:
        print(f"  {format_decision(decision)}")


def real_deployment(n_queries: int) -> None:
    header("3. KAGGLE on HW-1 nodes (autopilot 2..4)")
    scenario = ServingScenario.flash_crowd(
        n_queries=n_queries, qps=6_000.0, sla_s=0.010, spike_factor=3.0,
    )
    cluster = run_autopilot_serving(
        KAGGLE, scenario, min_nodes=2, max_nodes=4, replication=2,
        max_batch_size=8, batch_timeout_s=0.001, patience=2,
        initial_nodes=3, cache_bytes=64 << 20,
    )
    row("autopilot 2..4", cluster)
    for decision in cluster.control_decisions[:6]:
        print(f"  {format_decision(decision)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=20_000)
    args = parser.parse_args()

    scenario = diurnal_flash_scenario(args.queries)
    autopilot = one_knob_vs_four(scenario)
    decision_trace(autopilot)
    real_deployment(args.queries)


if __name__ == "__main__":
    main()
