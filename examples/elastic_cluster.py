"""Tour of elastic autoscaling: an event-kernel fleet that grows into a
flash crowd and drains back to the floor, with live shard handoff.

    python examples/elastic_cluster.py [--queries 20000]

Three exhibits:
  1. The capacity planner's dilemma — a diurnal cycle with a flash crowd
     served by a trough-sized fleet (drowns), a peak-sized fleet (pays
     for idle iron all night), and the elastic fleet (tracks the load).
  2. The scaling trace — every join's shard-slice warm (bytes, window)
     and every drain's zero-loss re-injection, straight from the
     run's `ScaleEvent` records.
  3. The real deployment — the KAGGLE model on HW-1 nodes through
     `build_cluster` with a scale-only `ControlPlane`, where a join
     warms ~1.5 GB of real embedding tables over the fabric.
"""

import argparse

import numpy as np

from repro.analysis.sharding import greedy_shard
from repro.core.online import StaticScheduler
from repro.core.paths import ExecutionPath, PathProfile
from repro.core.representations import RepresentationConfig
from repro.data.queries import Query, QuerySet, arrival_times
from repro.experiments.setup import build_cluster
from repro.hardware.catalog import GPU_V100
from repro.models.configs import KAGGLE
from repro.serving.cluster import ClusterSimulator
from repro.serving.controlplane import ControlPlane
from repro.serving.workload import ServingScenario

SLA_S = 0.015
MIN_NODES, MAX_NODES = 2, 6


def header(title: str) -> None:
    print(f"\n=== {title} ===")


def node_path() -> ExecutionPath:
    """A synthetic per-node serving path (~1.2k QPS at full batches)."""
    sizes = np.unique(np.geomspace(1, 4096, 33).astype(int)).astype(float)
    return ExecutionPath(
        rep=RepresentationConfig("table", 16),
        device=GPU_V100,
        accuracy=79.0,
        profile=PathProfile(sizes=sizes, latencies=0.0003 + 0.0008 * sizes),
        label="TABLE",
    )


def diurnal_flash_scenario(n_queries: int) -> ServingScenario:
    """A compressed day/night cycle with a flash crowd on the peak."""
    rng = np.random.default_rng(7)
    mean_qps = 2_000.0
    base = arrival_times(
        n_queries, mean_qps, rng=rng, process="diurnal",
        period_s=12.0, amplitude=0.75,
    )
    spike = 14.0 + arrival_times(4000, 2_000.0, rng=rng, process="poisson")
    merged = np.sort(np.concatenate([base, spike]))
    queries = [
        Query(index=i, size=1, arrival_s=float(t))
        for i, t in enumerate(merged)
    ]
    return ServingScenario(queries=QuerySet(queries=queries), sla_s=SLA_S)


def make_cluster(n_nodes: int, plane=None) -> ClusterSimulator:
    plan = greedy_shard(
        [1_000_000, 800_000, 700_000, 600_000, 500_000, 400_000], 16, n_nodes
    )
    return ClusterSimulator(
        StaticScheduler([node_path()]), plan, router="least-loaded",
        replication=2, max_batch_size=16, batch_timeout_s=0.008,
        controlplane=plane,
    )


def row(label: str, cluster) -> None:
    res = cluster.result
    print(
        f"{label:24s} violations={res.violation_rate * 100:5.1f}% "
        f"node-seconds={cluster.node_seconds:7.1f} "
        f"fleet energy={cluster.fleet_energy_j / 1e3:6.2f} kJ"
    )


def capacity_dilemma(scenario) -> None:
    header("1. Trough-sized vs peak-sized vs elastic")
    plane = ControlPlane(
        min_nodes=MIN_NODES, max_nodes=MAX_NODES, actions=("scale",),
        hi_pressure=0.75, lo_pressure=0.1, util_hi=0.9,
        patience=4, patience_down=48, cooldown_s=0.25,
    )
    static_min = make_cluster(MIN_NODES).run(scenario)
    static_max = make_cluster(MAX_NODES).run(scenario)
    elastic = make_cluster(MAX_NODES, plane=plane).run(scenario)
    row(f"static {MIN_NODES} nodes", static_min)
    row(f"static {MAX_NODES} nodes", static_max)
    row(f"elastic {MIN_NODES}..{MAX_NODES}", elastic)
    saved = 1.0 - elastic.node_seconds / static_max.node_seconds
    print(
        f"{'':24s} elastic fleet: {saved * 100:.0f}% fewer node-seconds, "
        f"{elastic.scale_ups} joins, {elastic.scale_downs} drains, "
        f"lost={elastic.lost}"
    )
    scaling_trace(elastic)


def scaling_trace(elastic) -> None:
    header("2. The scaling trace (joins warm their shard slice)")
    for event in elastic.scale_events:
        if event.kind == "up":
            detail = (
                f"warmed {event.warm_bytes / 1e6:6.1f} MB in "
                f"{event.warm_s * 1e3:5.2f} ms"
            )
        else:
            detail = f"re-injected {event.reinjected} queued queries"
        print(
            f"  t={event.time_s:6.2f} s  {event.kind:4s} -> "
            f"{event.n_members} members  ({detail})"
        )


def real_deployment(n_queries: int) -> None:
    header("3. KAGGLE on HW-1 nodes (mp-rec scheduler, 2..4 nodes)")
    scenario = ServingScenario.flash_crowd(
        n_queries=n_queries, qps=6_000.0, sla_s=0.010, spike_factor=3.0,
    )
    static = build_cluster(
        KAGGLE, 4, replication=2, max_batch_size=8, batch_timeout_s=0.001,
    ).run(scenario)
    plane = ControlPlane(
        min_nodes=2, max_nodes=4, actions=("scale",), patience=4,
        cooldown_s=0.1,
    )
    cluster = build_cluster(
        KAGGLE, 4, router="least-loaded", replication=2, controlplane=plane,
        max_batch_size=8, batch_timeout_s=0.001,
    ).run(scenario)
    row("static 4 nodes", static)
    row("elastic 2..4", cluster)
    for event in cluster.scale_events[:4]:
        if event.kind == "up":
            print(
                f"  t={event.time_s:6.3f} s  join warmed "
                f"{event.warm_bytes / 1e9:.2f} GB of embedding tables "
                f"in {event.warm_s * 1e3:.1f} ms"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=20_000)
    args = parser.parse_args()

    scenario = diurnal_flash_scenario(args.queries)
    capacity_dilemma(scenario)
    real_deployment(args.queries)


if __name__ == "__main__":
    main()
