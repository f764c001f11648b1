"""Elastic autoscaling under diurnal + flash-crowd load.

The paper's premise is that recommendation load is bursty and diurnal
and the right configuration changes at runtime.  PR 3 applied that
per-device (representation switching); this bench applies it to the
*fleet*: a :class:`~repro.serving.controlplane.ControlPlane` with only
its ``"scale"`` action enabled grows and drains serving-kernel cores as
the same pressure signals move, with
live shard handoff — every join warms its shard slice over the fabric
(charged as a device-timeline block), every drain hands its queued
queries back through the failover re-injection path.

The scenario is the capacity planner's nightmare: a compressed diurnal
cycle (trough needs ~1 node of capacity, peak needs ~4) with a flash
crowd landing on the second peak.  Three fleets serve it:

- ``static-max`` — statically provisioned for the worst moment
  (``MAX_NODES`` nodes powered the whole run): the SLA reference, and
  the node-seconds bill to beat.
- ``static-min`` — provisioned for the trough (``MIN_NODES`` nodes):
  cheap, and drowns at every peak.
- ``autoscaled`` — starts at the floor, rides the cycle between the
  bounds.

Pinned claims (the perf-smoke gate):

- SLA parity: the elastic fleet's violation rate is within 10% (plus a
  1-point absolute ramp allowance) of the statically max-provisioned
  fleet's, with every handoff window charged.
- Elasticity pays: >= 25% fewer node-seconds than static-max, and less
  fleet energy (served + idle).
- The zero-loss drain invariant: scale-down at replication 2 loses
  zero queries — every query is accounted exactly once.
"""

import numpy as np
from conftest import fmt_row

from repro.analysis.sharding import greedy_shard
from repro.core.online import StaticScheduler
from repro.core.paths import ExecutionPath, PathProfile
from repro.core.representations import RepresentationConfig
from repro.data.queries import Query, QuerySet, arrival_times
from repro.hardware.catalog import GPU_V100
from repro.hardware.topology import ETHERNET_100G
from repro.serving.cluster import ClusterSimulator
from repro.serving.controlplane import ControlPlane
from repro.serving.workload import ServingScenario

SLA_S = 0.015
MEAN_QPS = 2_000.0
AMPLITUDE = 0.75  # trough ~500 QPS, peak ~3500 QPS
PERIOD_S = 12.0  # one compressed "day"
N_DIURNAL = int(MEAN_QPS * 2 * PERIOD_S)  # two diurnal cycles
SPIKE_QPS = 2_000.0  # flash crowd on top of the second peak
SPIKE_START_S = 14.0
SPIKE_DURATION_S = 3.0
MAX_BATCH = 16
BATCH_TIMEOUT_S = 0.008
MIN_NODES = 2
MAX_NODES = 6
REPLICATION = 2
LINK = ETHERNET_100G
# ~4M rows x dim 16: a ~43 MB warm per join at 6 nodes — felt, not fatal.
CARDINALITIES = [1_000_000, 800_000, 700_000, 600_000, 500_000, 400_000]
DIM = 16


def node_path():
    """One node's serving path: ~1.2k QPS of capacity at full batches."""
    sizes = np.unique(np.geomspace(1, 4096, 33).astype(int)).astype(float)
    return ExecutionPath(
        rep=RepresentationConfig("table", DIM),
        device=GPU_V100,
        accuracy=79.0,
        profile=PathProfile(
            sizes=sizes, latencies=0.0003 + 0.0008 * sizes
        ),
        label="TABLE",
    )


def scenario():
    """Two diurnal cycles with a flash crowd landing on the second peak."""
    rng = np.random.default_rng(7)
    base = arrival_times(
        N_DIURNAL, MEAN_QPS, rng=rng, process="diurnal",
        period_s=PERIOD_S, amplitude=AMPLITUDE,
    )
    n_spike = int(SPIKE_QPS * SPIKE_DURATION_S)
    spike = SPIKE_START_S + arrival_times(
        n_spike, SPIKE_QPS, rng=rng, process="poisson"
    )
    merged = np.sort(np.concatenate([base, spike]))
    queries = [
        Query(index=i, size=1, arrival_s=float(t))
        for i, t in enumerate(merged)
    ]
    return ServingScenario(queries=QuerySet(queries=queries), sla_s=SLA_S)


def make_cluster(n_nodes, plane=None):
    plan = greedy_shard(CARDINALITIES, DIM, n_nodes)
    return ClusterSimulator(
        StaticScheduler([node_path()]), plan, router="least-loaded",
        replication=REPLICATION, link=LINK, max_batch_size=MAX_BATCH,
        batch_timeout_s=BATCH_TIMEOUT_S, controlplane=plane,
    )


def run_comparison():
    scn = scenario()
    static_max = make_cluster(MAX_NODES).run(scn)
    static_min = make_cluster(MIN_NODES).run(scn)
    plane = ControlPlane(
        min_nodes=MIN_NODES, max_nodes=MAX_NODES, actions=("scale",),
        hi_pressure=0.75, lo_pressure=0.1, util_hi=0.9,
        patience=4, patience_down=48, cooldown_s=0.25,
    )
    autoscaled = make_cluster(MAX_NODES, plane=plane).run(scn)
    return scn, static_max, static_min, autoscaled


def test_autoscaling_matches_max_fleet_at_fewer_node_seconds(
    benchmark, record
):
    scn, static_max, static_min, autoscaled = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )

    def row(label, cluster):
        return fmt_row(
            label,
            violations=cluster.result.violation_rate,
            node_seconds=cluster.node_seconds,
            fleet_energy_j=cluster.fleet_energy_j,
            p99_ms=cluster.result.p99_latency_s * 1e3,
        )

    lines = [
        row("static-max", static_max),
        row("static-min", static_min),
        row("autoscaled", autoscaled),
        fmt_row(
            "  scaling",
            ups=autoscaled.scale_ups, downs=autoscaled.scale_downs,
            handoff_ms=autoscaled.handoff_overhead_s * 1e3,
            rerouted=autoscaled.rerouted,
        ),
    ]
    for event in autoscaled.scale_events:
        lines.append(fmt_row(
            f"  {event.kind} -> {event.n_members} nodes",
            at_s=event.time_s, warm_ms=event.warm_s * 1e3,
            reinjected=event.reinjected,
        ))
    record(
        f"Elastic autoscaling vs static fleets "
        f"({len(scn.queries.queries)} queries, diurnal + flash crowd)",
        lines,
    )

    # The plane actually cycled with the load — joins and drains
    # both happened, and every join's shard warm was charged.
    assert autoscaled.scale_ups >= 2
    assert autoscaled.scale_downs >= 1
    assert autoscaled.handoff_overhead_s > 0
    up_events = [e for e in autoscaled.scale_events if e.kind == "up"]
    assert all(e.warm_bytes > 0 and e.warm_s > 0 for e in up_events)
    # The join is not serviceable before its warm window elapses (1 ns
    # tolerance for float accumulation on the timeline).
    assert all(e.ready_s - e.time_s >= e.warm_s - 1e-9 for e in up_events)

    # SLA parity with the statically max-provisioned fleet: within 10%
    # relative, plus one absolute point for the scale-up ramp windows.
    assert autoscaled.result.violation_rate <= (
        1.10 * static_max.result.violation_rate + 0.01
    )
    # ...while the trough-sized static fleet drowns at the peaks.
    assert static_min.result.violation_rate > (
        3 * autoscaled.result.violation_rate
    )

    # Elasticity pays: >= 25% fewer node-seconds (the pinned floor) and
    # strictly less fleet energy (served + idle) than static-max.
    assert autoscaled.node_seconds <= 0.75 * static_max.node_seconds
    assert autoscaled.fleet_energy_j < static_max.fleet_energy_j

    # The zero-loss drain invariant at replication >= 2: nothing lost,
    # nothing shed at the edge, every query accounted exactly once.
    assert autoscaled.lost == 0
    assert autoscaled.edge_drops == 0
    n = len(scn.queries.queries)
    assert sorted(r.index for r in autoscaled.result.records) == list(range(n))
    # Drains actually handed queries back through the re-injection path —
    # the zero-loss mechanism was exercised, not just vacuously true.
    assert autoscaled.rerouted > 0
