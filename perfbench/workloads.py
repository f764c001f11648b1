"""The benchmark's four workloads, each driven through a public façade.

A workload is three steps:

- ``setup(seed)`` builds the schedulers or fleet and generates the
  arrival stream from the seed (the part ``setup_s`` times);
- ``run(state)`` is one timed repetition: the façade run plus
  ``summary()``, which is what a ``serve`` user pays;
- ``check(state, result)`` returns the conservation laws and
  layer-exercise checks the repetition broke (empty when correct).

Every stream is a pre-generated open-loop schedule in simulated time.
See README.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.sharding import greedy_shard
from repro.core.online import StaticScheduler
from repro.core.paths import ExecutionPath, PathProfile
from repro.core.representations import RepresentationConfig
from repro.core.switching import SwitchController
from repro.data.queries import (
    Query,
    QuerySet,
    arrival_times,
    generate_query_arrays,
    generate_query_set,
)
from repro.data.zipf import ZipfSampler
from repro.experiments.setup import (
    build_regions,
    build_schedulers,
    follow_the_sun_scenario,
)
from repro.hardware.catalog import GPU_V100
from repro.hardware.topology import ETHERNET_25G
from repro.models.configs import KAGGLE
from repro.serving.cluster import ClusterSimulator
from repro.serving.controlplane import ControlPlane
from repro.serving.fastpath import serve_arrays
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import ServingScenario

# ---- the production-day node stream (node-kernel, node-fastday) ----------

DAY_QPS = 24_000.0
DAY_AMPLITUDE = 0.6
NODE_SLA_S = 0.010
NODE_BATCH = dict(max_batch_size=128, batch_timeout_s=0.004)
KERNEL_QUERIES = 200_000
FASTDAY_QUERIES = 2_000_000


def _day_kwargs(n_queries: int) -> dict:
    """One compressed diurnal day spanning the whole stream."""
    return dict(
        qps=DAY_QPS, process="diurnal", amplitude=DAY_AMPLITUDE,
        period_s=n_queries / DAY_QPS,
    )


@dataclass
class Outcome:
    """One repetition's façade result and its ``summary()``."""

    result: object
    summary: dict


class NodeKernel:
    """KAGGLE mp-rec on the event kernel, energy on, record sink."""

    name = "node-kernel"

    def setup(self, seed: int) -> dict:
        scheduler = build_schedulers(KAGGLE)["mp-rec"]
        queries = generate_query_set(
            KERNEL_QUERIES, seed=seed, **_day_kwargs(KERNEL_QUERIES)
        )
        return dict(
            sim=ServingSimulator(
                scheduler, track_energy=True, shed_policy="deadline-aware",
                **NODE_BATCH,
            ),
            scenario=ServingScenario(queries=queries, sla_s=NODE_SLA_S),
            n=KERNEL_QUERIES,
        )

    def run(self, state: dict) -> Outcome:
        result = state["sim"].run(state["scenario"])
        return Outcome(result, result.summary())

    def serving(self, outcome: Outcome):
        return outcome.result

    def counters(self, outcome: Outcome) -> dict:
        records = outcome.result.records
        dropped = sum(1 for r in records if r.dropped)
        return dict(records=len(records), dropped=dropped,
                    paths=len({r.path_label for r in records if not r.dropped}))

    def check(self, state: dict, outcome: Outcome) -> list[str]:
        records = outcome.result.records
        failed = []
        if sorted(r.index for r in records) != list(range(state["n"])):
            failed.append("every query accounted exactly once")
        drop_rate = outcome.result.drop_rate
        if not 0.0 < drop_rate < 0.05:
            failed.append(f"drop rate {drop_rate:.4f} not in (0, 5%)")
        if self.counters(outcome)["paths"] < 2:
            failed.append("fewer than 2 paths served")
        return failed


class NodeFastday:
    """The node-kernel stream shape through ``serve_arrays``, streaming."""

    name = "node-fastday"

    def setup(self, seed: int) -> dict:
        scheduler = build_schedulers(KAGGLE)["mp-rec"]
        arrays = generate_query_arrays(
            FASTDAY_QUERIES, seed=seed, **_day_kwargs(FASTDAY_QUERIES)
        )
        return dict(scheduler=scheduler, arrays=arrays, n=FASTDAY_QUERIES)

    def run(self, state: dict) -> Outcome:
        metrics = serve_arrays(
            state["scheduler"], state["arrays"], sla_s=NODE_SLA_S,
            shed_policy="deadline-aware", track_energy=True, **NODE_BATCH,
        )
        return Outcome(metrics, metrics.summary())

    def serving(self, outcome: Outcome):
        return outcome.result

    def counters(self, outcome: Outcome) -> dict:
        m = outcome.result
        return dict(n=m.n, dropped=m.n_dropped, violations=m.n_violations,
                    samples=m.total_samples)

    def check(self, state: dict, outcome: Outcome) -> list[str]:
        m = outcome.result
        failed = []
        if m.n != state["n"]:
            failed.append(f"{m.n} outcomes for {state['n']} queries")
        if not 0.0 < m.drop_rate < 0.05:
            failed.append(f"drop rate {m.drop_rate:.4f} not in (0, 5%)")
        return failed


# ---- the elastic autopilot fleet (fleet-autopilot) -------------------------

FLEET_SLA_S = 0.015
FLEET_MIN, FLEET_MAX = 2, 6
FLEET_USERS = 20_000
FLEET_USER_ALPHA = 1.25
FLEET_SIZES = np.unique(np.geomspace(1, 4096, 33).astype(int)).astype(float)
FLEET_TABLES = [1_000_000, 800_000, 700_000, 600_000, 500_000, 400_000]


def _fleet_paths():
    """The Pareto bench's two synthetic representations (one device)."""

    def path(kind, rep_kwargs, accuracy, per_sample, label):
        return ExecutionPath(
            rep=RepresentationConfig(kind, 16, **rep_kwargs),
            device=GPU_V100,
            accuracy=accuracy,
            profile=PathProfile(
                sizes=FLEET_SIZES, latencies=0.0003 + per_sample * FLEET_SIZES
            ),
            label=label,
        )

    return (
        path("table", {}, 79.5, 0.0012, "ACCURATE"),
        path("dhe", dict(k=4, dnn=64, h=1), 78.0, 0.0004, "FAST"),
    )


def _fleet_queries(seed: int) -> QuerySet:
    """The Pareto bench's traffic with Zipf-skewed users: a compressed
    diurnal day (12 s) with a flash crowd on its rising edge, extended by
    half a day. The trough drains the fleet and the next rise makes it
    scale up again; one day alone only drains it."""
    rng = np.random.default_rng(seed)
    base = arrival_times(
        54_000, 3_000.0, rng=rng, process="diurnal", period_s=12.0,
        amplitude=0.75,
    )
    spike = 2.5 + arrival_times(18_000, 6_000.0, rng=rng)
    merged = np.sort(np.concatenate([base, spike]))
    users = ZipfSampler(
        FLEET_USERS, alpha=FLEET_USER_ALPHA, seed=seed
    ).sample(merged.size)
    return QuerySet(queries=[
        Query(index=i, size=1, arrival_s=t, user=u)
        for i, (t, u) in enumerate(zip(merged.tolist(), users.tolist()))
    ])


class FleetAutopilot:
    """Elastic 2..6-node cluster under the ControlPlane, cache tier on."""

    name = "fleet-autopilot"

    def setup(self, seed: int) -> dict:
        accurate, fast = _fleet_paths()
        switcher = SwitchController(
            candidates={GPU_V100.name: [accurate, fast]},
            load_s=0.002, teardown_s=0.0005, cooldown_s=0.25,
        )
        # Starting at 5 nodes, as the Pareto bench does: starting at the
        # 2-node floor makes the flash crowd's outcome swing between seeds.
        plane = ControlPlane(
            min_nodes=FLEET_MIN, max_nodes=FLEET_MAX, hi_pressure=0.75,
            lo_pressure=0.1, initial_nodes=5, patience=2, patience_down=48,
            cooldown_s=0.05,
        )
        cluster = ClusterSimulator(
            StaticScheduler([accurate]),
            greedy_shard(FLEET_TABLES, 16, FLEET_MAX),
            router="cache-affinity", replication=2, max_batch_size=16,
            batch_timeout_s=0.008, link=ETHERNET_25G,
            switch_controller=switcher, controlplane=plane,
            cache_bytes=4 << 20,
        )
        queries = _fleet_queries(seed)
        return dict(
            cluster=cluster,
            scenario=ServingScenario(queries=queries, sla_s=FLEET_SLA_S),
            n=len(queries),
        )

    def run(self, state: dict) -> Outcome:
        result = state["cluster"].run_streaming(state["scenario"])
        return Outcome(result, result.summary())

    def serving(self, outcome: Outcome):
        return outcome.result.result

    def counters(self, outcome: Outcome) -> dict:
        res = outcome.result
        m, cache = res.result, res.cache
        return dict(
            n=m.n, dropped=m.n_dropped, violations=m.n_violations,
            switches=res.switches, scale_ups=res.scale_ups,
            scale_downs=res.scale_downs, rerouted=res.rerouted,
            lost=res.lost, edge_drops=res.edge_drops,
            decisions=len(res.control_decisions),
            cache_lookups=cache.lookups, cache_hits=cache.hits,
            cache_misses=cache.misses, cache_fill_bytes=cache.fill_bytes,
            cache_warm_bytes=cache.warm_bytes,
            cache_rewarm_bytes=cache.rewarm_bytes,
            cache_donated_bytes=cache.donated_bytes,
        )

    def check(self, state: dict, outcome: Outcome) -> list[str]:
        res = outcome.result
        failed = []
        if res.result.n != state["n"]:
            failed.append(f"{res.result.n} outcomes for {state['n']} queries")
        failed += _cache_laws(res.cache, state["cluster"].cache_config.row_bytes)
        if res.switches < 1:
            failed.append("no representation switch")
        if res.scale_ups < 1 or res.scale_downs < 1:
            failed.append(
                f"scale-ups {res.scale_ups}, scale-downs {res.scale_downs}"
            )
        if not res.cache.hit_rate > 0.0:
            failed.append("cache hit rate is 0")
        return failed


# ---- the geo fleet with a region failure (geo-failover) -------------------

GEO_REGIONS = 3
GEO_NODES = 2
GEO_QUERIES = 10_000  # per region
GEO_QPS = 4_500.0


class GeoFailover:
    """3 KAGGLE regions x 2 nodes, spill routing, region 1 fails at 25%."""

    name = "geo-failover"

    def setup(self, seed: int) -> dict:
        scenario, region_of = follow_the_sun_scenario(
            n_regions=GEO_REGIONS, n_queries=GEO_QUERIES, qps=GEO_QPS,
            seed=seed,
        )
        fail_at = scenario.queries[len(scenario.queries) // 4].arrival_s
        sim = build_regions(
            KAGGLE, GEO_REGIONS, nodes_per_region=GEO_NODES,
            geo_router="spill", region_replication=2, fail_region=1,
            fail_at=fail_at, region_cache_bytes=1 << 20,
            cache_bytes=1 << 20, max_batch_size=16, batch_timeout_s=0.002,
        )
        return dict(sim=sim, scenario=scenario, region_of=region_of,
                    n=len(scenario.queries))

    def run(self, state: dict) -> Outcome:
        result = state["sim"].run(state["scenario"], state["region_of"])
        return Outcome(result, result.summary())

    def serving(self, outcome: Outcome):
        return outcome.result.result

    def counters(self, outcome: Outcome) -> dict:
        res = outcome.result
        records = res.result.records
        out = dict(
            records=len(records),
            dropped=sum(1 for r in records if r.dropped),
            spills=res.spills, rehomed=res.rehomed, rerouted=res.rerouted,
            lost=res.lost, edge_drops=res.edge_drops,
            spill_bytes=res.spill_bytes, rehome_bytes=res.rehome_bytes,
            wan_fill_bytes=res.wan_fill_bytes,
            served=sum(res.per_region_served),
            shed=sum(res.per_region_dropped),
        )
        for tier, stats in (("node", res.cache), ("wan", res.region_cache)):
            out.update({
                f"{tier}_cache_lookups": stats.lookups,
                f"{tier}_cache_hits": stats.hits,
                f"{tier}_cache_fill_bytes": stats.fill_bytes,
            })
        return out

    def check(self, state: dict, outcome: Outcome) -> list[str]:
        res = outcome.result
        sim = state["sim"]
        failed = []
        if sorted(r.index for r in res.result.records) != list(range(state["n"])):
            failed.append("every query accounted exactly once")
        failed += _cache_laws(res.cache, sim.regions[0][1].cache_config.row_bytes)
        failed += _cache_laws(
            res.region_cache, sim.regions[0][1].plan.dim * 4, tier="wan"
        )
        if res.wan_fill_bytes != res.region_cache.fill_bytes:
            failed.append("wan_fill_bytes != region_cache.fill_bytes")
        if res.lost != 0:
            failed.append(f"{res.lost} queries lost at replication 2")
        if res.spills <= 0 or res.rehomed <= 0:
            failed.append(f"spills {res.spills}, rehomed {res.rehomed}")
        return failed


def _cache_laws(stats, row_bytes: int, tier: str = "node") -> list[str]:
    """The cache tier's byte and row ledgers must balance exactly."""
    failed = []
    if stats.hits + stats.misses != stats.lookups:
        failed.append(f"{tier} cache: hits + misses != lookups")
    if stats.fill_bytes != stats.misses * row_bytes:
        failed.append(f"{tier} cache: fill_bytes != misses x row_bytes")
    return failed


WORKLOADS = {
    w.name: w
    for w in (NodeKernel(), NodeFastday(), FleetAutopilot(), GeoFailover())
}
