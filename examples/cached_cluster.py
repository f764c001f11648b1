"""Tour of the cluster MP-Cache tier: per-node hot-row caches under real
routing, switching, and elastic membership.

    python examples/cached_cluster.py [--queries 40000]

Three exhibits:
  1. The skewed-traffic showdown — a fixed fleet serving Zipf-skewed
     user traffic under locality routing (the hot group's owner drowns),
     cache-oblivious least-loaded routing (spreads, but pays cold
     fetches), and cache-affinity routing (spreads to cache-warm nodes).
  2. The accounting — every row lookup split into hits and misses,
     every fill byte priced over the fabric, straight from the run's
     `CacheStats`.
  3. Warm-on-join — an elastic fleet whose scale-up streams the joining
     node's cache warm alongside its shard slice, and whose drain
     donates its hot set to the survivors.
"""

import argparse

import numpy as np

from repro.analysis.sharding import greedy_shard
from repro.core.online import StaticScheduler
from repro.core.paths import ExecutionPath, PathProfile
from repro.core.representations import RepresentationConfig
from repro.data.queries import Query, QuerySet, arrival_times
from repro.data.zipf import ZipfSampler
from repro.hardware.catalog import GPU_V100
from repro.hardware.topology import ETHERNET_25G
from repro.serving.cluster import ClusterSimulator, ShardMap
from repro.serving.controlplane import ControlPlane
from repro.serving.workload import ServingScenario

SLA_S = 0.015
N_NODES = 4
DIM = 32
CARDINALITIES = [2_000_000, 1_500_000, 1_200_000, 1_000_000, 800_000, 500_000]
CACHE_MB = 16


def header(title: str) -> None:
    print(f"\n=== {title} ===")


def node_path() -> ExecutionPath:
    """A synthetic per-node serving path (~4.6k QPS at full batches)."""
    sizes = np.unique(np.geomspace(1, 4096, 33).astype(int)).astype(float)
    return ExecutionPath(
        rep=RepresentationConfig("table", DIM),
        device=GPU_V100,
        accuracy=79.0,
        profile=PathProfile(sizes=sizes, latencies=0.0004 + 3e-6 * sizes),
        label="TABLE",
    )


def skewed_scenario(n_queries: int) -> ServingScenario:
    """A diurnal cycle of heavy-user traffic: a few users (and therefore
    a few shard groups) dominate."""
    rng = np.random.default_rng(11)
    arrivals = arrival_times(
        n_queries, 8_000.0, rng=rng, process="diurnal",
        period_s=5.0, amplitude=0.7,
    )
    users = ZipfSampler(20_000, alpha=1.25, seed=3).sample(n_queries)
    queries = [
        Query(index=i, size=64, arrival_s=float(t), user=int(u))
        for i, (t, u) in enumerate(zip(arrivals, users))
    ]
    return ServingScenario(queries=QuerySet(queries=queries), sla_s=SLA_S)


def make_cluster(router: str, cache_mb: int, plane=None, n_nodes=N_NODES):
    plan = greedy_shard(CARDINALITIES, DIM, n_nodes)
    return ClusterSimulator(
        StaticScheduler([node_path()]), plan, router=router, replication=1,
        link=ETHERNET_25G, max_batch_size=16, batch_timeout_s=0.004,
        cache_bytes=cache_mb * 2**20, controlplane=plane,
    )


def row(label: str, cluster) -> None:
    res = cluster.result
    cache = cluster.cache
    line = (
        f"{label:28s} violations={res.violation_rate * 100:5.1f}% "
        f"p99={res.p99_latency_s * 1e3:7.1f} ms"
    )
    if cache is not None and cache.lookups:
        line += (
            f"  hit rate={cache.hit_rate * 100:5.1f}% "
            f"fills={cache.fill_bytes / 2**20:6.1f} MB"
        )
    print(line)


def showdown(scenario) -> ClusterSimulator:
    header("1. Fixed fleet, skewed traffic: three routers")
    shard_map = ShardMap.from_plan(greedy_shard(CARDINALITIES, DIM, N_NODES), 1)
    share = np.bincount(
        [shard_map.group_of(q) for q in scenario.queries], minlength=N_NODES
    ) / len(scenario.queries)
    print(
        "shard-group traffic share:   "
        + "  ".join(f"g{g}={s * 100:.0f}%" for g, s in enumerate(share))
    )
    locality = make_cluster("locality", CACHE_MB).run(scenario)
    oblivious = make_cluster("least-loaded", 0).run(scenario)
    affinity_sim = make_cluster("cache-affinity", CACHE_MB)
    affinity = affinity_sim.run(scenario)
    row("locality (cache idle)", locality)
    row("least-loaded, no cache", oblivious)
    row("cache-affinity + cache", affinity)
    print(
        f"{'':28s} locality pins the hot group on one owner; "
        "cache-affinity spreads it to warm nodes"
    )
    return affinity_sim, affinity


def accounting(sim, cluster) -> None:
    header("2. The accounting (every fill byte explained)")
    c = cluster.cache
    row_bytes = sim.cache_config.row_bytes
    print(f"row lookups offered          {c.lookups:>12,}")
    print(f"  hits (local DRAM reads)    {c.hits:>12,}  "
          f"({c.hit_bytes / 2**20:.1f} MB, {c.hit_s * 1e3:.2f} ms charged)")
    print(f"  misses (fabric fills)      {c.misses:>12,}  "
          f"({c.fill_bytes / 2**20:.1f} MB over {sim.link.name})")
    assert c.hits + c.misses == c.lookups
    assert c.fill_bytes == c.misses * row_bytes
    print("identities: hits + misses == lookups; "
          "fill bytes == misses x row bytes  [exact]")


def warm_on_join(n_queries: int) -> None:
    header("3. Elastic fleet: joins warm their cache, drains donate")
    # The scale rule joins under pressure; the schedule forces a drain.
    plane = ControlPlane(
        min_nodes=2, max_nodes=N_NODES, actions=("scale",), patience=8,
        cooldown_s=0.5, schedule=((1.5, "up"), (6.5, "down")),
    )
    scenario = skewed_scenario(n_queries)
    cluster = make_cluster("cache-affinity", CACHE_MB, plane=plane).run(
        scenario
    )
    row("elastic 2..4 + cache", cluster)
    for event in cluster.scale_events:
        if event.kind == "up":
            print(
                f"  t={event.time_s:5.2f} s  join: warmed "
                f"{event.warm_bytes / 2**20:7.1f} MB shard slice + "
                f"{event.cache_warm_bytes / 2**20:5.1f} MB cache "
                f"in {event.warm_s * 1e3:.1f} ms"
            )
        else:
            print(
                f"  t={event.time_s:5.2f} s  drain: donated "
                f"{event.cache_donated_bytes / 2**20:5.1f} MB of hot rows "
                f"to the survivors, re-injected {event.reinjected} queries"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=40_000)
    args = parser.parse_args()

    scenario = skewed_scenario(args.queries)
    sim, affinity = showdown(scenario)
    accounting(sim, affinity)
    warm_on_join(args.queries // 2)


if __name__ == "__main__":
    main()
