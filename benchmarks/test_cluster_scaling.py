"""Cluster serving: throughput scaling 1 -> 8 nodes and failover drills.

The scale-out argument of Section 6.9, run through the live cluster
simulator instead of the analytical ZionEX model: a saturating query
stream is served by 1/2/4/8-node clusters under the shard-locality
router, pinning near-linear raw-throughput scaling (>= 3x at 8 nodes,
the all-to-all exchange and the tail batches eat the rest).  A second
drill kills a node mid-run and pins that replication >= 2 completes with
zero lost in-flight queries, while an unreplicated cluster visibly
bleeds.
"""

from conftest import fmt_row

from repro.experiments.setup import build_cluster
from repro.hardware.topology import ETHERNET_25G
from repro.models.configs import KAGGLE
from repro.serving.workload import ServingScenario

# Saturating load: arrivals land ~20x faster than one node drains them,
# so makespan — and therefore raw throughput — is service-bound and the
# cluster's extra nodes translate directly into finished work.
SATURATED = dict(n_queries=6000, qps=500_000.0)
NODES = (1, 2, 4, 8)
BATCHING = dict(max_batch_size=32, batch_timeout_s=0.0005)


def _throughputs(router: str) -> dict[int, float]:
    scenario = ServingScenario.paper_default(**SATURATED)
    results = {}
    for n in NODES:
        cluster = build_cluster(
            KAGGLE, n, router=router, replication=min(2, n), **BATCHING,
        ).run(scenario)
        results[n] = cluster.result.raw_throughput
    return results


def test_cluster_throughput_scaling(benchmark, record):
    tputs = benchmark.pedantic(
        lambda: _throughputs("locality"), rounds=1, iterations=1
    )

    lines = []
    for n in NODES:
        lines.append(
            fmt_row(
                f"{n} nodes (locality)",
                samples_per_s=tputs[n],
                speedup=tputs[n] / tputs[1],
            )
        )
    record("Cluster raw-throughput scaling, locality router", lines)

    # Monotone scaling, and >= 3x at 8 nodes (acceptance floor; measured
    # ~6x — the remainder is exchange latency plus the tail batches).
    assert tputs[2] > tputs[1]
    assert tputs[4] > tputs[2]
    assert tputs[8] > tputs[4]
    assert tputs[8] >= 3.0 * tputs[1]


def test_locality_beats_oblivious_routing_on_slow_links(record):
    # On a thin fabric the all-to-all dominates; routing each query to a
    # replica that owns its hot shard keeps most bytes local.
    scenario = ServingScenario.paper_default(**SATURATED)
    results = {
        router: build_cluster(
            KAGGLE, 8, router=router, replication=2, link=ETHERNET_25G,
            **BATCHING,
        ).run(scenario).result
        for router in ("round-robin", "locality")
    }
    record(
        "8-node cluster on 25 GbE: locality vs round-robin",
        [
            fmt_row(
                router,
                samples_per_s=res.raw_throughput,
                p99_ms=res.p99_latency_s * 1e3,
            )
            for router, res in results.items()
        ],
    )
    assert (
        results["locality"].raw_throughput
        > results["round-robin"].raw_throughput
    )


def test_failover_with_replication_loses_nothing(record):
    scenario = ServingScenario.paper_default(n_queries=3000, qps=100_000.0)
    fail_at = scenario.queries.queries[1500].arrival_s
    replicated = build_cluster(
        KAGGLE, 4, router="locality", replication=2, fail_at=fail_at,
        fail_node=1, **BATCHING,
    ).run(scenario)
    unreplicated = build_cluster(
        KAGGLE, 4, router="locality", replication=1, fail_at=fail_at,
        fail_node=1, **BATCHING,
    ).run(scenario)
    record(
        "Node-failure drill at mid-run (4 nodes, fail node 1)",
        [
            fmt_row(
                "replication=2",
                rerouted=replicated.rerouted,
                lost=replicated.lost,
                drop_rate=replicated.result.drop_rate,
            ),
            fmt_row(
                "replication=1",
                rerouted=unreplicated.rerouted,
                lost=unreplicated.lost,
                edge_drops=unreplicated.edge_drops,
                drop_rate=unreplicated.result.drop_rate,
            ),
        ],
    )

    # Replication >= 2: zero lost in-flight queries, every query served.
    assert replicated.lost == 0
    assert replicated.rerouted > 0
    assert replicated.result.drop_rate == 0.0
    indices = sorted(r.index for r in replicated.result.records)
    assert indices == list(range(len(scenario.queries)))

    # Replication 1: the dead node's shards are gone and it shows.
    assert unreplicated.lost + unreplicated.edge_drops > 0
    assert unreplicated.result.drop_rate > 0.0
