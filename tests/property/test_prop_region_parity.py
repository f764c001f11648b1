"""The parity oracle, one level up: regions against the cluster tier.

The PR-3 pattern (kernel == 1-node cluster) lifted to the geo tier: a
1-region :class:`~repro.serving.region.RegionSimulator` adds zero WAN
traffic and trivial geo-routing, so it must reproduce the wrapped
:class:`~repro.serving.cluster.ClusterSimulator` *record for record* —
across intra-region routers, shed policies, batch sizes, tenancy, and
both geo-router flavors.  And the exactly-once invariant extends across
regions: under arbitrary spilling and a mid-run region failure, every
query is observed exactly once globally and settled exactly one way
(served, shed, dropped at an edge, or lost — never duplicated, never
silently lost), with the WAN byte meters tied to the spill/re-home
counts by exact identities.
"""

from hypothesis import given, strategies as st

from tests.property.budget import prop_settings

from repro.analysis.sharding import greedy_shard
from repro.serving.cluster import ClusterSimulator
from repro.serving.region import RegionSimulator

from tests.property.test_prop_engine_parity import (
    batches,
    build_scenario,
    build_scheduler,
    gaps,
    policies,
    query_sizes,
    schedulers,
    slas,
    sorted_records,
)

routers = st.sampled_from(["round-robin", "least-loaded", "locality"])
geo_routers = st.sampled_from(["pinned", "spill"])


def two_node_cluster(scheduler, node_base=0, **kwargs):
    plan = greedy_shard([1000, 2000, 500], 16, 2)
    return ClusterSimulator(scheduler, plan, node_base=node_base, **kwargs)


# The fleet ledger's fields, which a 1-region fleet must reproduce.
LEDGER_FIELDS = (
    "node_seconds", "idle_energy_j", "wasted_energy_j", "rerouted", "lost",
    "edge_drops", "cache",
)


@prop_settings(30)
@given(gaps=gaps, sizes=query_sizes, sla=slas, policy=policies,
       batch=batches, sched_kind=schedulers, router=routers,
       geo_router=geo_routers, tenants=st.booleans(),
       max_queue=st.sampled_from([0, 2]),
       cache_bytes=st.sampled_from([0, 64 * 1024]))
def test_one_region_matches_cluster_record_for_record(
    gaps, sizes, sla, policy, batch, sched_kind, router, geo_router, tenants,
    max_queue, cache_bytes,
):
    """A 1-region fleet is the cluster: same records, same fleet ledger
    (node-seconds, idle and wasted energy, reroutes, losses, edge drops,
    the node-cache roll-up) — with and without backpressure and the
    cache tier, whichever geo router is installed (one region leaves it
    no choice)."""
    scenario = build_scenario(gaps, sizes, sla, tenants=tenants)
    kwargs = dict(
        router=router, shed_policy=policy, max_batch_size=batch,
        batch_timeout_s=0.001, max_queue=max_queue, cache_bytes=cache_bytes,
    )
    cluster = two_node_cluster(build_scheduler(sched_kind), **kwargs)
    member = two_node_cluster(build_scheduler(sched_kind), **kwargs)
    geo = RegionSimulator([("solo", member)], geo_router=geo_router)
    expected = cluster.run(scenario)
    result = geo.run(scenario, [0] * len(scenario.queries))
    got = sorted_records(result.result)
    assert got == sorted_records(expected.result)
    for name in LEDGER_FIELDS:
        assert getattr(result, name) == getattr(expected, name), name
    assert result.wan_bytes == 0
    assert result.spills == 0 and result.rehomed == 0
    assert result.per_region_served[0] == sum(
        1 for r in got if not r.dropped
    )


@prop_settings(30)
@given(gaps=gaps, sizes=query_sizes, sla=slas, policy=policies,
       batch=batches, sched_kind=schedulers, geo_router=geo_routers,
       spill_margin=st.floats(min_value=0.0, max_value=1.0),
       replication=st.sampled_from([1, 2]),
       fail_frac=st.floats(min_value=0.1, max_value=0.9))
def test_every_query_accounted_exactly_once_across_regions(
    gaps, sizes, sla, policy, batch, sched_kind, geo_router,
    spill_margin, replication, fail_frac
):
    """Spill + failover never lose or duplicate a query, the WAN meters
    obey their exact identities, and replication >= 2 loses nothing."""
    scenario = build_scenario(gaps, sizes, sla)
    n = len(scenario.queries)
    region_of = [i % 3 for i in range(n)]
    horizon = scenario.queries.queries[-1].arrival_s or 1e-3
    regions = []
    for i in range(3):
        plan = greedy_shard([1000, 2000, 500], 16, 1)
        regions.append((
            f"r{i}",
            ClusterSimulator(
                build_scheduler(sched_kind), plan, node_base=i,
                shed_policy=policy, max_batch_size=batch,
                batch_timeout_s=0.001,
            ),
        ))
    sim = RegionSimulator(
        regions, geo_router=geo_router, spill_margin=spill_margin,
        region_replication=replication,
        fail_region=1, fail_at=horizon * fail_frac,
    )
    result = sim.run(scenario, region_of)
    assert sorted(r.index for r in result.result.records) == list(range(n))
    assert result.spill_bytes == result.spills * sim.bytes_per_query
    assert result.rehome_bytes == result.rehomed * sim.bytes_per_query
    if replication >= 2:
        assert result.lost == 0
        assert result.edge_drops == 0
    served = sum(1 for r in result.result.records if not r.dropped)
    assert served == sum(result.per_region_served)
    # Each query is settled exactly one way, wherever it landed.
    assert served + sum(result.per_region_dropped) + result.edge_drops + (
        result.lost
    ) == n
