"""The parity oracle: random scenarios through kernel, reference, cluster.

The serving kernel (:mod:`repro.serving.engine`) backs both the
single-node :class:`~repro.serving.simulator.ServingSimulator` and the
:class:`~repro.serving.cluster.ClusterSimulator`; the seed per-query loop
is retained as :class:`~repro.serving.simulator.ReferenceSimulator`.
These properties pin the agreements across random small scenarios —
every shed policy, batching on and off, single- and multi-tenant:

- **kernel == 1-node cluster**, record for record, always (a 1-node
  cluster adds zero exchange and trivial routing, nothing else);
- **kernel == reference loop**, record for record, whenever the
  reference's semantics apply (batching disabled, ``none`` /
  ``drop-late`` shedding, single-tenant SLA);
- **elastic == static**, record for record, when the autoscale
  controller never fires (the elastic plumbing is a strict no-op), and
  the **zero-loss drain invariant**: a fleet forced through a
  2 -> 4 -> 2 membership cycle accounts every query exactly once;
- the **failover ledger**: a mid-run node failure settles every query
  exactly one way (served, shed, dropped at the edge, or lost);
- **fast path == kernel**, record for record, across every supported
  scheduler, shed policy, batch size, and tenancy (the array engine of
  :mod:`repro.serving.fastpath` replays the kernel's decision rules
  against precomputed batch plans — docs/serving.md), and the chunked
  :meth:`~repro.serving.metrics.StreamingMetrics.observe_many` folds the
  same outcomes as per-record ``observe``.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tests.property.budget import prop_settings

from repro.analysis.sharding import greedy_shard
from repro.core.online import (
    GreedyLatencyScheduler,
    MultiPathScheduler,
    StaticScheduler,
    TableSwitchScheduler,
)
from repro.data.queries import Query, QuerySet
from repro.hardware.catalog import CPU_BROADWELL, GPU_V100
from repro.serving.cluster import ClusterSimulator
from repro.serving.controlplane import ControlPlane
from repro.serving.metrics import P2Quantile, ReservoirSampler
from repro.serving.simulator import ReferenceSimulator, ServingSimulator
from repro.serving.workload import ServingScenario, TenantSpec

from tests.unit.test_online import fake_path

POLICIES = ("none", "drop-late", "deadline-aware")
BATCH_SIZES = (1, 8)

gaps = st.lists(
    st.floats(min_value=0.0, max_value=0.02), min_size=2, max_size=40
)
query_sizes = st.lists(
    st.integers(min_value=1, max_value=512), min_size=2, max_size=40
)
policies = st.sampled_from(POLICIES)
batches = st.sampled_from(BATCH_SIZES)
slas = st.floats(min_value=5e-4, max_value=0.05)
schedulers = st.sampled_from(["static", "multi"])
# The fast path compiles a dedicated router per built-in scheduler type;
# exercise every branch (plus the select_batch fallback via subclasses
# in tests/unit/test_fastpath.py).
fast_schedulers = st.sampled_from(["static", "multi", "tswitch", "greedy"])


def build_scheduler(kind):
    if kind == "static":
        return StaticScheduler(
            [fake_path("table", CPU_BROADWELL, 78.79, 2e-3, label="T")]
        )
    paths = [
        fake_path("table", CPU_BROADWELL, 78.79, 2e-3, label="T"),
        fake_path("hybrid", GPU_V100, 78.98, 4e-3, label="H"),
    ]
    if kind == "tswitch":
        return TableSwitchScheduler(paths)
    if kind == "greedy":
        return GreedyLatencyScheduler(paths)
    return MultiPathScheduler(paths)


def build_scenario(gaps, sizes, sla_s, tenants=False):
    n = min(len(gaps), len(sizes))
    arrival = 0.0
    queries = []
    for i in range(n):
        arrival += gaps[i]
        queries.append(Query(
            index=i, size=sizes[i], arrival_s=arrival,
            tenant=("even" if i % 2 == 0 else "odd") if tenants else "",
        ))
    scenario = ServingScenario(queries=QuerySet(queries=queries), sla_s=sla_s)
    if tenants:
        # Strict even tenant, lenient odd tenant.
        scenario.sla_by_tenant = {"even": sla_s, "odd": 10 * sla_s}
    return scenario


def one_node_cluster(scheduler, **kwargs):
    plan = greedy_shard([1000, 2000, 500], 16, 1)
    return ClusterSimulator(scheduler, plan, **kwargs)


def sorted_records(result):
    return sorted(result.records, key=lambda r: r.index)


COUNTER_METRICS = (
    "n", "n_dropped", "n_violations", "total_samples", "makespan_s",
    "raw_throughput", "correct_prediction_throughput",
    "compliant_correct_throughput", "achieved_qps", "violation_rate",
    "drop_rate", "mean_accuracy",
)


def counter_metrics(result):
    """Every metric formed from exact counters: all but energy and the
    latency percentiles."""
    out = {name: getattr(result, name) for name in COUNTER_METRICS}
    out["switching_breakdown"] = result.switching_breakdown()
    return out


@prop_settings(40)
@given(gaps=gaps, sizes=query_sizes, sla=slas, policy=policies,
       batch=batches, sched_kind=schedulers, tenants=st.booleans())
def test_kernel_matches_one_node_cluster(
    gaps, sizes, sla, policy, batch, sched_kind, tenants
):
    """Every policy x batch size x tenancy: the 1-node cluster reproduces
    the single-node kernel record for record."""
    scheduler = build_scheduler(sched_kind)
    scenario = build_scenario(gaps, sizes, sla, tenants=tenants)
    engine = ServingSimulator(
        scheduler, shed_policy=policy, max_batch_size=batch,
        batch_timeout_s=0.001,
    )
    cluster = one_node_cluster(
        scheduler, shed_policy=policy, max_batch_size=batch,
        batch_timeout_s=0.001,
    )
    expected = sorted_records(engine.run(scenario))
    got = sorted_records(cluster.run(scenario).result)
    assert got == expected


@prop_settings(40)
@given(gaps=gaps, sizes=query_sizes, sla=slas,
       policy=st.sampled_from(["none", "drop-late"]),
       sched_kind=schedulers)
def test_kernel_matches_reference_loop(gaps, sizes, sla, policy, sched_kind):
    """Batching disabled + seed policies: the kernel reproduces the seed
    per-query loop bit for bit, energy included."""
    scheduler = build_scheduler(sched_kind)
    scenario = build_scenario(gaps, sizes, sla)
    reference = ReferenceSimulator(scheduler, shed_policy=policy)
    engine = ServingSimulator(scheduler, shed_policy=policy)
    assert engine.run(scenario).records == reference.run(scenario).records


@prop_settings(25)
@given(gaps=gaps, sizes=query_sizes, sla=slas, policy=policies,
       batch=batches)
def test_streaming_counters_match_exact(gaps, sizes, sla, policy, batch):
    """The two sinks fold the same outcomes: counter metrics agree."""
    scheduler = build_scheduler("multi")
    scenario = build_scenario(gaps, sizes, sla, tenants=True)
    sim = ServingSimulator(
        scheduler, shed_policy=policy, max_batch_size=batch,
        batch_timeout_s=0.001,
    )
    exact = sim.run(scenario)
    stream = sim.run_streaming(scenario)
    assert stream.raw_throughput == exact.raw_throughput
    assert stream.violation_rate == exact.violation_rate
    assert stream.drop_rate == exact.drop_rate
    assert stream.switching_breakdown() == exact.switching_breakdown()


@prop_settings(25)
@given(gaps=gaps, sizes=query_sizes, sla=slas, policy=policies,
       batch=batches, tenants=st.booleans())
def test_every_query_accounted_exactly_once(
    gaps, sizes, sla, policy, batch, tenants
):
    """No query is lost or duplicated by batching, shedding, or tenancy."""
    scheduler = build_scheduler("multi")
    scenario = build_scenario(gaps, sizes, sla, tenants=tenants)
    sim = ServingSimulator(
        scheduler, shed_policy=policy, max_batch_size=batch,
        batch_timeout_s=0.001,
    )
    result = sim.run(scenario)
    assert sorted(r.index for r in result.records) == (
        [q.index for q in scenario.queries]
    )


@prop_settings(30)
@given(gaps=gaps, sizes=query_sizes, sla=slas, policy=policies,
       batch=batches, sched_kind=schedulers,
       router=st.sampled_from(["round-robin", "least-loaded", "locality"]),
       replication=st.sampled_from([1, 2]))
def test_scale_2_4_2_accounts_every_query_exactly_once(
    gaps, sizes, sla, policy, batch, sched_kind, router, replication
):
    """The zero-loss drain invariant: a fleet forced through a
    2 -> 4 -> 2 membership cycle (two joins, two drains, live shard
    handoff both ways) neither loses nor duplicates a single query."""
    scheduler = build_scheduler(sched_kind)
    scenario = build_scenario(gaps, sizes, sla)
    horizon = scenario.queries.queries[-1].arrival_s or 1e-3
    plane = ControlPlane(
        min_nodes=2, max_nodes=4,
        # No action class: the forced schedule drives membership.
        actions=(),
        schedule=(
            (horizon * 0.2, "up"), (horizon * 0.4, "up"),
            (horizon * 0.6, "down"), (horizon * 0.8, "down"),
        ),
    )
    plan = greedy_shard([1000, 2000, 500, 1500], 16, 4)
    cluster = ClusterSimulator(
        scheduler, plan, router=router, replication=replication,
        shed_policy=policy, max_batch_size=batch, batch_timeout_s=0.001,
        controlplane=plane,
    )
    result = cluster.run(scenario)
    assert result.scale_ups == 2 and result.scale_downs == 2
    assert result.lost == 0
    assert sorted(r.index for r in result.result.records) == (
        [q.index for q in scenario.queries]
    )


@prop_settings(30)
@given(gaps=gaps, sizes=query_sizes, sla=slas, policy=policies,
       batch=batches, sched_kind=schedulers,
       router=st.sampled_from(["round-robin", "least-loaded", "locality"]),
       replication=st.sampled_from([1, 2]),
       max_queue=st.sampled_from([0, 2]),
       fail_node=st.integers(min_value=0, max_value=3),
       fail_frac=st.floats(min_value=0.1, max_value=0.9))
def test_node_failure_accounts_every_query_exactly_once(
    gaps, sizes, sla, policy, batch, sched_kind, router, replication,
    max_queue, fail_node, fail_frac
):
    """The failover ledger: a node failing mid-run neither loses track of
    nor duplicates a query, and each is settled exactly one way — served,
    shed by the policy, dropped at the edge, or lost with its node — so
    the four counts sum to the query count.  Replication 2 survives the
    failure without a single loss."""
    scenario = build_scenario(gaps, sizes, sla)
    n = len(scenario.queries)
    horizon = scenario.queries.queries[-1].arrival_s or 1e-3
    plan = greedy_shard([1000, 2000, 500, 1500], 16, 4)
    cluster = ClusterSimulator(
        build_scheduler(sched_kind), plan, router=router,
        replication=replication, shed_policy=policy, max_batch_size=batch,
        batch_timeout_s=0.001, max_queue=max_queue,
        fail_at=horizon * fail_frac, fail_node=fail_node,
    )
    result = cluster.run(scenario)
    assert result.failed_nodes == [fail_node]
    records = result.result.records
    assert sorted(r.index for r in records) == list(range(n))
    served = sum(result.per_node_served)
    assert served == sum(1 for r in records if not r.dropped)
    assert served + sum(result.per_node_dropped) + result.edge_drops + (
        result.lost
    ) == n
    if replication == 2:
        assert result.lost == 0


@prop_settings(30)
@given(gaps=gaps, sizes=query_sizes, sla=slas, policy=policies,
       batch=batches, sched_kind=schedulers, tenants=st.booleans())
def test_elastic_cluster_is_noop_when_controller_never_fires(
    gaps, sizes, sla, policy, batch, sched_kind, tenants
):
    """With min == max == initial membership the elastic plumbing (epoch
    state, the plane as dispatch observer, membership-aware routing) must
    be a strict no-op: the elastic fleet reproduces the static 4-node run
    record for record."""
    scheduler = build_scheduler(sched_kind)
    scenario = build_scenario(gaps, sizes, sla, tenants=tenants)
    plan = greedy_shard([1000, 2000, 500, 1500], 16, 4)
    static = ClusterSimulator(
        scheduler, plan, shed_policy=policy, max_batch_size=batch,
        batch_timeout_s=0.001,
    )
    elastic = ClusterSimulator(
        scheduler, plan, shed_policy=policy, max_batch_size=batch,
        batch_timeout_s=0.001,
        controlplane=ControlPlane(
            min_nodes=4, max_nodes=4, actions=("scale",)
        ),
    )
    expected = sorted_records(static.run(scenario).result)
    got = sorted_records(elastic.run(scenario).result)
    assert got == expected


@prop_settings(40)
@given(gaps=gaps, sizes=query_sizes, sla=slas, policy=policies,
       batch=batches, sched_kind=fast_schedulers, tenants=st.booleans())
def test_fastpath_matches_kernel_record_for_record(
    gaps, sizes, sla, policy, batch, sched_kind, tenants
):
    """Every scheduler x policy x batch size x tenancy: the array fast
    path reproduces the event kernel bit for bit — same floats, same
    commit order, energy and per-tenant SLA stamps included."""
    scenario = build_scenario(gaps, sizes, sla, tenants=tenants)
    event = ServingSimulator(
        build_scheduler(sched_kind), shed_policy=policy,
        max_batch_size=batch, batch_timeout_s=0.001,
    )
    fast = ServingSimulator(
        build_scheduler(sched_kind), shed_policy=policy,
        max_batch_size=batch, batch_timeout_s=0.001, engine="fast",
    )
    assert fast.run(scenario).records == event.run(scenario).records


@prop_settings(25)
@given(gaps=gaps, sizes=query_sizes, sla=slas, policy=policies,
       batch=batches, tenants=st.booleans())
def test_fastpath_streaming_counters_match_kernel(
    gaps, sizes, sla, policy, batch, tenants
):
    """The fast path's bulk ``observe_many`` fold, the kernel's
    per-outcome streaming sink and the kernel's record-backed result
    report every counter metric bit for bit; energy, the one float sum
    that depends on fold order, agrees to rounding."""
    scenario = build_scenario(gaps, sizes, sla, tenants=tenants)
    event = ServingSimulator(
        build_scheduler("multi"), shed_policy=policy,
        max_batch_size=batch, batch_timeout_s=0.001,
    )
    fast = ServingSimulator(
        build_scheduler("multi"), shed_policy=policy,
        max_batch_size=batch, batch_timeout_s=0.001, engine="fast",
    )
    expected = event.run_streaming(scenario)
    got = fast.run_streaming(scenario)
    assert got.raw_throughput == expected.raw_throughput
    assert got.violation_rate == expected.violation_rate
    assert got.drop_rate == expected.drop_rate
    assert got.mean_accuracy == expected.mean_accuracy
    assert got.correct_prediction_throughput == (
        expected.correct_prediction_throughput
    )
    assert got.compliant_correct_throughput == (
        expected.compliant_correct_throughput
    )
    assert got.total_energy_j == pytest.approx(
        expected.total_energy_j, rel=1e-12, abs=0.0
    )
    assert got.switching_breakdown() == expected.switching_breakdown()
    records = event.run(scenario)
    for streamed in (expected, got):
        assert counter_metrics(streamed) == counter_metrics(records)
        assert streamed.total_energy_j == pytest.approx(
            records.total_energy_j, rel=1e-12, abs=0.0
        )


@prop_settings(20)
@given(
    base=st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=8, max_size=48
    ),
    q=st.sampled_from([0.5, 0.95, 0.99]),
)
def test_observe_many_equals_per_observe(base, q):
    """Chunked quantile folding agrees with the per-sample estimator.

    The reservoir consumes the identical RNG stream, so its samples are
    bit-equal; the P² markers follow a count-weighted blend, so the
    estimate is pinned to a tolerance (and the min/max markers exactly).
    """
    # Tile the drawn values into a >= 256-element stream so observe_many
    # takes the chunked sorted-block path, not the small-chunk replay.
    xs = np.tile(np.asarray(base, dtype=np.float64), 40)
    xs *= np.linspace(1.0, 1.5, xs.size)

    one = P2Quantile(q)
    for x in xs.tolist():
        one.observe(x)
    many = P2Quantile(q)
    many.observe_many(xs)
    truth = float(np.quantile(xs, q))
    spread = float(xs.max() - xs.min()) or 1.0
    assert abs(many.value - truth) <= abs(one.value - truth) + 0.05 * spread

    r_one = ReservoirSampler(capacity=64, seed=3)
    for x in xs.tolist():
        r_one.observe(x)
    r_many = ReservoirSampler(capacity=64, seed=3)
    r_many.observe_many(xs)
    assert r_many._sample == r_one._sample
