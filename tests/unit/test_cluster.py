"""Cluster simulator: shard map, equivalence, failover, backpressure,
and the elastic fleet's counted routing and control work."""

from collections import Counter

import numpy as np
import pytest

from tests.unit.test_fastpath import count_calls

from repro.analysis.sharding import greedy_shard
from repro.core.online import StaticScheduler
from repro.core.paths import ExecutionPath, PathProfile
from repro.core.representations import RepresentationConfig
from repro.core.switching import SwitchController
from repro.data.queries import Query, QuerySet, arrival_times
from repro.data.zipf import ZipfSampler
from repro.experiments.setup import (
    build_cluster,
    build_regions,
    build_schedulers,
)
from repro.hardware.catalog import GPU_V100
from repro.hardware.topology import ETHERNET_25G
from repro.models.configs import KAGGLE
from repro.serving import cluster as cluster_module
from repro.serving import controlplane as controlplane_module
from repro.serving import routing as routing_module
from repro.serving.cluster import ClusterSimulator, ShardMap
from repro.serving.controlplane import _FLEET, ControlPlane
from repro.serving.engine import EngineCore
from repro.serving.routing import CacheAffinityRouter
from repro.serving.signals import Hysteresis
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import ServingScenario


def _scenario(n_queries=400, qps=20_000.0, **kwargs):
    return ServingScenario.paper_default(
        n_queries=n_queries, qps=qps, **kwargs
    )


@pytest.fixture(scope="module")
def mp_rec():
    return build_schedulers(KAGGLE)["mp-rec"]


class TestShardMap:
    def test_owners_chain_replicas(self):
        plan = greedy_shard(KAGGLE.cardinalities, 16, 4)
        shard = ShardMap.from_plan(plan, replication=2)
        assert shard.owners[0] == frozenset({0, 1})
        assert shard.owners[3] == frozenset({3, 0})  # wraps

    def test_single_node_everything_local(self):
        plan = greedy_shard(KAGGLE.cardinalities, 16, 1)
        shard = ShardMap.from_plan(plan)
        assert shard.cold_local_share == (1.0,)
        assert shard.remote_bytes_per_sample(0, 0) == 0.0

    def test_owner_pays_less_exchange(self):
        plan = greedy_shard(KAGGLE.cardinalities, 16, 4)
        shard = ShardMap.from_plan(plan, replication=1, hot_fraction=0.5)
        group = 2
        owner = next(iter(shard.owners[group]))
        outsider = (owner + 1) % 4
        assert shard.remote_bytes_per_sample(
            owner, group
        ) < shard.remote_bytes_per_sample(outsider, group)

    def test_replication_shrinks_remote_bytes(self):
        plan = greedy_shard(KAGGLE.cardinalities, 16, 4)
        r1 = ShardMap.from_plan(plan, replication=1)
        r2 = ShardMap.from_plan(plan, replication=2)
        assert r2.remote_bytes_per_sample(0, 1) <= r1.remote_bytes_per_sample(0, 1)

    def test_group_of_is_deterministic_and_in_range(self):
        plan = greedy_shard(KAGGLE.cardinalities, 16, 8)
        shard = ShardMap.from_plan(plan)
        queries = _scenario(n_queries=100).queries
        groups = [shard.group_of(q) for q in queries]
        assert groups == [shard.group_of(q) for q in queries]
        assert all(0 <= g < 8 for g in groups)
        assert len(set(groups)) > 1  # spreads across groups

    def test_coverage(self):
        plan = greedy_shard(KAGGLE.cardinalities, 16, 4)
        r1 = ShardMap.from_plan(plan, replication=1)
        r2 = ShardMap.from_plan(plan, replication=2)
        assert r1.coverage_ok({0, 1, 2, 3})
        assert not r1.coverage_ok({0, 1, 3})
        assert r2.coverage_ok({0, 1, 3})
        assert not r2.coverage_ok({0})

    def test_row_split_features_are_only_fractionally_local(self):
        # One table row-split across all 4 nodes: each node holds ~1/4 of
        # the rows, so a lookup is local with probability ~1/4 — the map
        # must not credit full locality to every host.
        rows = 1_000_000
        plan = greedy_shard([rows], 16, 4, node_capacity_bytes=rows * 16)
        assert len(plan.assignment[0]) == 4  # genuinely row-split
        shard = ShardMap.from_plan(plan, replication=1, hot_fraction=0.0)
        for node in range(4):
            assert shard.cold_local_share[node] == pytest.approx(0.25)
            assert shard.remote_bytes_per_sample(node, 0) == pytest.approx(
                0.75 * shard.bytes_per_sample
            )

    def test_validation(self):
        plan = greedy_shard(KAGGLE.cardinalities, 16, 4)
        with pytest.raises(ValueError):
            ShardMap.from_plan(plan, replication=0)
        with pytest.raises(ValueError):
            ShardMap.from_plan(plan, replication=5)
        with pytest.raises(ValueError):
            ShardMap.from_plan(plan, hot_fraction=1.5)


class TestSingleNodeEquivalence:
    """A 1-node cluster must reproduce the single-node engine exactly."""

    @pytest.mark.parametrize("batch", [1, 16])
    def test_records_match_engine(self, mp_rec, batch):
        scenario = _scenario()
        engine = ServingSimulator(
            mp_rec, max_batch_size=batch, batch_timeout_s=0.001
        )
        plan = greedy_shard(KAGGLE.cardinalities, KAGGLE.embedding_dim, 1)
        cluster = ClusterSimulator(
            mp_rec, plan, max_batch_size=batch, batch_timeout_s=0.001
        )
        expected = sorted(engine.run(scenario).records, key=lambda r: r.index)
        got = sorted(cluster.run(scenario).result.records, key=lambda r: r.index)
        assert got == expected

    def test_records_match_with_shedding(self, mp_rec):
        scenario = _scenario(qps=60_000.0)
        engine = ServingSimulator(mp_rec, shed_policy="deadline-aware")
        plan = greedy_shard(KAGGLE.cardinalities, KAGGLE.embedding_dim, 1)
        cluster = ClusterSimulator(mp_rec, plan, shed_policy="deadline-aware")
        expected = sorted(engine.run(scenario).records, key=lambda r: r.index)
        got = sorted(cluster.run(scenario).result.records, key=lambda r: r.index)
        assert got == expected


class TestClusterServing:
    def test_every_query_served_once(self, mp_rec):
        scenario = _scenario()
        plan = greedy_shard(KAGGLE.cardinalities, KAGGLE.embedding_dim, 4)
        cluster = ClusterSimulator(
            mp_rec, plan, router="least-loaded", replication=2,
            max_batch_size=8, batch_timeout_s=0.001,
        )
        result = cluster.run(scenario)
        indices = sorted(r.index for r in result.result.records)
        assert indices == list(range(len(scenario.queries)))
        assert result.result.drop_rate == 0.0
        assert sum(result.per_node_served) == len(scenario.queries)

    def test_slower_link_hurts_latency(self, mp_rec):
        scenario = _scenario()
        plan = greedy_shard(KAGGLE.cardinalities, KAGGLE.embedding_dim, 4)
        fast = ClusterSimulator(mp_rec, plan, max_batch_size=8).run(scenario)
        slow = ClusterSimulator(
            mp_rec, plan, max_batch_size=8, link=ETHERNET_25G
        ).run(scenario)
        assert slow.result.p50_latency_s > fast.result.p50_latency_s

    def test_streaming_matches_exact_counters(self, mp_rec):
        scenario = _scenario()
        plan = greedy_shard(KAGGLE.cardinalities, KAGGLE.embedding_dim, 4)
        kwargs = dict(router="locality", replication=2, max_batch_size=8)
        exact = ClusterSimulator(mp_rec, plan, **kwargs).run(scenario)
        stream = ClusterSimulator(mp_rec, plan, **kwargs).run_streaming(scenario)
        assert stream.result.n == len(exact.result.records)
        assert stream.result.raw_throughput == pytest.approx(
            exact.result.raw_throughput
        )
        assert stream.result.violation_rate == pytest.approx(
            exact.result.violation_rate
        )

    def test_backpressure_sheds_at_the_edge(self, mp_rec):
        scenario = _scenario(qps=100_000.0)
        plan = greedy_shard(KAGGLE.cardinalities, KAGGLE.embedding_dim, 2)
        cluster = ClusterSimulator(mp_rec, plan, max_queue=4).run(scenario)
        assert cluster.edge_drops > 0
        assert cluster.result.drop_rate > 0.0
        # Edge drops and served queries account for every query.
        assert cluster.edge_drops + sum(cluster.per_node_served) == len(
            scenario.queries
        )

    def test_summary_merges_cluster_fields(self, mp_rec):
        plan = greedy_shard(KAGGLE.cardinalities, KAGGLE.embedding_dim, 2)
        summary = ClusterSimulator(mp_rec, plan).run(_scenario()).summary()
        assert summary["n_nodes"] == 2
        assert "raw_tput" in summary and "rerouted" in summary


class TestFailover:
    def test_replicated_failover_loses_nothing(self, mp_rec):
        scenario = _scenario()
        plan = greedy_shard(KAGGLE.cardinalities, KAGGLE.embedding_dim, 4)
        cluster = ClusterSimulator(
            mp_rec, plan, router="locality", replication=2,
            max_batch_size=8, batch_timeout_s=0.001,
            fail_at=scenario.queries.queries[200].arrival_s, fail_node=1,
        ).run(scenario)
        assert cluster.failed_nodes == [1]
        assert cluster.lost == 0
        assert cluster.rerouted > 0
        assert cluster.result.drop_rate == 0.0
        indices = sorted(r.index for r in cluster.result.records)
        assert indices == list(range(len(scenario.queries)))

    def test_unreplicated_failure_loses_coverage(self, mp_rec):
        scenario = _scenario()
        plan = greedy_shard(KAGGLE.cardinalities, KAGGLE.embedding_dim, 4)
        cluster = ClusterSimulator(
            mp_rec, plan, replication=1, max_batch_size=8,
            batch_timeout_s=0.001,
            fail_at=scenario.queries.queries[200].arrival_s, fail_node=0,
        ).run(scenario)
        # The dead node's shards are gone: displaced + later queries drop.
        assert cluster.lost + cluster.edge_drops > 0
        assert cluster.result.drop_rate > 0.0
        # Every query is still accounted for (served or dropped).
        assert len(cluster.result.records) == len(scenario.queries)

    def test_failover_under_backpressure_accounts_each_query_once(self, mp_rec):
        # A displaced query that backpressure then sheds at the edge must
        # count as an edge drop, not as a successful reroute.
        scenario = _scenario(qps=100_000.0)
        plan = greedy_shard(KAGGLE.cardinalities, KAGGLE.embedding_dim, 4)
        cluster = ClusterSimulator(
            mp_rec, plan, replication=2, max_batch_size=8,
            batch_timeout_s=0.001, max_queue=8,
            fail_at=scenario.queries.queries[100].arrival_s, fail_node=0,
        ).run(scenario)
        assert len(cluster.result.records) == len(scenario.queries)
        indices = sorted(r.index for r in cluster.result.records)
        assert indices == list(range(len(scenario.queries)))
        served = sum(cluster.per_node_served)
        dropped = sum(
            1 for r in cluster.result.records if r.dropped
        )
        assert served + dropped == len(scenario.queries)

    def test_wasted_energy_counted(self, mp_rec):
        # The seeded scenario saturates node 0 by t=5ms, so the failure
        # abandons dispatched batches mid-execution: their energy must be
        # tallied as waste.
        scenario = _scenario()
        plan = greedy_shard(KAGGLE.cardinalities, KAGGLE.embedding_dim, 4)
        cluster = ClusterSimulator(
            mp_rec, plan, replication=2, max_batch_size=8,
            batch_timeout_s=0.001, fail_at=0.005, fail_node=0,
        ).run(scenario)
        assert cluster.rerouted > 0
        assert cluster.wasted_energy_j > 0.0

    def test_router_instance_reused_across_runs_stays_deterministic(self, mp_rec):
        from repro.serving.routing import RoundRobinRouter

        scenario = _scenario(n_queries=200)
        plan = greedy_shard(KAGGLE.cardinalities, KAGGLE.embedding_dim, 3)
        sim = ClusterSimulator(mp_rec, plan, router=RoundRobinRouter())
        first = sim.run(scenario)
        second = sim.run(scenario)
        assert first.per_node_served == second.per_node_served


class TestValidation:
    def test_scheduler_count_must_match_nodes(self, mp_rec):
        plan = greedy_shard(KAGGLE.cardinalities, 16, 4)
        with pytest.raises(ValueError, match="one scheduler per node"):
            ClusterSimulator([mp_rec, mp_rec], plan)

    def test_fail_node_in_range(self, mp_rec):
        plan = greedy_shard(KAGGLE.cardinalities, 16, 2)
        with pytest.raises(ValueError, match="fail_node"):
            ClusterSimulator(mp_rec, plan, fail_at=0.1, fail_node=2)

    def test_fail_node_must_be_an_integer_id(self, mp_rec):
        plan = greedy_shard(KAGGLE.cardinalities, 16, 2)
        for fail_node in (1.0, 1.5, "1", None):
            with pytest.raises(ValueError, match="fail_node"):
                ClusterSimulator(
                    mp_rec, plan, fail_at=0.005, fail_node=fail_node
                )
        # A NumPy integer or a bool is the plain int it stands for, and
        # the failure fires at its instant.
        for fail_node in (np.int64(1), True):
            sim = ClusterSimulator(
                mp_rec, plan, replication=2, fail_at=0.005,
                fail_node=fail_node,
            )
            assert type(sim.fail_node) is int
            res = sim.run(_scenario(n_queries=200))
            assert res.failed_nodes == [1] and res.lost == 0

    def test_fail_at_non_negative(self, mp_rec):
        plan = greedy_shard(KAGGLE.cardinalities, 16, 2)
        for fail_at in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="fail_at"):
                ClusterSimulator(mp_rec, plan, fail_at=fail_at, fail_node=1)
        # A failure that never comes is still a schedule.
        never = ClusterSimulator(mp_rec, plan, fail_at=float("inf"))
        assert never.fail_at == float("inf")

    def test_batch_and_queue_validation(self, mp_rec):
        plan = greedy_shard(KAGGLE.cardinalities, 16, 2)
        with pytest.raises(ValueError):
            ClusterSimulator(mp_rec, plan, max_batch_size=0)
        for timeout_s in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                ClusterSimulator(mp_rec, plan, batch_timeout_s=timeout_s)
        with pytest.raises(ValueError):
            ClusterSimulator(mp_rec, plan, max_queue=-1)

    def test_build_cluster_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            build_cluster(KAGGLE, 2, scheduler="nope")
        with pytest.raises(ValueError, match="unknown scheduler"):
            build_regions(KAGGLE, 2, scheduler="nope")


# ---- counted work ----------------------------------------------------------

FLEET_SIZES = np.unique(np.geomspace(1, 4096, 33).astype(int)).astype(float)


def _fleet_path(kind, rep_kwargs, accuracy, per_sample, label):
    return ExecutionPath(
        rep=RepresentationConfig(kind, 16, **rep_kwargs), device=GPU_V100,
        accuracy=accuracy, label=label,
        profile=PathProfile(
            sizes=FLEET_SIZES, latencies=0.0003 + per_sample * FLEET_SIZES
        ),
    )


def _reduced_fleet(seed=1):
    """The elastic autopilot fleet (2..6 nodes from 5, cache-affinity
    routing, 4 MB node caches, the two synthetic paths under a switch
    controller) on a compressed day: a 3 s diurnal period instead of
    12 s, with the flash crowd at the same phase, 18,000 queries in all.
    The plane switches, drains to the floor and scales back up, as on
    the full day."""
    accurate = _fleet_path("table", {}, 79.5, 0.0012, "ACCURATE")
    fast = _fleet_path("dhe", dict(k=4, dnn=64, h=1), 78.0, 0.0004, "FAST")
    cluster = ClusterSimulator(
        StaticScheduler([accurate]),
        greedy_shard(
            [1_000_000, 800_000, 700_000, 600_000, 500_000, 400_000], 16, 6
        ),
        router="cache-affinity", replication=2, max_batch_size=16,
        batch_timeout_s=0.008, link=ETHERNET_25G, cache_bytes=4 << 20,
        switch_controller=SwitchController(
            candidates={GPU_V100.name: [accurate, fast]},
            load_s=0.002, teardown_s=0.0005, cooldown_s=0.25,
        ),
        controlplane=ControlPlane(
            min_nodes=2, max_nodes=6, hi_pressure=0.75, lo_pressure=0.1,
            initial_nodes=5, patience=2, patience_down=48, cooldown_s=0.05,
        ),
    )
    rng = np.random.default_rng(seed)
    base = arrival_times(
        13_500, 3_000.0, rng=rng, process="diurnal", period_s=3.0,
        amplitude=0.75,
    )
    spike = 0.625 + arrival_times(4_500, 6_000.0, rng=rng)
    arrivals = np.sort(np.concatenate([base, spike]))
    users = ZipfSampler(20_000, alpha=1.25, seed=seed).sample(arrivals.size)
    queries = QuerySet(queries=[
        Query(index=i, size=1, arrival_s=t, user=u)
        for i, (t, u) in enumerate(zip(arrivals.tolist(), users.tolist()))
    ])
    return cluster, ServingScenario(queries=queries, sla_s=0.015)


class TestFleetWorkCounts:
    def test_routes_and_prices_from_state_kept_current(self, monkeypatch):
        """Counted work, not a wall clock, on the elastic autopilot
        fleet.  The router reads each candidate's timeline directly and
        prices a miss penalty for non-owners only; the autopilot prices
        each reroute policy at most once per membership epoch; and a
        control tick's window utilization is computed once and handed
        to the candidate pricing."""
        calls = Counter()
        work = Counter()
        count_calls(monkeypatch, calls, EngineCore, "earliest_free_delay")
        count_calls(
            monkeypatch, calls, controlplane_module, "window_utilization"
        )
        count_calls(monkeypatch, calls, ControlPlane, "_candidates")
        for module, key in ((routing_module, "router_penalties"),
                            (cluster_module, "reroute_penalties")):
            def counted(*args, _price=module.miss_penalty_s, _key=key):
                work[_key] += 1
                return _price(*args)

            monkeypatch.setattr(module, "miss_penalty_s", counted)

        select_node = CacheAffinityRouter.select_node

        def counted_select(self, query, now, candidates):
            owners = self.shard_map.owners[self.shard_map.group_of(query)]
            work["non_owners"] += sum(
                c.node_id not in owners for c in candidates
            )
            return select_node(self, query, now, candidates)

        monkeypatch.setattr(CacheAffinityRouter, "select_node", counted_select)
        blocked = Hysteresis.blocked

        def counted_blocked(self, key, now):
            held = blocked(self, key, now)
            if key == _FLEET and not held:
                work["evaluated_ticks"] += 1
            return held

        monkeypatch.setattr(Hysteresis, "blocked", counted_blocked)
        computed = []  # one entry per reroute price actually computed
        autopilot_ops = ClusterSimulator._autopilot_ops

        def counted_ops(self, *args):
            ops = autopilot_ops(self, *args)
            route_miss_s = ops.route_miss_s

            def counted_route_miss_s(name):
                before = work["reroute_penalties"]
                value = route_miss_s(name)
                if work["reroute_penalties"] != before:
                    computed.append(name)
                return value

            ops.route_miss_s = counted_route_miss_s
            return ops

        monkeypatch.setattr(ClusterSimulator, "_autopilot_ops", counted_ops)
        cluster, scenario = _reduced_fleet()
        res = cluster.run_streaming(scenario)
        assert res.result.n == len(scenario.queries)
        assert res.switches >= 1
        assert res.scale_ups >= 1 and res.scale_downs >= 1
        assert calls["earliest_free_delay"] == 0
        assert 0 < work["router_penalties"] == work["non_owners"]
        assert 0 < len(computed) <= 4 * (res.scale_ups + res.scale_downs + 1)
        assert calls["_candidates"] > 0
        assert calls["window_utilization"] == work["evaluated_ticks"]


class TestExperimentsEntryPoint:
    def test_build_cluster_then_run(self):
        result = build_cluster(
            KAGGLE, 2, router="locality", replication=2, max_batch_size=8,
        ).run(_scenario(n_queries=200))
        assert result.n_nodes == 2
        assert result.router == "locality"
        assert len(result.result.records) == 200
