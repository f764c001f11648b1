"""The cluster MP-Cache tier: NodeCache mechanics, exact accounting,
cluster/switching/autoscale integration."""

import pytest

from repro.analysis.sharding import greedy_shard
from repro.core.mp_cache import row_entry_bytes, zipf_popularity_cdf
from repro.core.online import StaticScheduler
from repro.core.switching import SwitchController
from repro.data.queries import Query, QuerySet
from repro.hardware.catalog import GPU_V100
from repro.hardware.topology import ETHERNET_25G
from repro.serving.cache import CacheConfig, NodeCache
from repro.serving.cluster import ClusterSimulator, ShardMap
from repro.serving.controlplane import ControlPlane
from repro.serving.workload import ServingScenario

from tests.unit.test_online import fake_path

DIM = 16
ROW = DIM * 4


def config(capacity_bytes=100 * row_entry_bytes(DIM), policy="lru", alpha=1.05):
    return CacheConfig(
        capacity_bytes=capacity_bytes, embedding_dim=DIM,
        alpha=alpha, policy=policy,
    )


def cache(n_groups=2, hot_rows=1000, **kwargs) -> NodeCache:
    return config(**kwargs).build(n_groups=n_groups, hot_rows=hot_rows)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="capacity_bytes"):
            config(capacity_bytes=0)
        with pytest.raises(ValueError, match="policy"):
            config(policy="fifo")
        with pytest.raises(ValueError, match="alpha"):
            config(alpha=-1.0)
        # NaN passes ``x < 0``; a NaN or infinite budget would make
        # ``capacity_entries`` NaN and still build.
        with pytest.raises(ValueError, match="alpha"):
            config(alpha=float("nan"))
        for capacity_bytes in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="capacity_bytes"):
                config(capacity_bytes=capacity_bytes)

    def test_sizing_matches_single_node_tier(self):
        cfg = config(capacity_bytes=1000)
        assert cfg.entry_bytes == row_entry_bytes(DIM)
        assert cfg.capacity_entries == 1000 // (DIM * 4 + 8)
        assert cfg.row_bytes == ROW

    def test_popularity_cdf_shape(self):
        cdf = zipf_popularity_cdf(100, alpha=1.05)
        assert cdf[0] == 0.0
        assert cdf[-1] == 1.0
        assert all(cdf[k] < cdf[k + 1] for k in range(100))


class TestLookup:
    def test_cold_cache_misses_everything(self):
        c = cache()
        hits, misses = c.lookup("P", 0, 10)
        assert (hits, misses) == (0, 10)
        assert c.stats.lookups == 10
        assert c.stats.fill_bytes == 10 * ROW

    def test_counters_always_sum_exactly(self):
        c = cache()
        for i in range(200):
            c.lookup("P", i % 2, 7)
        assert c.stats.hits + c.stats.misses == c.stats.lookups == 1400
        assert c.stats.fill_bytes == c.stats.misses * ROW
        assert c.stats.hit_bytes == c.stats.hits * ROW

    def test_lru_residency_grows_toward_the_hot_head(self):
        c = cache(n_groups=1)
        rate0 = c.hit_rate("P", 0)
        c.lookup("P", 0, 50)
        assert rate0 == 0.0 < c.hit_rate("P", 0)

    def test_carry_exact_split_tracks_the_analytic_rate(self):
        c = cache(n_groups=1, hot_rows=100)
        c.warm("P")  # full residency of the per-group quota
        rate = c.hit_rate("P", 0)
        n_lookups = 500
        before = c.stats.hits
        for _ in range(n_lookups):
            c.lookup("P", 0, 3)
        observed = (c.stats.hits - before) / (n_lookups * 3)
        # Residency keeps growing under LRU fills, so observed >= the
        # warm-time rate; the carry keeps it within one row of analytic.
        assert observed >= rate - 1.0 / (n_lookups * 3)

    def test_static_policy_never_fills_on_miss(self):
        c = cache(policy="static")
        c.lookup("P", 0, 50)
        assert c.resident_entries == 0
        assert c.hit_rate("P", 0) == 0.0
        # ...but the misses were still fetched (and priced) over the wire.
        assert c.stats.fill_bytes == 50 * ROW

    def test_batch_preview_is_sequential_and_commit_applies_it_verbatim(self):
        # Two lookups of the same cold group in one batch: the second
        # must see the residency the first's misses filled (a fresh
        # cache still yields hits within the batch), and the committed
        # counters must equal the previewed splits exactly — that
        # equality is what keeps priced service time and recorded stats
        # in lockstep.
        c = cache(n_groups=1, hot_rows=100)
        items = [("P", 0, 40), ("P", 0, 40)]
        splits, overlay = c.preview_batch(items)
        assert splits[0] == (0, 40)  # cold
        assert splits[1][0] > 0  # warmed by the first item's fills
        # Pure: previewing again from unchanged state gives the same answer.
        assert c.preview_batch(items)[0] == splits
        c.commit_batch(items, splits, overlay)
        assert c.stats.hits == sum(h for h, _ in splits)
        assert c.stats.misses == sum(m for _, m in splits)
        assert c.stats.lookups == 80

    def test_preview_is_pure_and_matches_lookup(self):
        c = cache(n_groups=1, hot_rows=100)
        c.warm("P")
        for rows in (3, 7, 1, 12):
            expected = c.preview("P", 0, rows)
            assert c.preview("P", 0, rows) == expected  # no state advanced
            assert c.lookup("P", 0, rows) == expected


class TestCapacity:
    def test_eviction_respects_the_byte_budget(self):
        c = cache(n_groups=2, hot_rows=1000)
        cap = c.config.capacity_entries
        c.lookup("P", 0, cap)
        c.lookup("P", 1, cap)
        assert c.resident_entries <= cap

    def test_least_recently_used_group_is_evicted_first(self):
        c = cache(n_groups=2, hot_rows=1000)
        cap = c.config.capacity_entries
        c.lookup("P", 0, cap)  # fills group 0 to capacity
        c.lookup("P", 1, cap)  # group 1 demand-fills; 0 is the LRU victim
        state = c._labels["P"]
        assert state.resident[1] > 0
        assert state.resident[0] < cap

    def test_warm_respects_even_share_and_reports_bytes(self):
        c = cache(n_groups=2, hot_rows=1000)
        warmed = c.warm("P")
        assert warmed == (c.config.capacity_entries // 2 * 2) * ROW
        assert c.stats.warm_bytes == warmed

    def test_receive_never_evicts_earned_rows(self):
        c = cache(n_groups=2, hot_rows=1000)
        cap = c.config.capacity_entries
        c.lookup("P", 0, cap)  # full
        received = c.receive("P", 50, [1])
        assert received == 0
        assert c.resident_entries == cap


class TestInvalidation:
    def test_rewarm_moves_entries_to_the_new_label(self):
        c = cache(n_groups=2, hot_rows=1000)
        c.lookup("OLD", 0, 30)
        c.lookup("OLD", 1, 20)
        moved = c.rewarm("OLD", "NEW")
        assert moved == 50 * ROW
        assert c.stats.rewarm_bytes == moved
        assert c.stats.invalidated_entries == 50
        assert c.hit_rate("OLD", 0) == 0.0
        assert c.hit_rate("NEW", 0) > 0.0

    def test_rewarm_of_unknown_label_is_free(self):
        c = cache()
        assert c.rewarm("GHOST", "NEW") == 0

    def test_rekey_drops_everything_and_resizes(self):
        c = cache(n_groups=2, hot_rows=1000)
        c.lookup("P", 0, 40)
        dropped = c.rekey(3, 600)
        assert dropped == 40
        assert c.n_groups == 3
        assert c.resident_entries == 0
        assert c.stats.invalidations == 1

    def test_donate_empties_and_reports(self):
        c = cache(n_groups=2, hot_rows=1000)
        c.lookup("P", 0, 25)
        assert c.donate() == 25
        assert c.resident_entries == 0


def _path():
    return fake_path("table", GPU_V100, 79.0, 0.0002, per_sample=2e-6,
                     label="TBL")


def _scenario(n=400, gap=0.0005, size=32, user=None, sla_s=0.050):
    queries = [
        Query(index=i, size=size, arrival_s=i * gap,
              user=-1 if user is None else user)
        for i in range(n)
    ]
    return ServingScenario(queries=QuerySet(queries=queries), sla_s=sla_s)


def _cluster(n_nodes=2, cache_bytes=1 << 20, router="round-robin", **kwargs):
    plan = greedy_shard([50_000, 40_000, 30_000, 20_000], DIM, n_nodes)
    return ClusterSimulator(
        StaticScheduler([_path()]), plan, router=router, link=ETHERNET_25G,
        track_energy=False, cache_bytes=cache_bytes, **kwargs,
    )


class TestClusterIntegration:
    def test_validation(self):
        plan = greedy_shard([1000], DIM, 2)
        with pytest.raises(ValueError, match="non-negative"):
            ClusterSimulator(StaticScheduler([_path()]), plan, cache_bytes=-1)
        with pytest.raises(ValueError, match="cache-affinity"):
            ClusterSimulator(
                StaticScheduler([_path()]), plan, router="cache-affinity"
            )
        with pytest.raises(ValueError, match="cache_hot_rows"):
            ClusterSimulator(
                StaticScheduler([_path()]), plan, cache_bytes=1 << 20,
                cache_hot_rows=0,
            )

    def test_cache_off_reports_no_cache(self):
        result = _cluster(cache_bytes=0).run(_scenario(50))
        assert result.cache is None
        assert "cache_hits" not in result.summary()

    def test_accounting_identities_hold(self):
        # One user keys one group: round-robin sends half the traffic to
        # the non-owner, which serves its hot rows through the cache.
        result = _cluster().run(_scenario(user=7))
        c = result.cache
        assert c.hits + c.misses == c.lookups > 0
        assert c.fill_bytes == c.misses * ROW
        assert c.hit_bytes == c.hits * ROW
        assert "cache_hit_rate" in result.summary()

    def test_single_node_cluster_cache_sits_idle(self):
        # One node owns every group: the tier has nothing to cache, and
        # the run matches the uncached single-node record stream exactly.
        cached = _cluster(n_nodes=1).run(_scenario(100))
        plain = _cluster(n_nodes=1, cache_bytes=0).run(_scenario(100))
        assert cached.cache.lookups == 0
        assert cached.result.records == plain.result.records

    def test_warm_cache_speeds_up_repeat_traffic(self):
        # All queries from one user -> one hot group; the cached fleet
        # stops paying the hot fetch once residency builds.
        cached = _cluster().run(_scenario(user=7))
        cold = _cluster(cache_bytes=0).run(_scenario(user=7))
        assert cached.cache.hit_rate > 0.5
        assert cached.result.makespan_s <= cold.result.makespan_s
        total = sum(r.latency_s for r in cached.result.records)
        total_cold = sum(r.latency_s for r in cold.result.records)
        assert total < total_cold

    def test_shed_repricing_does_not_double_count(self):
        # Overload with a shed policy: pricing runs twice per shed batch,
        # but fills must commit once — the identities still sum exactly,
        # and only served (non-dropped) queries ever looked up rows.
        result = _cluster(
            shed_policy="drop-late", max_batch_size=4, batch_timeout_s=0.001,
        ).run(_scenario(n=600, gap=0.00002, sla_s=0.003, user=3))
        c = result.cache
        assert result.result.drop_rate > 0
        assert c.hits + c.misses == c.lookups > 0
        assert c.fill_bytes == c.misses * ROW
        served_rows = sum(
            r.size for r in result.result.records if not r.dropped
        ) * 2  # hot_rows_per_sample = round(0.5 * 4 features) = 2
        assert c.lookups <= served_rows

    def test_run_twice_is_deterministic(self):
        sim = _cluster()
        scenario = _scenario(user=7)
        first = sim.run(scenario)
        second = sim.run(scenario)
        assert first.result.records == second.result.records
        assert second.cache.fill_bytes == first.cache.fill_bytes
        assert second.cache.hits == first.cache.hits

    def test_failover_keeps_accounting_exact(self):
        result = _cluster(
            n_nodes=3, replication=2, fail_at=0.05, fail_node=1,
        ).run(_scenario())
        c = result.cache
        assert result.failed_nodes == [1]
        assert result.lost == 0
        assert c.hits + c.misses == c.lookups
        assert c.fill_bytes == c.misses * ROW


class TestSwitchInvalidation:
    def test_switch_rewarms_the_cache_and_charges_a_window(self):
        slow = fake_path("hybrid", GPU_V100, 85.0, 0.050, per_sample=0,
                         label="HYB")
        fast = fake_path("table", GPU_V100, 80.0, 0.004, per_sample=0,
                         label="TBL")
        template = SwitchController(
            {GPU_V100.name: [slow, fast]},
            patience=1, cooldown_s=10.0, load_s=0.010, teardown_s=0.002,
        )
        plan = greedy_shard([50_000] * 4, DIM, 2)
        sim = ClusterSimulator(
            StaticScheduler([slow]), plan, router="round-robin",
            track_energy=False, switch_controller=template,
            cache_bytes=1 << 20,
        )
        # Every query from one user keys one group, so the non-owner node
        # builds residency under the HYB label before the switch.  One
        # wave-1 query per node: its dispatch fills the cache under HYB
        # and (patience 1, HYB infeasible even unloaded) starts the
        # switch; silence until well past the window means the re-warm —
        # not demand fills under the new label — restores the hot set.
        queries = [
            Query(index=i, size=1, arrival_s=0.0, user=3) for i in range(2)
        ] + [
            Query(index=2 + i, size=1, arrival_s=1.0 + 0.01 * i, user=3)
            for i in range(10)
        ]
        scenario = ServingScenario(
            queries=QuerySet(queries=queries), sla_s=0.020
        )
        result = sim.run(scenario)
        c = result.cache
        assert result.switches >= 1
        assert c.invalidations >= 1
        assert c.rewarm_bytes > 0
        assert c.rewarm_s > 0
        # The re-fetched rows serve the incoming path: entries survive.
        assert c.hits + c.misses == c.lookups


class TestAutoscaleCache:
    def _elastic(self, schedule):
        # Replication 1, so every epoch leaves each node with non-owned
        # groups — the ones its cache serves (at full replication there
        # is nothing to cache and joins/drains move no cache bytes).
        plane = ControlPlane(
            min_nodes=2, max_nodes=3, actions=(), schedule=schedule,
        )
        plan = greedy_shard([50_000, 40_000, 30_000, 20_000], DIM, 3)
        return ClusterSimulator(
            StaticScheduler([_path()]), plan, router="cache-affinity",
            replication=1, link=ETHERNET_25G, track_energy=False,
            cache_bytes=1 << 20, controlplane=plane,
        )

    def test_join_warms_cache_inside_the_charged_window(self):
        sim = self._elastic(schedule=((0.05, "up"),))
        result = sim.run(_scenario(user=5))
        up = next(e for e in result.scale_events if e.kind == "up")
        assert up.cache_warm_bytes > 0
        assert result.cache.warm_bytes == up.cache_warm_bytes
        # The window covers the shard slice AND the cache warm.
        assert up.warm_s >= sim.link.transfer_time(
            up.warm_bytes + up.cache_warm_bytes
        ) - 1e-12

    def test_drain_donates_the_hot_set_to_survivors(self):
        sim = self._elastic(schedule=((0.05, "up"), (0.12, "down")))
        result = sim.run(_scenario(user=5))
        down = next(e for e in result.scale_events if e.kind == "down")
        assert down.cache_donated_bytes > 0
        assert result.cache.donated_bytes == down.cache_donated_bytes
        assert result.lost == 0
        c = result.cache
        assert c.hits + c.misses == c.lookups
        assert c.fill_bytes == c.misses * ROW
        n = len(result.result.records)
        assert sorted(r.index for r in result.result.records) == list(range(n))
