"""Unit tests for the geo tier: WAN pricing, geo-routing, regions, CLI."""

from collections import Counter

import numpy as np
import pytest

from repro.analysis.sharding import greedy_shard
from repro.cli import main
from repro.data.queries import (
    generate_query_arrays,
    merge_query_arrays,
)
from repro.experiments.setup import (
    build_cluster,
    build_regions,
    follow_the_sun_scenario,
)
from repro.models.configs import KAGGLE
from repro.serving.cache import NodeCache
from repro.serving.cluster import ClusterSimulator, ShardMap
from repro.serving.engine import EngineCore
from repro.serving.region import (
    PinnedGeoRouter,
    RegionSimulator,
    SpillGeoRouter,
    _GeoSink,
    make_geo_router,
)
from repro.serving.wan import (
    QUERY_WAN_BYTES,
    WAN_INTERCONT_LINK,
    WAN_METRO_LINK,
    WAN_TRANSCON_LINK,
    WanLink,
    resolve_wan_link,
)
from repro.hardware.topology import WAN_METRO

from tests.property.test_prop_engine_parity import build_scheduler
from tests.unit.test_fastpath import count_calls

INF = float("inf")


def small_scheduler():
    return build_scheduler("static")


def tiny_scenario(**kwargs):
    defaults = dict(n_regions=2, n_queries=120, qps=2500.0, seed=7)
    defaults.update(kwargs)
    return follow_the_sun_scenario(**defaults)


# ---- WAN link math -------------------------------------------------------


class TestWanLink:
    def test_one_way_is_latency_plus_serialization(self):
        link = WAN_METRO_LINK
        nbytes = 1_000_000
        expected = link.spec.latency_s + nbytes / link.spec.bandwidth
        assert link.one_way_s(nbytes) == pytest.approx(expected)

    def test_rtt_adds_pure_return_latency(self):
        link = WAN_TRANSCON_LINK
        assert link.rtt_s(4096) == pytest.approx(
            link.one_way_s(4096) + link.latency_s
        )

    def test_cost_is_linear_and_zero_floor(self):
        link = WAN_INTERCONT_LINK
        assert link.cost_j(0) == 0.0
        assert link.cost_j(-5) == 0.0
        assert link.cost_j(2e6) == pytest.approx(2 * link.cost_j(1e6))

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError, match="cost_per_byte_j"):
            WanLink(spec=WAN_METRO, cost_per_byte_j=-1e-9)
        with pytest.raises(ValueError, match="cost_per_byte_j"):
            WanLink(spec=WAN_METRO, cost_per_byte_j=float("nan"))

    def test_link_classes_are_ordered(self):
        # Faster links are cheaper: metro < transcon < intercont in both
        # latency and per-byte price.
        links = [WAN_METRO_LINK, WAN_TRANSCON_LINK, WAN_INTERCONT_LINK]
        latencies = [link.latency_s for link in links]
        prices = [link.cost_per_byte_j for link in links]
        assert latencies == sorted(latencies)
        assert prices == sorted(prices)

    def test_resolve_accepts_names_and_instances(self):
        assert resolve_wan_link("wan-metro") is WAN_METRO_LINK
        assert resolve_wan_link(WAN_INTERCONT_LINK) is WAN_INTERCONT_LINK
        with pytest.raises(ValueError, match="wan-metro"):
            resolve_wan_link("wan-carrier-pigeon")


# ---- geo routers ---------------------------------------------------------


class TestGeoRouters:
    def test_pinned_always_home(self):
        router = PinnedGeoRouter()
        assert router.select_region(2, [0.0, 0.0, 9.9], 0.01, 0.05) == 2

    def test_spill_stays_home_within_margin(self):
        router = SpillGeoRouter(spill_margin=0.5)
        # Home wait 0.02 <= 0.5 * 0.05: stay, even with an idle remote.
        assert router.select_region(0, [0.02, 0.0], 0.001, 0.05) == 0

    def test_spill_picks_cheapest_remote(self):
        router = SpillGeoRouter(spill_margin=0.0)
        # Home loaded; remote 2 is idler than remote 1 after the RTT.
        assert router.select_region(0, [0.10, 0.05, 0.01], 0.001, 0.01) == 2

    def test_spill_ties_break_to_lowest_region_id(self):
        router = SpillGeoRouter(spill_margin=0.0)
        assert router.select_region(2, [0.01, 0.01, 0.10], 0.001, 0.01) == 0

    def test_spill_degrades_to_home_when_unprofitable(self):
        router = SpillGeoRouter(spill_margin=0.0)
        # Remote wait + RTT never strictly beats waiting at home.
        assert router.select_region(0, [0.01, 0.01], 0.05, 0.001) == 0

    def test_spill_skips_failed_regions(self):
        router = SpillGeoRouter(spill_margin=0.0)
        assert router.select_region(0, [0.10, INF, 0.01], 0.001, 0.01) == 2

    def test_spill_margin_validation(self):
        for margin in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="spill_margin"):
                SpillGeoRouter(spill_margin=margin)

    def test_make_geo_router(self):
        assert make_geo_router("pinned").name == "pinned"
        assert make_geo_router("spill", 0.25).spill_margin == 0.25
        router = PinnedGeoRouter()
        assert make_geo_router(router) is router
        with pytest.raises(ValueError, match="pinned"):
            make_geo_router("teleport")


# ---- construction and validation -----------------------------------------


class TestRegionValidation:
    def plain(self, node_base=0, **kwargs):
        plan = greedy_shard([1000, 2000, 500], 16, 1)
        return ClusterSimulator(
            small_scheduler(), plan, node_base=node_base, **kwargs
        )

    def test_rejects_empty_and_duplicate_names(self):
        with pytest.raises(ValueError, match="at least one region"):
            RegionSimulator([])
        with pytest.raises(ValueError, match="unique"):
            RegionSimulator([("a", self.plain()), ("a", self.plain(1))])

    def test_rejects_non_contiguous_node_base(self):
        with pytest.raises(ValueError, match="node_base"):
            RegionSimulator([("a", self.plain()), ("b", self.plain(5))])

    def test_rejects_member_with_failure_injection(self):
        with pytest.raises(ValueError, match="plain"):
            RegionSimulator([("a", self.plain(fail_at=1.0))])

    def test_rejects_bad_replication(self):
        members = [("a", self.plain()), ("b", self.plain(1))]
        with pytest.raises(ValueError, match="region_replication"):
            RegionSimulator(members, region_replication=3)
        with pytest.raises(ValueError, match="region_replication"):
            RegionSimulator(
                [("a", self.plain())], region_replication=0
            )

    def test_fail_flags_go_together_and_are_ranged(self):
        members = [("a", self.plain()), ("b", self.plain(1))]
        with pytest.raises(ValueError, match="go together"):
            RegionSimulator(members, fail_region=0)
        with pytest.raises(ValueError, match="go together"):
            RegionSimulator(members, fail_at=1.0)
        with pytest.raises(ValueError, match="out of range"):
            RegionSimulator(members, fail_region=2, fail_at=1.0)
        for fail_at in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="non-negative"):
                RegionSimulator(members, fail_region=0, fail_at=fail_at)
        # A failure that never comes is still a schedule.
        never = RegionSimulator(members, fail_region=0, fail_at=INF)
        assert never.fail_at == INF

    def test_fail_region_must_be_an_integer_id(self):
        members = [("a", self.plain()), ("b", self.plain(1))]
        for fail_region in (1.5, 1.0, "1", [1]):
            with pytest.raises(ValueError, match="fail_region"):
                RegionSimulator(members, fail_region=fail_region, fail_at=1.0)
        # A NumPy integer or a bool is the plain int it stands for, in
        # the run's ledger too.
        scenario, region_of = tiny_scenario(n_regions=2, qps=1500.0)
        fail_at = scenario.queries[len(scenario.queries) // 3].arrival_s
        for fail_region in (np.int64(1), True):
            res = build_regions(
                KAGGLE, 2, region_replication=2, fail_region=fail_region,
                fail_at=fail_at,
            ).run(scenario, region_of)
            assert res.failed_regions == [1]
            assert type(res.failed_regions[0]) is int

    def test_rejects_bad_byte_knobs(self):
        member = [("a", self.plain())]
        with pytest.raises(ValueError, match="bytes_per_query"):
            RegionSimulator(member, bytes_per_query=0)
        with pytest.raises(ValueError, match="region_cache_bytes"):
            RegionSimulator(member, region_cache_bytes=-1)

    def test_region_of_must_match_queries(self):
        scenario, region_of = tiny_scenario()
        sim = build_regions(KAGGLE, 2)
        with pytest.raises(ValueError, match="entries"):
            sim.run(scenario, [0, 1])
        with pytest.raises(ValueError, match="region ids"):
            sim.run(scenario, [9] * len(scenario.queries))
        # Homes are integral region ids: 0.5 is not region 0, -0.5 is
        # not region 0, and NaN is no region at all.
        bad = [
            np.asarray(region_of) + 0.5,
            np.where(np.arange(len(region_of)) == 3, -0.5, region_of),
            np.where(np.arange(len(region_of)) == 3, np.nan, region_of),
        ]
        for homes in bad:
            with pytest.raises(ValueError, match="region ids"):
                sim.run(scenario, homes)

    def test_offset_cluster_cannot_run_standalone(self):
        scenario, _ = tiny_scenario(n_regions=1)
        with pytest.raises(ValueError, match="RegionSimulator"):
            self.plain(node_base=1).run(scenario)

    def test_node_base_rejects_cluster_controllers(self):
        plan = greedy_shard([1000, 2000, 500], 16, 1)
        with pytest.raises(ValueError, match="region fleet"):
            ClusterSimulator(
                small_scheduler(), plan, node_base=1, fail_at=(0, 1.0)
            )
        with pytest.raises(ValueError, match="non-negative"):
            ClusterSimulator(small_scheduler(), plan, node_base=-1)


# ---- geo accounting -------------------------------------------------------


class TestGeoAccounting:
    def test_pinned_pays_zero_wan(self):
        scenario, region_of = tiny_scenario()
        res = build_regions(KAGGLE, 2, geo_router="pinned").run(
            scenario, region_of
        )
        assert res.spills == 0 and res.rehomed == 0
        assert res.wan_bytes == 0
        assert res.wan_cost_j == 0.0
        assert len(res.result.records) == len(scenario.queries)

    def test_spill_byte_identities(self):
        scenario, region_of = tiny_scenario(n_regions=3, qps=2000.0)
        sim = build_regions(KAGGLE, 3, geo_router="spill")
        res = sim.run(scenario, region_of)
        assert res.spills > 0
        assert res.spill_bytes == res.spills * sim.bytes_per_query
        assert res.rehome_bytes == res.rehomed * sim.bytes_per_query
        assert res.wan_bytes == (
            res.spill_bytes + res.rehome_bytes + res.wan_fill_bytes
        )
        assert res.wan_cost_j == pytest.approx(
            res.wan_bytes * sim.wan.cost_per_byte_j
        )
        assert res.total_cost_j >= res.result.total_energy_j + res.wan_cost_j

    def test_wan_fill_conserved_through_region_cache(self):
        scenario, region_of = tiny_scenario(n_regions=3, qps=2000.0)
        sim = build_regions(
            KAGGLE, 3, geo_router="spill", region_cache_bytes=1 << 20
        )
        res = sim.run(scenario, region_of)
        assert res.region_cache is not None
        # Every WAN fill byte is a region-cache miss, and nothing else
        # fills the WAN tier: the meters must agree exactly.
        assert res.wan_fill_bytes == res.region_cache.fill_bytes
        assert res.region_cache.lookups == (
            res.region_cache.hits + res.region_cache.misses
        )
        assert res.spills > 0 and res.region_cache.hits > 0

    def test_one_region_matches_cluster(self):
        scenario, region_of = tiny_scenario(n_regions=1)
        cluster = build_cluster(KAGGLE, 2)
        member = build_cluster(KAGGLE, 2)
        geo = RegionSimulator([("solo", member)], geo_router="spill")
        expected = cluster.run(scenario).result.records
        got = geo.run(scenario, region_of).result.records
        key = lambda r: r.index  # noqa: E731
        assert sorted(got, key=key) == sorted(expected, key=key)

    def test_failover_replication_two_loses_nothing(self):
        scenario, region_of = tiny_scenario(n_regions=3, qps=1500.0)
        fail_at = scenario.queries[len(scenario.queries) // 3].arrival_s
        res = build_regions(
            KAGGLE, 3, region_replication=2, fail_region=1, fail_at=fail_at,
        ).run(scenario, region_of)
        assert res.failed_regions == [1]
        assert res.lost == 0
        assert res.rehomed > 0
        assert len(res.result.records) == len(scenario.queries)

    def test_failover_replication_one_bleeds(self):
        scenario, region_of = tiny_scenario(n_regions=3, qps=1500.0)
        fail_at = scenario.queries[len(scenario.queries) // 3].arrival_s
        res = build_regions(
            KAGGLE, 3, region_replication=1, fail_region=1, fail_at=fail_at,
        ).run(scenario, region_of)
        assert res.lost > 0
        assert res.rehomed == 0
        # Dropped, not vanished: the global record set stays complete.
        assert len(res.result.records) == len(scenario.queries)

    def test_summary_vocabulary(self):
        scenario, region_of = tiny_scenario()
        res = build_regions(
            KAGGLE, 2, region_names=["east", "west"]
        ).run(scenario, region_of)
        summary = res.summary()
        for key in ("spills", "rehomed", "lost", "edge_drops", "wan_mb",
                    "wan_cost_j", "total_cost_j", "viol_east", "viol_west"):
            assert key in summary

    def test_streaming_matches_record_counts(self):
        scenario, region_of = tiny_scenario()
        sim = build_regions(KAGGLE, 2)
        exact = sim.run(scenario, region_of)
        stream = build_regions(KAGGLE, 2).run_streaming(scenario, region_of)
        assert stream.result.n == len(scenario.queries)
        assert stream.result.violation_rate == pytest.approx(
            exact.result.violation_rate
        )


# ---- counted work ----------------------------------------------------------


class TestGeoWorkCounts:
    def test_each_arrival_and_batch_is_worked_once(self, monkeypatch):
        """Counted work, not a wall clock, on the geo-failover shape
        (3 regions of 2 nodes, spill routing, region replication 2, node
        and WAN caches, region 1 failing a quarter of the way through).
        Region waits read each core's timeline directly; a batch's cache
        commit applies its preview's stash, so cold bytes are priced once
        per preview and never on commit; and a batch holding a
        WAN-crossing query is folded in ``observe_all``, leaving
        ``_GeoSink.observe`` to dropped outcomes."""
        calls = Counter()
        count_calls(monkeypatch, calls, EngineCore, "earliest_free_delay")
        count_calls(
            monkeypatch, calls, ShardMap, "cold_remote_bytes_per_sample"
        )
        # Every dispatch prices its batch through the exchange (one cache
        # preview each, every node here has a cache) and commits it once.
        count_calls(monkeypatch, calls, ClusterSimulator, "_exchange_s")
        count_calls(monkeypatch, calls, NodeCache, "commit_batch")
        dropped = []
        observe = _GeoSink.observe

        def recorded_observe(self, *outcome):
            dropped.append(outcome[8])
            return observe(self, *outcome)

        monkeypatch.setattr(_GeoSink, "observe", recorded_observe)
        scenario, region_of = follow_the_sun_scenario(
            n_regions=3, n_queries=1500, qps=4500.0, seed=1
        )
        fail_at = scenario.queries[len(scenario.queries) // 4].arrival_s
        res = build_regions(
            KAGGLE, 3, nodes_per_region=2, geo_router="spill",
            region_replication=2, fail_region=1, fail_at=fail_at,
            region_cache_bytes=1 << 20, cache_bytes=1 << 20,
            max_batch_size=16, batch_timeout_s=0.002,
        ).run(scenario, region_of)
        assert res.failed_regions == [1] and res.lost == 0
        assert res.spills > 0 and res.rehomed > 0 and res.rerouted > 0
        assert res.cache.lookups > 0 and res.region_cache.lookups > 0
        assert calls["earliest_free_delay"] == 0
        assert calls["commit_batch"] > 0
        assert calls["cold_remote_bytes_per_sample"] == calls["_exchange_s"]
        assert all(dropped)


# ---- supporting seams -----------------------------------------------------


class TestSupportingSeams:
    def test_shard_map_node_base_offsets_owners(self):
        plan = greedy_shard([1000, 2000, 500], 16, 2)
        base0 = ShardMap.from_plan(plan, replication=2)
        base4 = ShardMap.from_plan(plan, replication=2, node_base=4)
        for g, owners in enumerate(base0.owners):
            assert base4.owners[g] == frozenset(o + 4 for o in owners)
        for local in range(base0.n_nodes):
            assert base0.cold_remote_bytes_per_sample(local) == (
                base4.cold_remote_bytes_per_sample(local + 4)
            )

    def test_merge_query_arrays_is_a_stable_reindexed_merge(self):
        streams = [
            generate_query_arrays(
                50, qps=500.0, seed=s, tenant=f"t{s}",
                process="diurnal", phase_s=s * 3.0,
            )
            for s in range(3)
        ]
        merged, source = merge_query_arrays(streams)
        assert len(merged.arrival_s) == 150
        assert list(merged.index) == list(range(150))
        assert np.all(np.diff(merged.arrival_s) >= 0)
        assert sorted(set(source.tolist())) == [0, 1, 2]
        assert {t for t in merged.tenants if t} == {"t0", "t1", "t2"}
        again, source2 = merge_query_arrays(streams)
        assert np.array_equal(merged.arrival_s, again.arrival_s)
        assert np.array_equal(source, source2)

    def test_diurnal_phase_shifts_the_peak(self):
        base = generate_query_arrays(
            200, qps=1000.0, seed=1, process="diurnal", period_s=10.0,
        )
        shifted = generate_query_arrays(
            200, qps=1000.0, seed=1, process="diurnal", period_s=10.0,
            phase_s=5.0,
        )
        assert not np.array_equal(base.arrival_s, shifted.arrival_s)

    def test_follow_the_sun_region_of_parallels_queries(self):
        scenario, region_of = follow_the_sun_scenario(
            n_regions=3, n_queries=60, qps=600.0
        )
        assert len(region_of) == len(scenario.queries) == 180
        assert sorted(set(int(r) for r in region_of)) == [0, 1, 2]
        arrivals = [q.arrival_s for q in scenario.queries]
        assert arrivals == sorted(arrivals)


# ---- CLI hygiene ----------------------------------------------------------


class TestGeoCli:
    def test_geo_flags_require_regions(self, capsys):
        assert main(["serve", "--wan-link", "wan-metro"]) == 2
        assert "--regions" in capsys.readouterr().err
        assert main(["serve", "--geo-router", "spill"]) == 2
        assert "--regions" in capsys.readouterr().err

    def test_regions_requires_nodes(self, capsys):
        assert main(["serve", "--regions", "2"]) == 2
        assert "--nodes" in capsys.readouterr().err

    def test_regions_rejects_single_cluster_controllers(self, capsys):
        base = ["serve", "--regions", "2", "--nodes", "1"]
        assert main(base + ["--fastpath"]) == 2
        assert "--regions" in capsys.readouterr().err
        assert main(base + ["--autoscale"]) == 2
        assert "--regions" in capsys.readouterr().err
        assert main(base + ["--fail-at", "0.5"]) == 2
        assert "--regions" in capsys.readouterr().err

    def test_region_fail_flag_hygiene(self, capsys):
        base = ["serve", "--regions", "2", "--nodes", "1"]
        for fail_at in ("-1", "nan"):
            argv = base + ["--region-fail-at", fail_at, "--fail-region", "0"]
            assert main(argv) == 2
            assert "--region-fail-at" in capsys.readouterr().err
        assert main(base + ["--region-fail-at", "0.5"]) == 2
        assert "--fail-region" in capsys.readouterr().err
        assert main(base + ["--fail-region", "5", "--region-fail-at", "1"]) == 2
        assert "--fail-region" in capsys.readouterr().err

    def test_region_replication_bounded_by_regions(self, capsys):
        assert main([
            "serve", "--regions", "2", "--nodes", "1",
            "--region-replication", "3",
        ]) == 2
        assert "--region-replication" in capsys.readouterr().err

    def test_geo_serve_smoke(self, capsys):
        code = main([
            "serve", "--dataset", "kaggle", "--regions", "2", "--nodes", "1",
            "--queries", "80", "--qps", "2000", "--sla-ms", "50",
            "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "geo fleet" in out
        assert "WAN traffic" in out
