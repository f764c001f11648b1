"""Router selection and tie-breaking determinism."""

import pytest

from repro.analysis.sharding import greedy_shard
from repro.data.queries import Query
from repro.hardware.topology import ETHERNET_25G
from repro.serving.cache import CacheConfig
from repro.serving.cluster import ClusterNode, ShardMap
from repro.serving.policies import NoShed
from repro.serving.routing import (
    CacheAffinityRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    ShardLocalityRouter,
    make_router,
)


class _StubDevice:
    def __init__(self, name="dev", concurrency=1):
        self.name = name
        self.concurrency = concurrency


class _StubPath:
    def __init__(self, device):
        self.device = device


class _StubScheduler:
    def __init__(self, n_servers=1):
        self.paths = [_StubPath(_StubDevice(concurrency=n_servers))]


def _nodes(n, max_queue=0):
    # ClusterNode is the serving kernel's EngineCore; routers only key on
    # node_id / inflight_queries / earliest_free_delay / alive / full.
    return [
        ClusterNode(_StubScheduler(), NoShed(), node_id=i, max_queue=max_queue)
        for i in range(n)
    ]


def _query(index=0):
    return Query(index=index, size=64, arrival_s=0.0)


class TestRoundRobin:
    def test_cycles_in_id_order(self):
        router = RoundRobinRouter()
        nodes = _nodes(3)
        picks = [router.select_node(_query(i), 0.0, nodes).node_id for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_missing_candidates(self):
        router = RoundRobinRouter()
        nodes = _nodes(3)
        assert router.select_node(_query(), 0.0, nodes).node_id == 0
        # Node 1 withheld (dead/full): the cycle continues at 2, then wraps.
        available = [nodes[0], nodes[2]]
        assert router.select_node(_query(), 0.0, available).node_id == 2
        assert router.select_node(_query(), 0.0, available).node_id == 0


class TestLeastLoaded:
    def test_picks_fewest_inflight(self):
        router = LeastLoadedRouter()
        nodes = _nodes(3)
        nodes[0].inflight_queries = 5
        nodes[1].inflight_queries = 1
        nodes[2].inflight_queries = 3
        assert router.select_node(_query(), 0.0, nodes).node_id == 1

    def test_tie_breaks_to_lowest_id(self):
        router = LeastLoadedRouter()
        nodes = _nodes(4)
        for _ in range(3):  # deterministic under repetition
            assert router.select_node(_query(), 0.0, nodes).node_id == 0

    def test_queue_tie_breaks_on_earliest_free(self):
        router = LeastLoadedRouter()
        nodes = _nodes(2)
        nodes[0].timeline.commit("dev", 0, 5.0)  # busy until t=5
        nodes[1].timeline.commit("dev", 0, 1.0)
        assert router.select_node(_query(), 0.0, nodes).node_id == 1


class TestShardLocality:
    @pytest.fixture
    def shard_map(self):
        plan = greedy_shard([100, 200, 300, 400], 8, 4)
        return ShardMap.from_plan(plan, replication=2)

    def test_routes_to_an_owner(self, shard_map):
        router = ShardLocalityRouter(shard_map)
        nodes = _nodes(4)
        for index in range(20):
            query = _query(index)
            picked = router.select_node(query, 0.0, nodes)
            assert picked.node_id in shard_map.owners[shard_map.group_of(query)]

    def test_prefers_least_loaded_owner(self, shard_map):
        router = ShardLocalityRouter(shard_map)
        nodes = _nodes(4)
        query = _query(0)
        owners = sorted(shard_map.owners[shard_map.group_of(query)])
        nodes[owners[0]].inflight_queries = 10
        assert router.select_node(query, 0.0, nodes).node_id == owners[1]

    def test_falls_back_when_no_owner_available(self, shard_map):
        router = ShardLocalityRouter(shard_map)
        nodes = _nodes(4)
        query = _query(0)
        owners = shard_map.owners[shard_map.group_of(query)]
        candidates = [n for n in nodes if n.node_id not in owners]
        picked = router.select_node(query, 0.0, candidates)
        assert picked.node_id == min(n.node_id for n in candidates)

    def test_deterministic_across_repeats(self, shard_map):
        router = ShardLocalityRouter(shard_map)
        nodes = _nodes(4)
        picks = [
            router.select_node(_query(i), 0.0, nodes).node_id for i in range(50)
        ]
        repeat = [
            router.select_node(_query(i), 0.0, nodes).node_id for i in range(50)
        ]
        assert picks == repeat


class TestCacheAffinity:
    @pytest.fixture
    def shard_map(self):
        plan = greedy_shard([100, 200, 300, 400], 8, 4)
        return ShardMap.from_plan(plan, replication=1)

    def _router(self, shard_map):
        return CacheAffinityRouter(shard_map, ETHERNET_25G)

    def _warm_cache(self, group, hit=True):
        cache = CacheConfig(capacity_bytes=1 << 20, embedding_dim=8).build(
            n_groups=4, hot_rows=64
        )
        if hit:
            cache.warm("P", [group])  # full residency: affinity 1.0
        return cache

    def test_idle_fleet_routes_to_the_owner(self, shard_map):
        router = self._router(shard_map)
        nodes = _nodes(4)
        for index in range(20):
            query = _query(index)
            picked = router.select_node(query, 0.0, nodes)
            assert picked.node_id in shard_map.owners[shard_map.group_of(query)]

    def test_busy_owner_loses_to_cache_warm_node(self, shard_map):
        router = self._router(shard_map)
        nodes = _nodes(4)
        query = _query(0)
        group = shard_map.group_of(query)
        owner = min(shard_map.owners[group])
        warm = next(n for n in nodes if n.node_id != owner)
        # The owner's device is backed up well past the miss penalty; the
        # fully-warm non-owner serves the hot rows at affinity 1.0.
        nodes[owner].timeline.commit("dev", 0, 1.0)
        warm.cache = self._warm_cache(group)
        assert router.select_node(query, 1e-6, nodes) is warm

    def test_busy_owner_still_beats_cold_nodes_within_penalty(self, shard_map):
        router = self._router(shard_map)
        nodes = _nodes(4)
        query = _query(0)
        group = shard_map.group_of(query)
        owner = min(shard_map.owners[group])
        # A queue shorter than the full miss penalty: eating the wait at
        # the owner is still cheaper than pulling every hot row remotely.
        hot_bytes = query.size * shard_map.hot_fraction * shard_map.bytes_per_sample
        penalty_s = hot_bytes / ETHERNET_25G.bandwidth
        nodes[owner].timeline.commit("dev", 0, penalty_s / 2)
        assert router.select_node(query, 0.0, nodes).node_id == owner

    def test_deterministic_across_repeats(self, shard_map):
        router = self._router(shard_map)
        nodes = _nodes(4)
        nodes[1].cache = self._warm_cache(0)
        picks = [
            router.select_node(_query(i), 0.0, nodes).node_id for i in range(50)
        ]
        repeat = [
            router.select_node(_query(i), 0.0, nodes).node_id for i in range(50)
        ]
        assert picks == repeat


class TestMakeRouter:
    def test_resolves_names(self):
        assert make_router("round-robin").name == "round-robin"
        assert make_router("least-loaded").name == "least-loaded"

    def test_locality_needs_shard_map(self):
        with pytest.raises(ValueError, match="ShardMap"):
            make_router("locality")

    def test_cache_affinity_needs_map_and_link(self):
        plan = greedy_shard([100, 200], 8, 2)
        shard_map = ShardMap.from_plan(plan)
        with pytest.raises(ValueError, match="ShardMap and"):
            make_router("cache-affinity", shard_map=shard_map)
        with pytest.raises(ValueError, match="ShardMap and"):
            make_router("cache-affinity", link=ETHERNET_25G)
        router = make_router(
            "cache-affinity", shard_map=shard_map, link=ETHERNET_25G
        )
        assert router.name == "cache-affinity"

    def test_passes_instances_through(self):
        router = LeastLoadedRouter()
        assert make_router(router) is router

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown router"):
            make_router("random")
