"""Properties of the routing inputs each node keeps current.

``DeviceTimeline`` keeps its fleet-earliest slot between writes and
``NodeCache`` memoises ``affinity(group)`` until its next mutation;
``CacheAffinityRouter.select_node`` scores its candidates in one pass.
The oracles here are the expressions they replaced, kept verbatim: the
minimum over every device slot, the maximum hit rate over every resident
label, and ``min(candidates, key=cost)`` over a per-candidate closure.
Random operation sequences interleave every writer with reads, and each
kept value must equal its recomputation after every step.

The one-pass forms are checked the same way against the code they
replaced: the region tier's one wait pass per arrival and its re-home
pick against the per-region ``wait_of``, ``RoundRobinRouter.select_node``
against its keyed ``min``, ``DeviceTimeline.earliest`` against its keyed
``min`` over slot indices, and ``_GeoSink.observe_all``, fed one
outcome block per batch, against its per-outcome re-entry of
``observe`` over the per-query tuples dispatch built before blocks.

The fleet's routing inputs are checked against the code they replaced
too: the autopilot's ``route_miss_s``, priced once per membership epoch,
against its per-call body, through random membership changes and cache
commits; and ``FleetLedger.admit``, which hands the router the active
cores themselves, against its per-arrival ``alive and not full`` filter,
over cluster runs with failure and scale schedules.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tests.property.budget import prop_settings

from repro.analysis.sharding import greedy_shard
from repro.core.mp_cache import row_entry_bytes, zipf_popularity_cdf
from repro.core.online import StaticScheduler
from repro.core.paths import ExecutionPath, PathProfile
from repro.core.representations import RepresentationConfig
from repro.data.queries import Query, QuerySet
from repro.hardware.catalog import GPU_V100
from repro.hardware.topology import ETHERNET_25G
from repro.serving.cache import CacheConfig
from repro.serving.cluster import (
    ClusterNode,
    ClusterSimulator,
    FleetLedger,
    ShardMap,
)
from repro.serving.controlplane import ControlPlane
from repro.serving.devices import DeviceTimeline
from repro.serving.engine import apportion_energy
from repro.serving.metrics import OutcomeBlock
from repro.serving.policies import NoShed
from repro.serving.region import _GeoSink, _region_waits, _rehome_target
from repro.serving.routing import (
    ROUTER_NAMES,
    CacheAffinityRouter,
    RoundRobinRouter,
)
from repro.serving.signals import miss_penalty_s
from repro.serving.workload import ServingScenario

LABELS = ("A", "B")
DIM = 8


class _Device:
    def __init__(self, name, concurrency):
        self.name = name
        self.concurrency = concurrency


class _Path:
    def __init__(self, name, concurrency):
        self.device = _Device(name, concurrency)


class _Scheduler:
    def __init__(self, concurrencies):
        self.paths = [_Path(f"d{i}", c) for i, c in enumerate(concurrencies)]


# ---- the oracles -----------------------------------------------------------


def oracle_earliest_free_delay(timeline, now):
    earliest = min(min(pool) for pool in timeline.free_at.values())
    return max(0.0, earliest - now)


def oracle_affinity(cache, group):
    if not cache._labels:
        return 0.0
    return max(
        float(cache._cdf[min(state.resident[group], cache.hot_rows)])
        for state in cache._labels.values()
    )


def oracle_select_node(router, query, now, candidates):
    group = router.shard_map.group_of(query)
    hot_bytes = (
        query.size * router.shard_map.hot_fraction
        * router.shard_map.bytes_per_sample
    )

    def affinity(node):
        if node.node_id in router.shard_map.owners[group]:
            return 1.0
        if node.cache is None:
            return 0.0
        return node.cache.affinity(group)

    def cost(node):
        miss_s = miss_penalty_s(affinity(node), hot_bytes, router.link)
        return (
            node.earliest_free_delay(now) + miss_s,
            node.inflight_queries,
            node.node_id,
        )

    return min(candidates, key=cost)


# ---- kept state against recomputation --------------------------------------

times = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0])
raw = st.integers(0, 7)
rows = st.integers(0, 40)
items = st.lists(st.tuples(raw, raw, rows), max_size=5)
groups = st.lists(raw, max_size=4)

timeline_ops = st.one_of(
    st.tuples(st.just("commit"), raw, raw, times),
    st.tuples(st.just("block"), raw, times, st.sampled_from([0.0, 0.5, 1.0])),
)
cache_ops = st.one_of(
    st.tuples(st.just("batch"), items),
    st.tuples(st.just("preview"), items),
    st.tuples(st.just("lookup"), raw, raw, rows),
    st.tuples(st.just("warm"), raw, st.none() | groups),
    st.tuples(st.just("predict"), raw, groups),
    st.tuples(st.just("rewarm"), raw, raw),
    st.tuples(st.just("donate")),
    st.tuples(st.just("receive"), raw, st.integers(0, 60), groups),
    st.tuples(st.just("rekey"), st.integers(1, 4), st.integers(1, 64)),
)


def _apply_timeline(timeline, op):
    kind, device_raw, a, b = op
    devices = list(timeline.free_at)
    device = devices[device_raw % len(devices)]
    if kind == "commit":
        timeline.commit(device, a % len(timeline.free_at[device]), b)
    else:
        timeline.block(device, a, b)


def _apply_cache(cache, op):
    kind, *args = op

    def label(i):
        return LABELS[i % len(LABELS)]

    def lookups(drawn):
        return [(label(l), g % cache.n_groups, n) for l, g, n in drawn]

    def spread(drawn):
        return [g % cache.n_groups for g in drawn]

    if kind == "batch":
        batch = lookups(args[0])
        splits, overlay = cache.preview_batch(batch)
        cache.commit_batch(batch, splits, overlay)
    elif kind == "preview":
        cache.preview_batch(lookups(args[0]))
    elif kind == "lookup":
        cache.lookup(label(args[0]), args[1] % cache.n_groups, args[2])
    elif kind == "warm":
        cache.warm(label(args[0]), None if args[1] is None else spread(args[1]))
    elif kind == "predict":
        cache.predict_warm(label(args[0]), spread(args[1]))
    elif kind == "rewarm":
        cache.rewarm(label(args[0]), label(args[1]))
    elif kind == "donate":
        cache.donate()
    elif kind == "receive":
        cache.receive(label(args[0]), args[1], spread(args[2]))
    else:
        cache.rekey(args[0], args[1])


@prop_settings(100)
@given(
    concurrencies=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    steps=st.lists(st.tuples(timeline_ops, times), max_size=30),
)
def test_earliest_free_delay_matches_recomputation(concurrencies, steps):
    timeline = DeviceTimeline(_Scheduler(concurrencies).paths)
    for op, now in steps:
        _apply_timeline(timeline, op)
        delay = timeline.earliest_free_delay(now)
        expected = oracle_earliest_free_delay(timeline, now)
        assert delay == expected, op
        assert math.copysign(1.0, delay) == math.copysign(1.0, expected)


@prop_settings(100)
@given(
    capacity_entries=st.integers(1, 80),
    n_groups=st.integers(1, 4),
    hot_rows=st.integers(1, 64),
    policy=st.sampled_from(["lru", "static"]),
    steps=st.lists(cache_ops, max_size=30),
)
def test_affinity_matches_recomputation(
    capacity_entries, n_groups, hot_rows, policy, steps
):
    config = CacheConfig(
        capacity_bytes=capacity_entries * row_entry_bytes(DIM),
        embedding_dim=DIM, policy=policy,
    )
    cache = config.build(n_groups, hot_rows)
    for op in steps:
        _apply_cache(cache, op)
        for group in range(cache.n_groups):
            assert cache.affinity(group) == oracle_affinity(cache, group), op


# ---- the one-pass router against min(key=cost) -----------------------------

N_NODES = 4
SHARD_MAP = ShardMap.from_plan(
    greedy_shard([100, 200, 300, 400], 8, N_NODES), replication=1
)
QUERY_SIZE = 64
# One full miss penalty: a slot free this far ahead ties an owner with a
# cold non-owner that is free now.
PENALTY_S = miss_penalty_s(
    0.0,
    QUERY_SIZE * SHARD_MAP.hot_fraction * SHARD_MAP.bytes_per_sample,
    ETHERNET_25G,
)

candidate = st.tuples(
    st.integers(0, N_NODES),  # node id; repeats make whole keys tie
    st.integers(0, 1),  # in-flight queries
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),  # busy for this many penalties
    st.none() | st.tuples(raw, st.integers(0, 64)),  # warm (group, rows)
)


@prop_settings(150)
@given(
    drawn=st.lists(candidate, min_size=1, max_size=6),
    index=st.integers(0, 63),
)
def test_select_node_matches_min_over_cost(drawn, index):
    router = CacheAffinityRouter(SHARD_MAP, ETHERNET_25G)
    candidates = []
    for node_id, inflight, busy, warm in drawn:
        node = ClusterNode(_Scheduler([1]), NoShed(), node_id=node_id)
        node.inflight_queries = inflight
        if busy:
            node.timeline.commit("d0", 0, busy * PENALTY_S)
        if warm is not None:
            group, hot = warm
            node.cache = CacheConfig(
                capacity_bytes=64 * row_entry_bytes(DIM), embedding_dim=DIM,
            ).build(N_NODES, 64)
            node.cache.lookup("A", group % N_NODES, hot)
        candidates.append(node)
    query = Query(index=index, size=QUERY_SIZE, arrival_s=0.0)
    assert router.select_node(query, 0.0, candidates) is oracle_select_node(
        router, query, 0.0, candidates
    )


# ---- one-pass forms against the code they replaced -------------------------

INF = float("inf")


def oracle_wait_of(states, failed, region, now):
    if region in failed:
        return INF
    best = INF
    for core in states[region].active:
        if core.alive and not core.full:
            delay = core.earliest_free_delay(now)
            if delay < best:
                best = delay
    return best


def oracle_rehome_target(states, failed, now):
    usable = [
        r for r in range(len(states))
        if r not in failed and oracle_wait_of(states, failed, r, now) < INF
    ]
    if not usable:
        return None
    return min(
        usable, key=lambda r: (oracle_wait_of(states, failed, r, now), r)
    )


core_state = st.tuples(
    st.booleans(),  # alive
    st.sampled_from([0, 2]),  # max_queue (0: unbounded)
    st.integers(0, 3),  # in-flight queries
    st.lists(st.tuples(raw, st.sampled_from([0.0, 0.5, 1.0, 2.0])),
             max_size=3),  # slot commits (server, free time)
)


@prop_settings(150)
@given(
    regions=st.lists(st.lists(core_state, max_size=3), min_size=1,
                     max_size=4),
    failed=st.sets(st.integers(0, 3), max_size=2),
    now=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
)
def test_region_waits_match_wait_of(regions, failed, now):
    states = []
    for cores in regions:
        active = []
        for alive, max_queue, inflight, commits in cores:
            core = ClusterNode(_Scheduler([2]), NoShed(), max_queue=max_queue)
            core.alive = alive
            core.inflight_queries = inflight
            for server, free in commits:
                core.timeline.commit("d0", server % 2, free)
            active.append(core)
        states.append(SimpleNamespace(active=active))
    waits = _region_waits(states, failed, now)
    assert waits == [
        oracle_wait_of(states, failed, r, now) for r in range(len(states))
    ]
    assert _rehome_target(waits) == oracle_rehome_target(states, failed, now)


@prop_settings(150)
@given(
    ids=st.lists(st.integers(0, 5), min_size=1, max_size=6),
    cursor=st.integers(0, 8),
)
def test_round_robin_matches_keyed_min(ids, cursor):
    # Drawn in any order; repeated ids make whole keys tie.
    candidates = [SimpleNamespace(node_id=i) for i in ids]
    router = RoundRobinRouter()
    router._next = cursor
    expected = min(candidates, key=lambda n: (n.node_id < cursor, n.node_id))
    assert router.select_node(None, 0.0, candidates) is expected
    assert router._next == expected.node_id + 1


@prop_settings(150)
@given(
    concurrency=st.integers(1, 4),
    commits=st.lists(
        st.tuples(raw, st.sampled_from([-0.0, 0.0, 0.5, 1.0])), max_size=8
    ),
)
def test_earliest_slot_matches_keyed_min(concurrency, commits):
    timeline = DeviceTimeline(_Scheduler([concurrency]).paths)
    for server, free in commits:
        timeline.commit("d0", server % concurrency, free)
    pool = timeline.free_at["d0"]
    server = min(range(len(pool)), key=pool.__getitem__)
    got_server, got_free = timeline.earliest("d0")
    assert got_server == server
    assert got_free == pool[server]
    assert math.copysign(1.0, got_free) == math.copysign(1.0, pool[server])


class OracleGeoSink:
    """``_GeoSink``'s per-outcome fan-out as it was, kept verbatim."""

    def __init__(self, inner, region_of, region_sinks, cross_sink) -> None:
        self.inner = inner
        self.result = inner.result
        self._region_of = region_of
        self._region_sinks = region_sinks
        self._cross = cross_sink
        self.crossed: dict[int, float] = {}

    def observe(self, index, size, arrival_s, start_s, finish_s, path_label,
                accuracy, energy_j, dropped, sla_s) -> None:
        extra = self.crossed.pop(index, None)
        if extra is not None:
            finish_s += extra
        args = (index, size, arrival_s, start_s, finish_s, path_label,
                accuracy, energy_j, dropped, sla_s)
        self.inner.observe(*args)
        self._region_sinks[self._region_of[index]].observe(*args)
        if extra is not None:
            self._cross.observe(*args)

    def observe_all(self, outcomes) -> None:
        if self.crossed and any(o[0] in self.crossed for o in outcomes):
            for outcome in outcomes:
                self.observe(*outcome)
            return
        self.inner.observe_all(outcomes)
        if len(self._region_sinks) == 1:
            self._region_sinks[0].observe_all(outcomes)
            return
        by_home: dict[int, list] = {}
        for outcome in outcomes:
            by_home.setdefault(
                int(self._region_of[outcome[0]]), []
            ).append(outcome)
        for home, grouped in by_home.items():
            self._region_sinks[home].observe_all(grouped)


class RecordingSink:
    """Logs every call, with its arguments, into one shared list; a block
    is logged as its outcome rows."""

    def __init__(self, name, log):
        self.name = name
        self.log = log
        self.result = None

    def observe(self, *outcome):
        self.log.append((self.name, "observe", outcome))

    def observe_all(self, outcomes):
        if isinstance(outcomes, OutcomeBlock):
            outcomes = outcomes.outcomes()
        self.log.append((self.name, "observe_all", list(outcomes)))


def _fan_out(cls, n_regions, homes, crossed, feed):
    log = []
    sink = cls(
        RecordingSink("inner", log), homes,
        [RecordingSink(f"region{r}", log) for r in range(n_regions)],
        RecordingSink("cross", log),
    )
    sink.crossed.update(crossed)
    feed(sink)
    return log, sink.crossed


member_fields = st.tuples(
    st.integers(1, 256),  # size
    st.sampled_from([0.0, 0.001, 0.0025]),  # arrival_s
    st.sampled_from([0.05, 0.01]),  # tenant sla_s
)
batch_fields = st.tuples(
    st.sampled_from([0.003, 0.004]),  # start_s
    st.sampled_from([0.0051, 0.0093]),  # finish_s
    st.sampled_from([("T-CPU", 78.8), ("H-GPU", 79.1)]),
    st.sampled_from([0.0, 0.25, 1.5]),  # the batch's energy
)


@prop_settings(150)
@given(
    n_regions=st.integers(1, 3),
    home_draws=st.lists(st.integers(0, 2), min_size=12, max_size=12),
    picked=st.lists(st.integers(0, 11), min_size=1, max_size=6, unique=True),
    members=st.lists(member_fields, min_size=6, max_size=6),
    batch=batch_fields,
    tenants=st.booleans(),
    crossing=st.sampled_from(["none", "some", "all"]),
    legs=st.lists(st.sampled_from([0.012, 0.02]), min_size=12, max_size=12),
    chosen=st.lists(st.booleans(), min_size=6, max_size=6),
    elsewhere=st.sets(st.integers(0, 11), max_size=3),
)
def test_geo_fan_out_matches_per_outcome_loop(
    n_regions, home_draws, picked, members, batch, tenants, crossing, legs,
    chosen, elsewhere,
):
    homes = [h % n_regions for h in home_draws]
    queries = [
        Query(index=index, size=members[k][0], arrival_s=members[k][1])
        for k, index in enumerate(picked)
    ]
    slas = [members[k][2] for k in range(len(picked))] if tenants else None
    start, finish, (label, accuracy), energy = batch
    size = sum(q.size for q in queries)
    block = OutcomeBlock(
        queries, slas, 0.01, start, finish, label, accuracy, energy,
        len(queries), size,
    )
    # The per-query outcome tuples dispatch built before blocks.
    outcomes = [
        (q.index, q.size, q.arrival_s, start, finish, label, accuracy,
         apportion_energy(energy, q.size, len(queries), size), False,
         slas[k] if tenants else 0.01)
        for k, q in enumerate(queries)
    ]
    # In-flight queries of other batches may be on the wire too.
    crossed = {i: legs[i] for i in elsewhere if i not in picked}
    if crossing == "all":
        crossed.update({i: legs[i] for i in picked})
    elif crossing == "some":
        crossed.update({
            i: legs[i] for k, i in enumerate(picked) if chosen[k]
        })
    assert _fan_out(
        _GeoSink, n_regions, homes, crossed, lambda s: s.observe_all(block)
    ) == _fan_out(
        OracleGeoSink, n_regions, homes, crossed,
        lambda s: s.observe_all(outcomes),
    )
    # A shed query goes through ``observe``, crossed or not.
    q = queries[0]
    drop = (q.index, q.size, q.arrival_s, q.arrival_s, q.arrival_s,
            "DROPPED", 0.0, 0.0, True, 0.01)
    assert _fan_out(
        _GeoSink, n_regions, homes, crossed, lambda s: s.observe(*drop)
    ) == _fan_out(
        OracleGeoSink, n_regions, homes, crossed, lambda s: s.observe(*drop)
    )


# ---- the fleet's routing inputs against the code they replaced --------------


def oracle_route_miss_s(name, state, link):
    """The autopilot's ``route_miss_s`` as it was: every call re-derives
    every group's affinity over every active member."""
    shard_map = state.shard_map
    if not state.active:
        return 0.0
    hot_bytes = shard_map.hot_fraction * shard_map.bytes_per_sample
    placement_aware = name in ("locality", "cache-affinity")
    total = 0.0
    for group in range(shard_map.n_nodes):
        affinities = []
        for member in state.active:
            if member.node_id in shard_map.owners[group]:
                affinities.append(1.0)
            elif name == "cache-affinity" and member.cache is not None:
                affinities.append(member.cache.affinity(group))
            else:
                affinities.append(0.0)
        affinity = (
            max(affinities) if placement_aware
            else sum(affinities) / len(affinities)
        )
        total += miss_penalty_s(affinity, hot_bytes, link)
    return total / shard_map.n_nodes


@prop_settings(60)
@given(n_rows=st.integers(1, 200_000), alpha=st.floats(0.0, 3.0))
@example(n_rows=60_580, alpha=3.0)  # its running sum rounds past 1.0
def test_no_cache_affinity_beats_ownership(n_rows, alpha):
    # ``route_miss_s`` scores a group with an active owner 1.0 without
    # reading a cache: no residency's hit rate may exceed it.
    assert zipf_popularity_cdf(n_rows, alpha).max() == 1.0


def oracle_admit_candidates(state):
    """``FleetLedger.admit``'s candidate list as it was."""
    return [c for c in state.active if c.alive and not c.full]


FLEET_SIZES = np.array([1.0, 16.0, 256.0])
FLEET_NODES = 4
FLEET_ROWS = 64  # the cache tier's fleet-wide hot-row universe


def fleet_scheduler():
    return StaticScheduler([ExecutionPath(
        rep=RepresentationConfig("table", 16), device=GPU_V100,
        accuracy=79.5, label="A",
        profile=PathProfile(
            sizes=FLEET_SIZES, latencies=0.0003 + 0.0004 * FLEET_SIZES
        ),
    )])


def fleet(replication=1, **kwargs):
    return ClusterSimulator(
        fleet_scheduler(),
        greedy_shard([4000, 3000, 2000, 1000], 8, FLEET_NODES),
        replication=replication, link=ETHERNET_25G, **kwargs,
    )


fleet_ops = st.one_of(
    # A new membership: the active subset (the owners of a group may all
    # be gone) and the epoch whose shard map it serves under (None keeps
    # the current one, and with it every cache's residency).
    st.tuples(
        st.just("members"),
        st.lists(st.booleans(), min_size=FLEET_NODES, max_size=FLEET_NODES),
        st.none() | st.integers(1, FLEET_NODES),
    ),
    # A cache commit on an active node: (node, group, rows).
    st.tuples(st.just("commit"), raw, raw, rows),
)


@prop_settings(150)
@given(
    replication=st.integers(1, 2),
    k0=st.integers(2, FLEET_NODES),
    warm=st.lists(st.integers(0, 8), min_size=FLEET_NODES ** 2,
                  max_size=FLEET_NODES ** 2),
    order=st.permutations(ROUTER_NAMES),
    steps=st.lists(fleet_ops, max_size=20),
)
def test_route_miss_matches_per_call_pricing(
    replication, k0, warm, order, steps
):
    sim = fleet(replication, cache_bytes=16 * row_entry_bytes(8),
                cache_hot_rows=FLEET_ROWS)
    state, cores = sim._begin_run(k0)
    ops = sim._autopilot_ops(
        SimpleNamespace(sla_s=0.015), state, cores, None, None
    )
    n_groups = state.shard_map.n_nodes
    for i, n_rows in enumerate(warm):  # residency on every node
        node, group = divmod(i, FLEET_NODES)
        cores[node].cache.lookup("A", group % n_groups, n_rows)
    for op in [None, *steps]:
        if op is None:
            pass
        elif op[0] == "members":
            _, mask, k = op
            k = n_groups if k is None else max(k, replication)
            if k != n_groups:
                n_groups = k
                for core in cores:
                    core.cache.rekey(k, sim._hot_rows_per_group(k))
            state.active = [c for c, on in zip(cores, mask) if on]
            state.regroup(sim._epoch(k)[1])
            assert state.route_miss == {}
        elif state.active:
            _, node, group, n_rows = op
            state.active[node % len(state.active)].cache.lookup(
                "A", group % n_groups, n_rows
            )
        # Twice: the second pass reads what the first one kept.
        for name in order + order:
            assert ops.route_miss_s(name) == oracle_route_miss_s(
                name, state, sim.link
            ), (op, name, state.route_miss)


def fleet_scenario(n, qps):
    queries = [
        Query(index=i, size=1 + i % 3, arrival_s=i / qps, user=i % 11)
        for i in range(n)
    ]
    return ServingScenario(queries=QuerySet(queries=queries), sla_s=0.015)


@prop_settings(40)
@given(
    router=st.sampled_from(ROUTER_NAMES),
    max_queue=st.sampled_from([0, 2, 6]),
    cache=st.booleans(),
    drill=st.one_of(
        # One node failure: (node, instant as a share of the run).
        st.tuples(st.just("fail"), st.integers(0, FLEET_NODES - 1),
                  st.sampled_from([0.0, 0.3, 0.7])),
        # Forced membership changes from ``k0`` members.
        st.tuples(
            st.just("scale"), st.integers(2, FLEET_NODES),
            st.lists(st.tuples(st.sampled_from([0.1, 0.4, 0.6, 0.9]),
                               st.sampled_from(["up", "down"])),
                     max_size=4),
        ),
    ),
)
def test_admit_hands_the_router_alive_usable_cores(
    router, max_queue, cache, drill
):
    if router == "cache-affinity":
        cache = True
    n, qps = 240, 8000.0
    run_s = n / qps
    kwargs = dict(
        router=router, max_queue=max_queue, max_batch_size=4,
        batch_timeout_s=0.001,
        cache_bytes=16 * row_entry_bytes(8) if cache else 0,
    )
    if drill[0] == "fail":
        _, node, share = drill
        sim = fleet(2, fail_at=share * run_s, fail_node=node, **kwargs)
    else:
        _, k0, schedule = drill
        sim = fleet(2, controlplane=ControlPlane(
            min_nodes=2, max_nodes=FLEET_NODES, initial_nodes=k0,
            actions=(), schedule=tuple(
                (share * run_s, op) for share, op in schedule
            ),
        ), **kwargs)
    routed = []
    admit = FleetLedger.admit

    def checked_admit(ledger, query, now, state):
        expected = oracle_admit_candidates(state)
        offered = []
        select_node = state.router.select_node

        def spy(query, now, candidates):
            offered.append(list(candidates))
            return select_node(query, now, candidates)

        state.router.select_node = spy
        try:
            core = admit(ledger, query, now, state)
        finally:
            del state.router.select_node
        if offered:
            assert all(c.alive for c in offered[0])
            assert offered[0] == expected
            routed.append(core)
        else:
            assert not expected or not state.covered
        return core

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FleetLedger, "admit", checked_admit)
        res = sim.run(fleet_scenario(n, qps))
    assert routed
    assert len(res.result.records) == n
