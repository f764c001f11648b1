"""Multi-node serving cluster: N serving-kernel cores behind a router.

PR 1 made one node fast; production fleets (Section 6.9) shard the
embedding tables across *nodes* and load-balance queries over them.  This
module turns the repo's static placement machinery into a running
simulation: a :class:`~repro.analysis.sharding.ShardingPlan` says where
table shards live, :mod:`repro.hardware.topology` link costs price the
all-to-all embedding exchange each batch pays, and a pluggable
:mod:`~repro.serving.routing` router decides which node serves each query.

Every node is one :class:`~repro.serving.engine.EngineCore` — the same
kernel the single-node :class:`~repro.serving.simulator.ServingSimulator`
wraps — driven off one shared :class:`~repro.serving.engine.EventLoop`.
This module owns only what is cluster-specific: routing and edge
admission (backpressure, shard coverage), the per-batch exchange pricing
hook, failure injection, and fleet-level accounting (:class:`FleetLedger`,
which the region tier shares).  Batching,
shedding, and energy apportionment live in :mod:`repro.serving.engine`,
in exactly one place.

The data/locality model (:class:`ShardMap`):

- Every sample gathers ``n_features x dim x 4`` bytes of embeddings.
- A ``hot_fraction`` share of that gather hits *user-partitioned* tables:
  each query's user rows hash to one shard group (``group_of``), and a
  node serves them locally iff it replicates that group.  This is the
  production user-sharding pattern that makes request routing matter.
- The cold remainder (item-side tables) is placed by the sharding plan; a
  node serves locally whatever features it hosts, roughly ``replication /
  n_nodes`` of the cold bytes.
- Whatever is not local crosses the cluster fabric once per batch as a
  personalized all-to-all, priced by ``(p-1) * alpha + bytes * beta``
  (:func:`~repro.hardware.topology.alltoall_exchange_time`) and added to
  the batch's service time.

Replication chains each shard group onto the ``replication`` nodes that
follow its anchor, so ``replication >= 2`` survives any single node
failure.  A failure (``fail_at`` / ``fail_node``) kills the node
mid-simulation: its admission queue and in-flight batches are re-injected
at the failure instant and re-routed to surviving replicas (energy already
burned on the lost batches is tallied as ``wasted_energy_j``).  With
``replication == 1`` the dead node's shards are simply gone — displaced
*and* subsequent queries drop, the blunt lesson that sharded serving
without replication has no fault story.

Backpressure: ``max_queue`` bounds each node's outstanding queries
(admission queue + dispatched batches).  Full nodes are withheld from the
router; if every node is full the query is shed at the cluster edge and
recorded as dropped.

The cache tier: pass ``cache_bytes > 0`` and every node runs a
:class:`~repro.serving.cache.NodeCache` in front of the fabric — the hot
(user-partitioned) rows a node keeps serving for groups it does *not*
own stay resident, so repeat traffic stops paying the cold all-to-all
price.  Per batch the cache splits the non-owned hot gathers into hits
(a DRAM read, charged on the batch's service time) and misses (fill
bytes that ride the all-to-all exchange and, under the LRU policy, grow
residency).  A representation switch invalidates the outgoing path's
entries and re-warms them for the incoming path inside a Fig-15-style
:meth:`~repro.serving.devices.DeviceTimeline.block`; an autoscale join
streams its cache warm alongside its shard slice (both inside the
charged warm window) and a drain donates its hot set to the surviving
replicas.  The ``"cache-affinity"`` router exploits the tier: it scores
candidates by shard locality x cache residency instead of ownership
alone.  See :mod:`repro.serving.cache` and docs/caching.md.

Elasticity: pass a :class:`~repro.serving.controlplane.ControlPlane`
(``actions=("scale",)`` is the autoscaler on its own; a ``schedule``
forces membership changes) and the fleet grows and shrinks mid-run.
Membership is a prefix of the node ids; every change re-shards the tables
onto the new member count and rebuilds the :class:`ShardMap` (a new
*epoch*).  A joining node warms its shard slice over the fabric before it
serves (the warm window is charged as a :meth:`~repro.serving.devices.
DeviceTimeline.block`); a draining node hands its queued queries back
through the failover re-injection path and lets dispatched batches finish
— zero loss, zero waste.  See :mod:`repro.serving.autoscale` and
docs/autoscaling.md.

A 1-node cluster reproduces :class:`~repro.serving.simulator.
ServingSimulator` record-for-record (zero exchange, trivial routing) —
pinned in ``tests/unit/test_cluster.py`` and property-tested over random
scenarios in ``tests/property/test_prop_engine_parity.py``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.sharding import ShardingPlan, greedy_shard, replica_nodes
from repro.core.online import Scheduler
from repro.data.queries import Query
from repro.hardware.topology import (
    ETHERNET_100G,
    LinkSpec,
    alltoall_exchange_time,
)
from repro.serving.autoscale import ScaleEvent, shard_slice_bytes
from repro.serving.cache import CacheConfig, NodeCache
from repro.serving.controlplane import (
    AutopilotOps,
    ControlDecision,
    ControlPlane,
)
from repro.serving.engine import (
    ARRIVAL,
    CONTROL,
    EngineCore,
    RecordSink,
    StreamingSink,
    drop_query,
    run_kernel,
)
from repro.serving.metrics import CacheStats, ServingResult, StreamingMetrics
from repro.serving.policies import ShedPolicy, make_policy
from repro.serving.routing import Router, make_router
from repro.serving.signals import miss_penalty_s
from repro.serving.workload import ServingScenario

if TYPE_CHECKING:  # importing SwitchEvent at runtime would close a cycle
    from repro.core.switching import SwitchEvent

# A cluster node *is* an engine core; the name is kept for the router API
# and for callers of the PR-2 interface.
ClusterNode = EngineCore

_KNUTH = 2654435761  # multiplicative hash for query -> shard group


@dataclass(frozen=True)
class ShardMap:
    """Shard-group ownership + per-sample remote-byte model for a cluster.

    ``node_base`` offsets every node id in ``owners`` (and the indexing of
    ``cold_local_share``) by a constant: a cluster composed into a multi-
    region fleet (:mod:`repro.serving.region`) keeps its shard groups
    local but its nodes live in a *global* id space, so one shared event
    loop can drive every region's cores.  Standalone clusters keep the
    default base of 0 and nothing changes.
    """

    n_nodes: int
    replication: int
    hot_fraction: float
    bytes_per_sample: int
    # owners[g] = nodes replicating shard group g (anchor g + successors).
    owners: tuple[frozenset[int], ...]
    # cold_local_share[n] = fraction of item-side bytes node n hosts locally.
    cold_local_share: tuple[float, ...]
    node_base: int = 0  # global id of this cluster's node 0

    @classmethod
    def from_plan(
        cls,
        plan: ShardingPlan,
        replication: int = 1,
        hot_fraction: float = 0.5,
        node_base: int = 0,
    ) -> "ShardMap":
        """Derive the cluster's ownership and locality model from a
        sharding plan: chain each shard group (and each table slice) onto
        ``replication`` consecutive nodes and precompute every node's
        locally-held share of the cold (item-side) bytes."""
        n = plan.n_nodes
        if not 1 <= replication <= n:
            raise ValueError("replication must be in [1, n_nodes]")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if node_base < 0:
            raise ValueError("node_base must be non-negative")
        owners = tuple(
            frozenset(node_base + r for r in replica_nodes(g, replication, n))
            for g in range(n)
        )
        # A node hosts a feature's bytes locally in proportion to the rows
        # it holds: a table-wise feature is fully local to its replicas,
        # while a row-split feature is local only for the row range each
        # node carries (a lookup's row lands locally with that fraction).
        # Replication chains slices the same way it chains groups.
        n_features = len(plan.assignment)
        feature_bytes = plan.dim * 4
        local_bytes = [0.0] * n
        for slices in plan.assignment:
            total_rows = sum(rows for _, rows in slices)
            if total_rows == 0:
                continue
            for node, rows in slices:
                share = feature_bytes * rows / total_rows
                for replica in replica_nodes(node, replication, n):
                    local_bytes[replica] += share
        total = max(1, n_features * feature_bytes)
        return cls(
            n_nodes=n,
            replication=replication,
            hot_fraction=hot_fraction,
            bytes_per_sample=n_features * feature_bytes,
            owners=owners,
            cold_local_share=tuple(b / total for b in local_bytes),
            node_base=node_base,
        )

    def group_of(self, query: Query) -> int:
        """The shard group holding this query's user-partitioned rows.

        Keyed by ``query.user`` when the scenario models user identity
        (heavy users make their group hot), else by ``query.index``
        (uniform across groups, the pre-cache behavior)."""
        key = query.user if query.user >= 0 else query.index
        return ((key * _KNUTH) & 0xFFFFFFFF) % self.n_nodes

    def remote_bytes_per_sample(self, node_id: int, group: int) -> float:
        """Embedding bytes one sample pulls over the fabric when served
        on ``node_id`` with its hot rows in ``group``."""
        hot = self.hot_fraction * self.bytes_per_sample
        hot_remote = 0.0 if node_id in self.owners[group] else hot
        return hot_remote + self.cold_remote_bytes_per_sample(node_id)

    def cold_remote_bytes_per_sample(self, node_id: int) -> float:
        """The cold (item-side) share of one sample's fabric pull — the
        component the cache tier cannot shrink (it caches hot rows)."""
        cold = (1.0 - self.hot_fraction) * self.bytes_per_sample
        return cold * (1.0 - self.cold_local_share[node_id - self.node_base])

    def coverage_ok(self, alive: set[int]) -> bool:
        """True while every shard group keeps at least one alive replica."""
        return all(owner_set & alive for owner_set in self.owners)


@dataclass
class ClusterResult:
    """A cluster run: merged serving metrics plus fleet-level accounting."""

    result: ServingResult | StreamingMetrics
    n_nodes: int
    router: str
    replication: int
    per_node_served: list[int]
    per_node_dropped: list[int]
    rerouted: int = 0  # queries re-homed by failover
    lost: int = 0  # displaced queries unservable (replication too low)
    edge_drops: int = 0  # shed at the cluster edge (backpressure / coverage)
    failed_nodes: list[int] = field(default_factory=list)
    wasted_energy_j: float = 0.0
    switches: int = 0  # runtime representation switches across the fleet
    switch_overhead_s: float = 0.0  # device time blocked by switching
    node_seconds: float = 0.0  # total node-active time (fleet cost metric)
    idle_energy_j: float = 0.0  # idle power burned over node-active time
    scale_ups: int = 0  # autoscaling joins completed
    scale_downs: int = 0  # autoscaling drains completed
    handoff_overhead_s: float = 0.0  # device time blocked by shard warms
    scale_events: list[ScaleEvent] = field(default_factory=list)
    # Every representation switch across the fleet, time-ordered — with
    # ``scale_events`` this is the full control timeline a race between
    # mechanisms would show up in (tests pin the plane against it).
    switch_events: list[SwitchEvent] = field(default_factory=list)
    # Fleet-merged MP-Cache tier accounting (None when the tier is off).
    cache: CacheStats | None = None
    # The autopilot's decision trace — every committed action with the
    # predicted costs of everything it beat (empty without a
    # :class:`~repro.serving.controlplane.ControlPlane`).
    control_decisions: list[ControlDecision] = field(default_factory=list)

    @property
    def fleet_energy_j(self) -> float:
        """Served-query energy plus the idle power of powered-on nodes —
        the number an elastic fleet actually shrinks."""
        return self.result.total_energy_j + self.idle_energy_j

    def summary(self) -> dict[str, float]:
        """Merged metric vocabulary: the underlying serving metrics plus
        fleet-level accounting (and scaling activity when present)."""
        merged = dict(self.result.summary())
        merged.update(
            n_nodes=self.n_nodes,
            rerouted=self.rerouted,
            lost=self.lost,
            edge_drops=self.edge_drops,
            wasted_energy_j=self.wasted_energy_j,
            node_seconds=self.node_seconds,
            idle_energy_j=self.idle_energy_j,
        )
        if self.switches:
            merged.update(
                switches=self.switches,
                switch_overhead_s=self.switch_overhead_s,
            )
        if self.scale_ups or self.scale_downs:
            merged.update(
                scale_ups=self.scale_ups,
                scale_downs=self.scale_downs,
                handoff_overhead_s=self.handoff_overhead_s,
            )
        if self.cache is not None:
            merged.update(self.cache.summary())
        if self.control_decisions:
            merged.update(control_actions=len(self.control_decisions))
        return merged


class ClusterSimulator:
    """Compose N serving-kernel cores behind a router.

    ``scheduler``: one :class:`~repro.core.online.Scheduler` shared by every
    node (safe — the built-in schedulers are stateless given ``free_at``),
    or a sequence of per-node scheduler instances for stateful subclasses.

    ``plan``: the :class:`~repro.analysis.sharding.ShardingPlan` placing the
    model's tables; ``plan.n_nodes`` fixes the cluster size.

    ``router``: ``"round-robin"`` | ``"least-loaded"`` | ``"locality"`` or a
    :class:`~repro.serving.routing.Router` instance.

    ``shed_policy`` / ``max_batch_size`` / ``batch_timeout_s`` mirror the
    single-node :class:`~repro.serving.simulator.ServingSimulator` and apply
    per node.  ``max_queue`` bounds each node's outstanding queries (0 =
    unbounded).  ``fail_at`` / ``fail_node`` schedule one node failure.

    ``switch_controller``: optional :class:`~repro.core.switching.
    SwitchController`; each node gets its own clone (and its own scheduler
    copy, so one node's representation switch never leaks into another's
    path set).

    ``controlplane``: optional :class:`~repro.serving.controlplane.
    ControlPlane` — the unified SLO autopilot, and the one fleet
    controller: it makes the fleet elastic (scale is one of its action
    classes).  The plan must be sized for ``controlplane.max_nodes`` (the
    fleet ceiling); membership starts at ``controlplane.initial_nodes``
    and every change re-shards onto the new member count.  Elasticity and
    failure injection are mutually exclusive — a failure breaks the
    membership-prefix invariant the epoch shard maps index by.  The plane
    composes with ``switch_controller`` (the plane arbitrates, the
    controller executes and prices) and the cache tier (re-warm and
    cache-affinity re-routing become candidate actions).  The run's
    decision trace lands in :attr:`ClusterResult.control_decisions`.

    ``cache_bytes`` / ``cache_policy`` / ``cache_alpha`` /
    ``cache_hot_rows``: the per-node MP-Cache tier.  ``cache_bytes > 0``
    gives every node a :class:`~repro.serving.cache.NodeCache` of that
    byte budget (``"lru"`` demand-fill or ``"static"`` preloaded
    residency); ``cache_hot_rows`` sizes the fleet-wide hot-row universe
    the per-group popularity curves are cut from (default: the plan's
    total rows scaled by ``hot_fraction``).  The ``"cache-affinity"``
    router requires the tier to be on.
    """

    def __init__(
        self,
        scheduler: Scheduler | list[Scheduler],
        plan: ShardingPlan,
        router: str | Router = "round-robin",
        replication: int = 1,
        link: LinkSpec = ETHERNET_100G,
        hot_fraction: float = 0.5,
        shed_policy: str | ShedPolicy = "none",
        max_batch_size: int = 1,
        batch_timeout_s: float = 0.0,
        max_queue: int = 0,
        fail_at: float | None = None,
        fail_node: int = 0,
        track_energy: bool = True,
        switch_controller=None,
        controlplane: ControlPlane | None = None,
        cache_bytes: int = 0,
        cache_policy: str = "lru",
        cache_alpha: float = 1.05,
        cache_hot_rows: int | None = None,
        node_base: int = 0,
    ) -> None:
        if node_base < 0:
            raise ValueError("node_base must be non-negative")
        if node_base and (
            switch_controller is not None
            or controlplane is not None
            or fail_at is not None
        ):
            raise ValueError(
                "node_base composes a cluster into a region fleet; per-"
                "cluster controllers and failure injection are owned by "
                "the RegionSimulator there"
            )
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if batch_timeout_s < 0:
            raise ValueError("batch_timeout_s must be non-negative")
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        n_nodes = plan.n_nodes
        if isinstance(scheduler, Scheduler):
            schedulers = [scheduler] * n_nodes
        else:
            schedulers = list(scheduler)
            if len(schedulers) != n_nodes:
                raise ValueError(
                    f"need one scheduler per node: got {len(schedulers)} "
                    f"for {n_nodes} nodes"
                )
        if fail_at is not None and not 0 <= fail_node < n_nodes:
            raise ValueError("fail_node out of range")
        if controlplane is not None:
            if controlplane.max_nodes != n_nodes:
                raise ValueError(
                    f"the sharding plan is sized for {n_nodes} nodes but "
                    f"controlplane.max_nodes is {controlplane.max_nodes}; "
                    "build the plan for the fleet ceiling"
                )
            if fail_at is not None:
                raise ValueError(
                    "elastic membership and failure injection cannot be "
                    "combined"
                )
            if replication > controlplane.min_nodes:
                raise ValueError(
                    f"replication {replication} exceeds controlplane."
                    f"min_nodes {controlplane.min_nodes}; every epoch must "
                    "fit its chains"
                )
        if cache_bytes < 0:
            raise ValueError("cache_bytes must be non-negative")
        if router == "cache-affinity" and cache_bytes == 0:
            raise ValueError(
                "cache-affinity routing scores nodes by cache residency; "
                "enable the cache tier (cache_bytes > 0)"
            )
        self.plan = plan
        self.node_base = node_base
        self.shard_map = ShardMap.from_plan(
            plan, replication, hot_fraction, node_base=node_base
        )
        self.cache_config = (
            CacheConfig(
                capacity_bytes=cache_bytes,
                embedding_dim=plan.dim,
                alpha=cache_alpha,
                policy=cache_policy,
            )
            if cache_bytes
            else None
        )
        if cache_hot_rows is not None and cache_hot_rows < 1:
            raise ValueError("cache_hot_rows must be positive")
        # The fleet-wide hot-row universe: the user-partitioned share of
        # the plan's rows.  Each k-member epoch cuts it into k per-group
        # popularity curves.
        self._cache_hot_total = (
            cache_hot_rows
            if cache_hot_rows is not None
            else max(1, int(hot_fraction * sum(plan.cardinalities())))
        )
        # A sample's hot gather in rows (the unit the cache counts in):
        # its user-side features, one row each.  Floored to 1 whenever a
        # hot fraction exists at all — rounding to 0 would silently make
        # every hot byte free under the cached model.
        n_hot = hot_fraction * len(plan.assignment)
        self._hot_rows_per_sample = max(1, round(n_hot)) if n_hot > 0 else 0
        self._router_spec = router
        self.schedulers = schedulers
        self.link = link
        self.policy = make_policy(shed_policy)
        self.max_batch_size = max_batch_size
        self.batch_timeout_s = batch_timeout_s
        self.max_queue = max_queue
        self.fail_at = fail_at
        self.fail_node = fail_node
        self.track_energy = track_energy
        self.switch_controller = switch_controller
        self.controlplane = controlplane
        self.scheduler_name = schedulers[0].name
        # Epoch cache: k-member (plan, shard map) pairs are deterministic
        # functions of the ceiling plan, shared across runs.
        self._epoch_cache: dict[int, tuple[ShardingPlan, ShardMap]] = {}

    # ---- public entry points ---------------------------------------------

    def run(self, scenario: ServingScenario) -> ClusterResult:
        """Simulate and return exact, record-backed cluster metrics."""
        self._check_standalone()
        sink = RecordSink(self.scheduler_name, scenario.sla_s)
        return self._simulate(scenario, sink)

    def run_streaming(self, scenario: ServingScenario) -> ClusterResult:
        """Simulate with constant-memory merged metrics (O(1) per query)."""
        self._check_standalone()
        sink = StreamingSink(self.scheduler_name, scenario.sla_s)
        return self._simulate(scenario, sink)

    def _check_standalone(self) -> None:
        if self.node_base:
            raise ValueError(
                "a cluster built with node_base != 0 is a region member; "
                "drive it through RegionSimulator.run, not directly"
            )

    # ---- kernel façade ---------------------------------------------------

    def _hot_rows_per_group(self, k: int) -> int:
        """The per-group hot-row universe of a ``k``-member epoch."""
        return max(1, self._cache_hot_total // k)

    def _build_cache(self, k: int) -> NodeCache:
        """A fresh node cache keyed to a ``k``-member epoch's groups."""
        return self.cache_config.build(k, self._hot_rows_per_group(k))

    def _begin_run(
        self, k0: int, on_control_tick=None, on_switch_extra=None
    ) -> tuple["_RunState", list[EngineCore]]:
        """One run's state, router, and cores, with the first ``k0``
        serving and the rest powered off until a scale-up joins them —
        the set-up :meth:`_simulate` and every region of a
        :class:`~repro.serving.region.RegionSimulator` share."""
        state = _RunState(
            self._epoch(k0)[1],
            list(range(self.node_base, self.node_base + k0)),
        )
        state.router = make_router(
            self._router_spec, shard_map=state.shard_map, link=self.link
        )
        state.router.reset()
        cores = self._make_cores(state, on_control_tick, on_switch_extra)
        for core in cores[k0:]:
            core.alive = False
        state.active = cores[:k0]
        return state, cores

    def _make_cores(
        self, state: "_RunState", on_control_tick=None, on_switch_extra=None
    ) -> list[EngineCore]:
        # The exchange hook closes over this run's state (membership and
        # the current epoch's shard map) — per-run state stays in the
        # run, keeping the simulator reentrant.
        def exchange(core, batch, path):
            return self._exchange_s(core, batch, path, state)

        commit = None
        rewarm_after = None
        if self.cache_config is not None:
            def commit(core, batch, path):
                self._cache_batch(core, batch, path, state, commit=True)

            if self.switch_controller is not None:
                rewarm_after = self._rewarm_after_switch
        # ``on_switch_extra`` is the control plane's completion relay;
        # the cache re-warm (which extends the blocked window) runs
        # first so the plane observes the switch at its priced close.
        if on_switch_extra is None:
            on_switch = rewarm_after
        elif rewarm_after is None:
            on_switch = on_switch_extra
        else:
            def on_switch(core, device, now):
                rewarm_after(core, device, now)
                on_switch_extra(core, device, now)

        k_groups = (
            self.controlplane.initial_nodes
            if self.controlplane is not None
            else self.plan.n_nodes
        )
        cores = []
        for local, sched in enumerate(self.schedulers):
            node_id = self.node_base + local
            switcher = None
            if self.switch_controller is not None:
                # Residency is per node: give the node its own controller
                # clone and its own scheduler copy with a private path list.
                switcher = self.switch_controller.clone()
                sched = copy.copy(sched)
                sched.paths = list(sched.paths)
            cache = None
            if self.cache_config is not None:
                cache = self._build_cache(k_groups)
                if self.cache_config.policy == "static" and local < k_groups:
                    # Profiled residency, provisioned offline like the
                    # single-node EncoderCache.fit_static: resident paths
                    # preload in order until the byte budget is spent.
                    # Only the groups the node does NOT own — owned
                    # groups are shard-local and never consult the cache
                    # — and only initially-active members (autoscale
                    # spares warm at join time, charged).
                    initial_map = self._epoch(k_groups)[1]
                    groups = _cached_groups(node_id, initial_map)
                    for path in sched.paths:
                        cache.warm(path.label, groups)
            cores.append(
                EngineCore(
                    sched,
                    self.policy,
                    max_batch_size=self.max_batch_size,
                    batch_timeout_s=self.batch_timeout_s,
                    node_id=node_id,
                    max_queue=self.max_queue,
                    track_energy=self.track_energy,
                    defer_commit=True,
                    service_extra=exchange,
                    service_commit=commit,
                    switcher=switcher,
                    on_control_tick=on_control_tick,
                    on_switch=on_switch,
                    cache=cache,
                )
            )
        return cores

    def _epoch(self, k: int) -> tuple[ShardingPlan, ShardMap]:
        """The (plan, shard map) pair governing a ``k``-member epoch.

        The full-fleet epoch is exactly the plan the simulator was built
        with; smaller epochs re-shard the same tables onto ``k`` nodes
        (deterministic, so the pairs are cached across runs)."""
        if k == self.plan.n_nodes:
            return self.plan, self.shard_map
        cached = self._epoch_cache.get(k)
        if cached is None:
            plan = greedy_shard(self.plan.cardinalities(), self.plan.dim, k)
            cached = (
                plan,
                ShardMap.from_plan(
                    plan,
                    self.shard_map.replication,
                    self.shard_map.hot_fraction,
                    node_base=self.node_base,
                ),
            )
            self._epoch_cache[k] = cached
        return cached

    def _simulate(self, scenario: ServingScenario, sink) -> ClusterResult:
        n_total = len(self.schedulers)
        plane = self.controlplane.clone() if self.controlplane else None
        k0 = plane.initial_nodes if plane else n_total
        # One scale operation at a time: a join's warm window must finish
        # before the next operation may start, which is what keeps
        # membership a prefix of the node ids (and the epoch shard maps'
        # node indexing sound).
        pending_join: dict | None = None
        # The plane is every core's single control observer, and the
        # switch-completion relay releases its fleet hysteresis.  Without
        # one, each core's switcher (if any) runs its own rule.
        on_tick = plane.on_tick if plane else None
        on_switch_extra = plane.on_switch_complete if plane else None
        state, cores = self._begin_run(k0, on_tick, on_switch_extra)
        cluster = ClusterResult(
            result=sink.result,
            n_nodes=n_total,
            router=state.router.name,
            replication=self.shard_map.replication,
            per_node_served=[0] * n_total,
            per_node_dropped=[0] * n_total,
        )
        ledger = FleetLedger(cores, sink, scenario)

        def start_scale_up(now, loop):
            nonlocal pending_join
            node = len(state.members)
            next_plan, next_map = self._epoch(node + 1)
            warm_bytes = shard_slice_bytes(
                next_plan, node, self.shard_map.replication
            )
            join_cache = None
            cache_warm_bytes = 0
            if self.cache_config is not None:
                # The join's cache warms alongside its shard slice: the
                # hottest rows of the groups it will serve *remotely*
                # (its shard slice already covers the owned ones) stream
                # inside the same charged window, so the node starts warm.
                join_cache = self._build_cache(node + 1)
                cache_warm_bytes = join_cache.warm(
                    cores[node].scheduler.paths[0].label,
                    _cached_groups(node, next_map),
                )
            warm_s = self.link.transfer_time(warm_bytes + cache_warm_bytes)
            core = cores[node]
            ready = now
            for device in core.timeline.free_at:
                ready = max(ready, core.timeline.block(device, now, warm_s))
            pending_join = {
                "node": node, "map": next_map, "warm_bytes": warm_bytes,
                "warm_s": warm_s, "decided_s": now, "ready_s": ready,
                "cache": join_cache, "cache_warm_bytes": cache_warm_bytes,
            }
            loop.push(ready, CONTROL, ("join", node))

        def rekey_caches(k):
            # A new epoch re-sharded the tables: every member's cache is
            # keyed by a group space that no longer exists.
            if self.cache_config is None:
                return
            hot_rows = self._hot_rows_per_group(k)
            for member in state.active:
                if member.cache is not None:
                    member.cache.rekey(k, hot_rows)

        def finish_scale_up(now):
            nonlocal pending_join
            join, pending_join = pending_join, None
            node = join["node"]
            core = cores[node]
            core.revive()
            state.members.append(node)
            rekey_caches(len(state.members))
            if join["cache"] is not None:
                # Install the warmed cache; counters the node accumulated
                # in an earlier membership stint carry over.
                join["cache"].stats.merge(core.cache.stats)
                core.cache = join["cache"]
            state.active.append(core)
            state.shard_map = join["map"]
            state.router.update_shard_map(state.shard_map)
            ledger.activate(node, now)
            cluster.scale_ups += 1
            cluster.handoff_overhead_s += join["warm_s"]
            event = ScaleEvent(
                time_s=join["decided_s"], ready_s=now, kind="up",
                node_id=node, n_members=len(state.members),
                warm_bytes=join["warm_bytes"], warm_s=join["warm_s"],
                cache_warm_bytes=join["cache_warm_bytes"],
            )
            cluster.scale_events.append(event)
            plane.on_scale_complete(now, event)

        def scale_down(now, loop):
            node = state.members.pop()
            core = cores[node]
            state.active.remove(core)
            state.shard_map = self._epoch(len(state.members))[1]
            state.router.update_shard_map(state.shard_map)
            donated_bytes = 0
            if core.cache is not None:
                # The drain donates its hot set: survivors absorb an even
                # share into the groups they serve remotely under the new
                # epoch (owned groups never consult the cache), so the
                # rows the fleet worked to cache outlive the node.
                rekey_caches(len(state.members))
                donated = core.cache.donate()
                share = donated // max(1, len(state.active))
                for survivor in state.active:
                    donated_bytes += survivor.cache.receive(
                        survivor.scheduler.paths[0].label, share,
                        _cached_groups(survivor.node_id, state.shard_map),
                    )
            handed_back = core.drain()
            ledger.reinject(handed_back, now, loop)
            # The node stays powered until its dispatched batches finish.
            busy_until = max(
                max(pool) for pool in core.timeline.free_at.values()
            )
            ledger.retire(node, max(now, busy_until))
            cluster.scale_downs += 1
            event = ScaleEvent(
                time_s=now, ready_s=now, kind="down", node_id=node,
                n_members=len(state.members), reinjected=len(handed_back),
                cache_donated_bytes=donated_bytes,
            )
            cluster.scale_events.append(event)
            plane.on_scale_complete(now, event)

        def admit(query, now, loop):
            return ledger.admit(query, now, state)

        def on_fail(node, now, loop):
            core = cores[node]
            if not core.alive:
                return
            state.active.remove(core)
            cluster.failed_nodes.append(node)
            alive_ids = {c.node_id for c in state.active}
            state.covered = bool(alive_ids) and state.shard_map.coverage_ok(
                alive_ids
            )
            # Surviving replicas hold every shard: the displaced queries
            # re-inject at the failure instant; otherwise they are lost.
            ledger.fail(core, now, loop, recover=state.covered)

        def on_control(kind, payload, now, loop):
            if isinstance(payload, int):
                on_fail(payload, now, loop)
                return
            tag, op = payload
            if tag == "join":
                finish_scale_up(now)
                return
            # tag == "scale": a forced (scheduled) membership change.
            if pending_join is not None:
                # Serialize behind the in-flight join; the join's event
                # carries an earlier sequence number, so at the retry
                # instant it is guaranteed to have completed.
                loop.push(pending_join["ready_s"], CONTROL, payload)
                return
            # A forced change holds the plane's fleet hysteresis exactly
            # like a priced one, so no switch reads the join's warm-window
            # queue spike as evidence.
            if op == "up" and len(state.members) < plane.max_nodes:
                plane.on_scale_started()
                start_scale_up(now, loop)
            elif op == "down" and len(state.members) > plane.min_nodes:
                plane.on_scale_started()
                scale_down(now, loop)

        if plane is not None:
            plane.begin_run(
                self._autopilot_ops(
                    scenario, state, cores, start_scale_up, scale_down
                )
            )

        extra_events: list[tuple] = []
        if self.fail_at is not None:
            extra_events.append((self.fail_at, CONTROL, self.fail_node))
        if plane is not None:
            for time_s, op in plane.schedule:
                extra_events.append((time_s, CONTROL, ("scale", op)))
        end_s = run_kernel(
            cores, scenario, sink, admit,
            extra_events=tuple(extra_events), on_control=on_control,
        )

        ledger.close(cluster, end_s)
        for core in cores:
            cluster.per_node_served[core.node_id] = core.served
            cluster.per_node_dropped[core.node_id] = core.shed
            if core.switcher is not None:
                cluster.switches += len(core.switcher.events)
                cluster.switch_overhead_s += core.switcher.total_overhead_s
                cluster.switch_events.extend(core.switcher.events)
        cluster.switch_events.sort(key=lambda e: e.time_s)
        # A mid-run reroute changes the installed policy; report what the
        # fleet ended on, and ship the autopilot's decision trace.
        cluster.router = state.router.name
        if plane is not None:
            cluster.control_decisions = plane.decisions
        return cluster

    # ---- helpers ---------------------------------------------------------

    def _autopilot_ops(
        self, scenario, state: "_RunState", cores, start_scale_up, scale_down
    ) -> AutopilotOps:
        """The executor surface the autopilot prices and drives — the
        cluster's own machinery, closed over this run's state.

        Predictions reuse the exact pricing the executors charge: a
        join's warm window is the same shard-slice + cache-warm transfer
        :meth:`_simulate`'s ``start_scale_up`` blocks the joining node
        for (memoized per membership count — it is deterministic), a
        re-warm's window is what :meth:`~repro.serving.cache.NodeCache.
        warm` would actually move, and a reroute's saving prices each
        policy's expected hot-miss fabric penalty with the same
        :func:`~repro.serving.signals.miss_penalty_s` the
        cache-affinity router scores candidates by (ownership for
        placement-aware policies, residency credit for
        ``"cache-affinity"``, the fleet mean for blind ones)."""
        n_total = len(cores)
        route_names = ["round-robin", "least-loaded", "locality"]
        if self.cache_config is not None:
            route_names.append("cache-affinity")
        join_warm_s: dict[int, float] = {}

        def predict_join_warm_s():
            node = len(state.members)
            if node >= n_total:
                return 0.0
            warm = join_warm_s.get(node)
            if warm is None:
                next_plan, next_map = self._epoch(node + 1)
                warm_bytes = shard_slice_bytes(
                    next_plan, node, self.shard_map.replication
                )
                if self.cache_config is not None:
                    cache_bytes, _ = self._build_cache(node + 1).predict_warm(
                        cores[node].scheduler.paths[0].label,
                        _cached_groups(node, next_map),
                    )
                    warm_bytes += cache_bytes
                warm = join_warm_s[node] = self.link.transfer_time(warm_bytes)
            return warm

        def route_miss_s(name):
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
                total += miss_penalty_s(affinity, hot_bytes, self.link)
            return total / shard_map.n_nodes

        def set_router(name):
            state.router = make_router(
                name, shard_map=state.shard_map, link=self.link
            )
            state.router.reset()

        def predict_rewarm(core, label):
            warm_bytes, gain = core.cache.predict_warm(
                label, _cached_groups(core.node_id, state.shard_map)
            )
            if not warm_bytes:
                return 0.0, gain
            return self.link.transfer_time(warm_bytes), gain

        def rewarm(core, label, now):
            warmed_bytes = core.cache.warm(
                label, _cached_groups(core.node_id, state.shard_map)
            )
            if not warmed_bytes:
                return now
            # Priced exactly like the post-switch re-warm: the fill
            # rides the fabric and blocks the node's devices.
            warm_s = self.link.transfer_time(warmed_bytes)
            core.cache.stats.rewarm_s += warm_s
            ready = now
            for device in core.timeline.free_at:
                ready = max(ready, core.timeline.block(device, now, warm_s))
            return ready

        return AutopilotOps(
            sla_s=scenario.sla_s,
            n_members=lambda: len(state.members),
            active_cores=lambda: list(state.active),
            # The marginal node's idle draw (homogeneous fleets make the
            # choice moot; heterogeneous ones price the next join).
            idle_w=lambda: _node_idle_w(
                cores[min(len(state.members), n_total - 1)]
            ),
            predict_join_warm_s=predict_join_warm_s,
            start_scale_up=start_scale_up,
            scale_down=scale_down,
            router_name=lambda: state.router.name,
            route_candidates=lambda: tuple(route_names),
            route_miss_s=route_miss_s,
            set_router=set_router,
            predict_rewarm=predict_rewarm,
            rewarm=rewarm,
        )

    def _exchange_s(
        self, core: EngineCore, batch, path, state: "_RunState"
    ) -> float:
        """Per-batch all-to-all embedding exchange on the cluster fabric.

        With the cache tier on, the batch's non-owned hot gathers split
        into cache hits (a local DRAM read on the routed path's device)
        and misses (fill bytes that ride the all-to-all); this call is
        pure — the split is committed once per dispatched batch by
        :meth:`_cache_batch`."""
        shard_map = state.shard_map
        if core.cache is None:
            remote = sum(
                q.size
                * shard_map.remote_bytes_per_sample(
                    core.node_id, shard_map.group_of(q)
                )
                for q in batch
            )
            return alltoall_exchange_time(remote, len(state.active), self.link)
        remote, hit_bytes = self._cache_batch(
            core, batch, path, state, commit=False
        )
        return (
            alltoall_exchange_time(remote, len(state.active), self.link)
            + hit_bytes / path.device.dram_bandwidth
        )

    def _cache_batch(
        self, core: EngineCore, batch, path, state: "_RunState", commit: bool
    ) -> tuple[float, int]:
        """One batch through the node cache: ``(remote_bytes, hit_bytes)``.

        ``commit=False`` previews the carry-exact hit/miss splits for
        pricing (sequentially, each lookup seeing the residency growth
        of the ones before it) and stashes them per core;
        ``commit=True`` — called by the engine exactly once per
        dispatched batch — applies the stashed splits verbatim, so the
        recorded counters always equal the priced ones and shed-policy
        re-pricing can never double-count a fill."""
        shard_map = state.shard_map
        cache = core.cache
        row_bytes = self.cache_config.row_bytes
        cold = shard_map.cold_remote_bytes_per_sample(core.node_id)
        remote = 0.0
        items = []
        batch_key = tuple(q.index for q in batch)
        for q in batch:
            remote += q.size * cold
            group = shard_map.group_of(q)
            if core.node_id in shard_map.owners[group]:
                continue  # hot rows are shard-local; the cache sits idle
            items.append((path.label, group, q.size * self._hot_rows_per_sample))
        pending = state.pending_cache.get(core.node_id)
        if pending is not None and pending[0] == batch_key:
            _, splits, overlay = pending
        else:
            splits, overlay = cache.preview_batch(items)
        hits = sum(h for h, _ in splits)
        misses = sum(m for _, m in splits)
        remote += misses * row_bytes
        hit_bytes = hits * row_bytes
        if commit:
            state.pending_cache.pop(core.node_id, None)
            cache.commit_batch(items, splits, overlay)
            if hit_bytes:
                cache.stats.hit_s += hit_bytes / path.device.dram_bandwidth
        else:
            state.pending_cache[core.node_id] = (batch_key, splits, overlay)
        return remote, hit_bytes

    def _rewarm_after_switch(
        self, core: EngineCore, device: str, now: float
    ) -> None:
        """A representation switch completed on ``device``: the outgoing
        path's cached rows are stale.  Drop them, re-fetch the same hot
        set for the incoming path over the fabric, and charge the window
        as a device block — priced exactly like the Fig-15 switch window
        it extends."""
        cache = core.cache
        if cache is None:
            return
        event = next(
            (e for e in reversed(core.switcher.events) if e.device == device),
            None,
        )
        if event is None:
            return
        rewarm_bytes = cache.rewarm(event.from_label, event.to_label)
        if rewarm_bytes:
            rewarm_s = self.link.transfer_time(rewarm_bytes)
            cache.stats.rewarm_s += rewarm_s
            core.timeline.block(device, now, rewarm_s)


class _RunState:
    """Mutable per-run cluster state the kernel hooks close over: the
    current epoch's shard map, the member ids (always a prefix), the
    routable cores, the installed router (mutable — the autopilot's
    reroute action swaps it mid-run), whether the routable cores still
    cover every shard group, and each core's most recent previewed
    cache splits (pending until the dispatch commits them)."""

    __slots__ = (
        "shard_map", "members", "active", "router", "covered",
        "pending_cache",
    )

    def __init__(self, shard_map: ShardMap, members: list[int]) -> None:
        self.shard_map = shard_map
        self.members = members
        self.active: list[EngineCore] = []
        self.router: Router | None = None
        self.covered = True
        self.pending_cache: dict[int, tuple] = {}


class FleetLedger:
    """A run's fleet accounting, shared by the cluster and region tiers.

    - **Active stints.** A node is active from its activation (0.0 for
      the cores alive at the start) until it fails, drains, or the run
      ends; :meth:`close` sums the stints into ``node_seconds`` and
      ``idle_energy_j``, retired stints first, then the open ones in
      activation order.
    - **Displaced queries.** A failed or drained node's queries are
      re-injected as arrivals at the displacement instant and settled
      exactly once: ``rerouted`` when a node accepts one, ``edge_drops``
      when an edge sheds it, ``lost`` when no live replica holds its
      shards.  A failure's in-flight energy is ``wasted_energy_j``.
    - **Edge admission** over a run state's usable cores (:meth:`admit`).
    - **The node-cache roll-up**, merged in global node order.

    ``cores`` is indexed by global node id.  :meth:`close` writes the
    ledger onto a :class:`ClusterResult` or a
    :class:`~repro.serving.region.RegionResult`.
    """

    __slots__ = (
        "cores", "sink", "scenario", "activated_at", "active_seconds",
        "reinjected", "rerouted", "lost", "edge_drops", "wasted_energy_j",
    )

    def __init__(self, cores: list[EngineCore], sink, scenario) -> None:
        self.cores = cores
        self.sink = sink
        self.scenario = scenario
        self.activated_at = {c.node_id: 0.0 for c in cores if c.alive}
        self.active_seconds: dict[int, float] = {}
        self.reinjected: set[int] = set()
        self.rerouted = 0
        self.lost = 0
        self.edge_drops = 0
        self.wasted_energy_j = 0.0

    def activate(self, node: int, now: float) -> None:
        """Open ``node``'s next active stint."""
        self.activated_at[node] = now

    def retire(self, node: int, until: float) -> None:
        """Close ``node``'s open stint at ``until``."""
        self.active_seconds[node] = self.active_seconds.get(node, 0.0) + (
            until - self.activated_at.pop(node)
        )

    def reinject(self, queries, now: float, loop) -> None:
        """Push displaced queries back as arrivals at ``now``."""
        for query in queries:
            self.reinjected.add(query.index)
            loop.push(now, ARRIVAL, query)

    def fail(self, core: EngineCore, now: float, loop, recover=True) -> None:
        """Kill ``core`` at ``now``: its queued and in-flight queries are
        re-injected (``recover``) or lost, and its stint closes."""
        displaced, wasted = core.displace()
        self.wasted_energy_j += wasted
        if recover:
            self.reinject(displaced, now, loop)
        else:
            self.lost += len(displaced)
            for query in displaced:
                drop_query(self.sink, query, self.scenario.sla_for(query))
        self.retire(core.node_id, now)

    def admit(self, query, now: float, state: _RunState) -> EngineCore | None:
        """Route one arrival to a usable core of ``state``, or shed it at
        the edge when every core is full or dead or a shard group has no
        live replica."""
        candidates = [c for c in state.active if c.alive and not c.full]
        if not candidates or not state.covered:
            self.reinjected.discard(query.index)
            self.edge_drops += 1
            drop_query(self.sink, query, self.scenario.sla_for(query))
            return None
        core = state.router.select_node(query, now, candidates)
        if query.index in self.reinjected:
            self.reinjected.discard(query.index)
            self.rerouted += 1
        return core

    def drop_unservable(self, query) -> None:
        """Drop one arrival no live replica can serve: displaced work is
        lost, a fresh arrival is an edge drop."""
        if query.index in self.reinjected:
            self.reinjected.discard(query.index)
            self.lost += 1
        else:
            self.edge_drops += 1
        drop_query(self.sink, query, self.scenario.sla_for(query))

    def close(self, result, end_s: float) -> None:
        """Close every open stint at ``end_s`` and write the ledger onto
        ``result``."""
        for node in list(self.activated_at):
            self.retire(node, end_s)
        for node, seconds in self.active_seconds.items():
            result.node_seconds += seconds
            result.idle_energy_j += seconds * _node_idle_w(self.cores[node])
        result.rerouted = self.rerouted
        result.lost = self.lost
        result.edge_drops = self.edge_drops
        result.wasted_energy_j = self.wasted_energy_j
        caches = [c.cache.stats for c in self.cores if c.cache is not None]
        if caches:
            result.cache = CacheStats()
            for stats in caches:
                result.cache.merge(stats)


def _cached_groups(node_id: int, shard_map: ShardMap) -> list[int]:
    """The shard groups ``node_id`` serves *through its cache*: the ones
    it does not own (owned groups are shard-local and bypass the tier).
    This is what join warms, drain donations, and static preloads
    target."""
    return [
        g for g in range(shard_map.n_nodes)
        if node_id not in shard_map.owners[g]
    ]


def _node_idle_w(core: EngineCore) -> float:
    """Idle power of one node: its devices' idle draw, deduplicated."""
    seen: dict[str, float] = {}
    for path in core.scheduler.paths:
        seen[path.device.name] = path.device.idle_w
    return sum(seen.values())
