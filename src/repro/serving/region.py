"""Geo-distributed multi-region serving: clusters composed over WAN links.

The ROADMAP's node -> cluster -> planet ladder: PR 2 made one node a
serving kernel, PR 3-7 grew it into an elastic cluster on one fabric and
one diurnal clock.  This module adds the planet rung.  A
:class:`RegionSimulator` composes existing
:class:`~repro.serving.cluster.ClusterSimulator`s into named *regions*
joined by WAN-class links (tens of milliseconds of propagation, metered
per-byte cost — :mod:`repro.serving.wan`), and drives every region's
cores off ONE shared event loop — the kernel's own
:func:`~repro.serving.engine.run_kernel`, whose ``admit(query, now,
loop)`` hook lets a spill push its delayed WAN arrival — so
cross-region interactions are simulated exactly rather than stitched
from independent runs.

Composition contract: each member cluster is built with a ``node_base``
offset placing its nodes in a global id space (region i's nodes follow
region i-1's), which makes the flat core list indexable by the kernel's
per-node flush and finish events while each region keeps its own shard
map, router, and fabric pricing.  One
:class:`~repro.serving.cluster.FleetLedger` — the cluster tier's — keeps
the whole fleet's books: node-seconds and idle energy, edge admission,
and the displaced-query ledger behind failover.  Member clusters must
be plain serving clusters — the region tier owns failure injection, and
per-cluster controllers (a switch controller or a control plane) are not
composed here.

Traffic model: every query has a *home* region (``region_of``, typically
from :func:`~repro.experiments.setup.follow_the_sun_scenario`, which
phase-offsets each region's diurnal curve so peaks chase the sun).  A
:class:`GeoRouter` decides per arrival whether the query stays home or
*spills* to a remote region:

- ``"pinned"`` never spills — the baseline every geo experiment is
  measured against.
- ``"spill"`` keeps the query home while the home region's projected
  queueing delay sits under ``spill_margin x SLA``; past that it picks
  the cheapest usable remote region (least projected wait, ties to the
  lowest region id) *iff* that region's wait plus the WAN round trip
  strictly beats waiting at home.

A spilled query physically crosses the WAN: its arrival at the remote
region is delayed by the link's one-way time over ``bytes_per_query``
(plus any cache-fill bytes riding along), and the response pays the
return propagation latency, which is added to the query's finish time
before it reaches the metric sinks.  Spill and fill bytes are metered
and priced (J-eq) through the link's ``cost_per_byte_j`` — the WAN bill
folds into the same total-cost figure the PR-6 control plane optimizes.

Cross-region replication and failover: ``region_replication >= 2``
declares that every region's user-partitioned shards also live with its
successor regions (the cluster tier's chained-replica rule, one level
up).  A scheduled region failure (``fail_region`` / ``fail_at``)
displaces every queued and in-flight query of that region at the
failure instant and re-injects them; with replication >= 2 they re-home
over the WAN to the cheapest surviving region (re-home bytes metered)
and *zero queries are lost*; with replication 1 the displaced queries —
and every later arrival homed there — are dropped, the cluster tier's
blunt no-replication lesson at planetary scale.

Region-local WAN caches (``region_cache_bytes > 0``): each region keeps
a :class:`~repro.serving.cache.NodeCache` of *other* regions' hot rows,
keyed by home region.  A spilled query's hot gather is looked up there;
misses become WAN fill bytes on that hop (and, under LRU, residency for
the next spill) — the MP-Cache tier re-priced at WAN scale, where the
miss path is milliseconds instead of microseconds.

Global SLA: the merged global result plus per-home-region metrics and a
cross-region tail (:class:`~repro.serving.metrics.StreamingMetrics` over
only the WAN-crossing queries), all folded by one fan-out sink.

A 1-region ``RegionSimulator`` reproduces ``ClusterSimulator``
record-for-record (no WAN, trivial geo-routing) — pinned in
``tests/unit/test_region.py`` and property-tested across routers x shed
policies x batch sizes in ``tests/property/test_prop_region_parity.py``.
See docs/regions.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serving.cache import CacheConfig, NodeCache
from repro.serving.cluster import ClusterSimulator, FleetLedger, _as_id
from repro.serving.engine import (
    ARRIVAL,
    CONTROL,
    RecordSink,
    StreamingSink,
    run_kernel,
)
from repro.serving.metrics import CacheStats, ServingResult, StreamingMetrics
from repro.serving.wan import QUERY_WAN_BYTES, WanLink, resolve_wan_link
from repro.serving.workload import ServingScenario

_INF = float("inf")


# ---- geo routing ---------------------------------------------------------


class GeoRouter:
    """Interface: pick the serving region for one arrival.

    ``waits`` holds every region's projected queueing delay (seconds;
    ``inf`` for failed or empty regions), ``rtt_s`` the WAN round trip a
    spill would add, ``sla_s`` the query's latency target.  The home
    region is guaranteed usable when this is called — dead-home
    re-homing is the simulator's job, not the router's.
    """

    name = "geo"

    def select_region(
        self, home: int, waits: list[float], rtt_s: float, sla_s: float
    ) -> int:
        """Return the region id that should serve this query."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear per-run state (stateless routers inherit the no-op)."""


class PinnedGeoRouter(GeoRouter):
    """Every query serves in its home region, whatever the queue says.

    The geo baseline: zero WAN spend, and the follow-the-sun peaks land
    undiluted on each region — exactly the violations spilling exists to
    shave.
    """

    name = "pinned"

    def select_region(
        self, home: int, waits: list[float], rtt_s: float, sla_s: float
    ) -> int:
        """Always the home region."""
        return home


class SpillGeoRouter(GeoRouter):
    """Spill to the cheapest remote region once home projects SLA risk.

    Stays home while the home region's projected wait is within
    ``spill_margin`` of the SLA (margin 0.5 spills when half the budget
    is already queued away — the WAN round trip needs the other half).
    A remote region is only chosen when its projected wait plus the WAN
    round trip *strictly* beats waiting at home, so a fleet-wide peak
    (everyone loaded) degrades to pinned behavior instead of paying WAN
    latency for nothing.  Ties break to the lowest region id —
    deterministic, like the cluster tier's node tie-break.
    """

    name = "spill"

    def __init__(self, spill_margin: float = 0.5) -> None:
        if not spill_margin >= 0:  # also rejects nan
            raise ValueError("spill_margin must be non-negative")
        self.spill_margin = spill_margin

    def select_region(
        self, home: int, waits: list[float], rtt_s: float, sla_s: float
    ) -> int:
        """Home while safe; else the least-loaded profitable remote."""
        home_wait = waits[home]
        if home_wait <= self.spill_margin * sla_s:
            return home
        best, best_eta = home, home_wait
        for region, wait in enumerate(waits):
            if region == home or wait == _INF:
                continue
            eta = wait + rtt_s
            if eta < best_eta:  # strict: ascending scan keeps lowest id
                best, best_eta = region, eta
        return best


GEO_ROUTER_NAMES = ("pinned", "spill")


def make_geo_router(
    router: str | GeoRouter, spill_margin: float = 0.5
) -> GeoRouter:
    """Resolve a geo-router name (or pass an instance through)."""
    if isinstance(router, GeoRouter):
        return router
    if router == "pinned":
        return PinnedGeoRouter()
    if router == "spill":
        return SpillGeoRouter(spill_margin)
    raise ValueError(
        f"unknown geo router {router!r}; choose one of {GEO_ROUTER_NAMES}"
    )


# ---- per-decision region state -------------------------------------------


def _region_waits(states, failed, now: float) -> list[float]:
    """Every region's projected queueing delay at ``now``, in one pass.

    ``states[r].active`` holds region ``r``'s routable cores and
    ``failed`` the failed region ids.  A region's wait is ``inf`` when it
    failed or has no alive, non-full active core; otherwise the least of
    those cores' earliest-free delays, read from each core's timeline.
    """
    waits = []
    for region, state in enumerate(states):
        best = _INF
        if region not in failed:
            for core in state.active:
                if core.alive and not core.full:
                    delay = core.timeline.earliest_free_delay(now)
                    if delay < best:
                        best = delay
        waits.append(best)
    return waits


def _rehome_target(waits: list[float]) -> int | None:
    """Where a dead home's query re-homes: the usable region (finite
    wait) with the least wait, ties to the lowest id; None when no region
    is usable."""
    usable = [r for r, wait in enumerate(waits) if wait < _INF]
    if not usable:
        return None
    return min(usable, key=lambda r: (waits[r], r))


# ---- results -------------------------------------------------------------


@dataclass
class RegionResult:
    """A geo run: global merged metrics plus WAN and per-region accounting."""

    result: ServingResult | StreamingMetrics
    regions: list[str]
    router: str
    wan: WanLink
    region_replication: int
    # Per-HOME-region metrics (where the traffic came from) and the
    # cross-region tail (only queries that crossed the WAN).
    per_region: list[StreamingMetrics] = field(default_factory=list)
    cross_region: StreamingMetrics | None = None
    # Per-SERVING-region counters (where the work landed).
    per_region_served: list[int] = field(default_factory=list)
    per_region_dropped: list[int] = field(default_factory=list)
    spills: int = 0  # live-home queries served remotely
    rehomed: int = 0  # dead-home queries re-homed over the WAN
    spill_bytes: int = 0
    rehome_bytes: int = 0
    wan_fill_bytes: int = 0  # cache-miss hot rows pulled across the WAN
    rerouted: int = 0  # displaced queries re-accepted after failover
    lost: int = 0  # displaced queries unservable (replication too low)
    edge_drops: int = 0  # shed at a region edge (backpressure / dead home)
    failed_regions: list[int] = field(default_factory=list)
    wasted_energy_j: float = 0.0
    node_seconds: float = 0.0
    idle_energy_j: float = 0.0
    # Member clusters' node-cache tier, fleet-merged (None when off).
    cache: CacheStats | None = None
    # The WAN tier: region-local caches of remote regions' hot rows.
    region_cache: CacheStats | None = None

    @property
    def wan_bytes(self) -> int:
        """Every byte that crossed a WAN link: spills, re-homes, fills."""
        return self.spill_bytes + self.rehome_bytes + self.wan_fill_bytes

    @property
    def wan_cost_j(self) -> float:
        """J-eq spend on metered WAN traffic (the geo cost-model fold)."""
        return self.wan.cost_j(self.wan_bytes)

    @property
    def total_cost_j(self) -> float:
        """Fleet J-eq: device energy + idle burn + waste + WAN spend."""
        return (
            self.result.total_energy_j
            + self.idle_energy_j
            + self.wasted_energy_j
            + self.wan_cost_j
        )

    def summary(self) -> dict[str, float]:
        """Headline global metrics extended with the geo vocabulary."""
        out = dict(self.result.summary())
        out.update(
            spills=self.spills,
            rehomed=self.rehomed,
            lost=self.lost,
            edge_drops=self.edge_drops,
            wan_mb=self.wan_bytes / 1e6,
            wan_cost_j=self.wan_cost_j,
            total_cost_j=self.total_cost_j,
        )
        for name, metrics in zip(self.regions, self.per_region):
            out[f"viol_{name}"] = metrics.violation_rate
        return out


# ---- the fan-out sink ----------------------------------------------------


class _GeoSink:
    """One sink fanned out three ways: global, per-home-region, cross-WAN.

    ``crossed[index]`` holds the return-leg WAN latency of a query
    currently served away from home; it is folded into the query's
    finish time here — once, exactly when the outcome is observed — so
    every downstream percentile sees the true client-experienced
    latency.  When nothing in a batch crossed the WAN the whole block
    goes to the global sink, and each home region gets one sub-block of
    its members (the whole block when they share a home), preserving the
    streaming sink's vectorized fold (and 1-region bit-exactness).
    ``homes[index]`` is query ``index``'s home region, a Python int.
    """

    def __init__(self, inner, homes, region_sinks, cross_sink) -> None:
        self.inner = inner
        self.result = inner.result
        self._homes = homes
        self._region_sinks = region_sinks
        self._cross = cross_sink
        self.crossed: dict[int, float] = {}

    def observe(self, index, size, arrival_s, start_s, finish_s, path_label,
                accuracy, energy_j, dropped, sla_s) -> None:
        """Fold one outcome (a drop) into every tier."""
        self._fan_out(((index, size, arrival_s, start_s, finish_s,
                        path_label, accuracy, energy_j, dropped, sla_s),))

    def _fan_out(self, outcomes) -> None:
        """Fold outcomes one by one: each goes to the global sink, then
        its home region's, then the cross-region sink if it crossed."""
        pop = self.crossed.pop
        homes = self._homes
        inner = self.inner.observe
        regional = [sink.observe for sink in self._region_sinks]
        cross = self._cross.observe
        for outcome in outcomes:
            extra = pop(outcome[0], None)
            if extra is not None:  # finish_s pays the return leg
                outcome = (*outcome[:4], outcome[4] + extra, *outcome[5:])
            inner(*outcome)
            regional[homes[outcome[0]]](*outcome)
            if extra is not None:
                cross(*outcome)

    def observe_all(self, block) -> None:
        """Fold one batch's block, vectorized whenever no member crossed
        the WAN; a batch holding a WAN-crossing query is folded outcome
        by outcome."""
        queries = block.queries
        crossed = self.crossed
        if crossed and any(q.index in crossed for q in queries):
            self._fan_out(block.outcomes())
            return
        self.inner.observe_all(block)
        sinks = self._region_sinks
        if len(sinks) == 1:
            sinks[0].observe_all(block)
            return
        homes = self._homes
        owners = [homes[q.index] for q in queries]
        if owners.count(owners[0]) == len(owners):
            sinks[owners[0]].observe_all(block)
            return
        slas = block.slas
        by_home: dict[int, list[int]] = {}
        for k, home in enumerate(owners):
            by_home.setdefault(home, []).append(k)
        for home, members in by_home.items():
            sinks[home].observe_all(block._replace(
                queries=[queries[k] for k in members],
                slas=None if slas is None else [slas[k] for k in members],
            ))


# ---- the simulator -------------------------------------------------------


class RegionSimulator:
    """Named regions of :class:`ClusterSimulator`s joined by a WAN link.

    ``regions`` is an ordered list of ``(name, cluster)`` pairs whose
    ``node_base`` offsets must tile a contiguous global node id space
    (build them with :func:`~repro.experiments.setup.build_regions`).
    See the module docstring for the traffic, spill, replication, and
    failover semantics; every knob is a constructor argument so one
    simulator instance is one reproducible experiment configuration.
    """

    def __init__(
        self,
        regions: list[tuple[str, ClusterSimulator]],
        wan: str | WanLink = "wan-metro",
        geo_router: str | GeoRouter = "spill",
        spill_margin: float = 0.5,
        region_replication: int = 1,
        fail_region: int | None = None,
        fail_at: float | None = None,
        bytes_per_query: int = QUERY_WAN_BYTES,
        region_cache_bytes: int = 0,
    ) -> None:
        if not regions:
            raise ValueError("need at least one region")
        names = [name for name, _ in regions]
        if len(set(names)) != len(names) or any(not n for n in names):
            raise ValueError("region names must be unique and non-empty")
        base = 0
        for name, cluster in regions:
            if cluster.node_base != base:
                raise ValueError(
                    f"region {name!r} has node_base {cluster.node_base}, "
                    f"expected {base}; build member clusters with "
                    "contiguous node_base offsets (see build_regions)"
                )
            if (
                cluster.switch_controller is not None
                or cluster.controlplane is not None
                or cluster.fail_at is not None
            ):
                raise ValueError(
                    f"region {name!r}: member clusters must be plain "
                    "serving clusters — failure injection and controllers "
                    "belong to the region tier"
                )
            base += len(cluster.schedulers)
        self.n_nodes = base
        if not 1 <= region_replication <= len(regions):
            raise ValueError("region_replication must be in [1, n_regions]")
        if (fail_region is None) != (fail_at is None):
            raise ValueError("fail_region and fail_at go together")
        if fail_region is not None:
            fail_region = _as_id("fail_region", fail_region)
            if not 0 <= fail_region < len(regions):
                raise ValueError("fail_region out of range")
        if fail_at is not None and not fail_at >= 0:  # also rejects nan
            raise ValueError("fail_at must be non-negative")
        if bytes_per_query <= 0:
            raise ValueError("bytes_per_query must be positive")
        if region_cache_bytes < 0:
            raise ValueError("region_cache_bytes must be non-negative")
        self.regions = list(regions)
        self.wan = resolve_wan_link(wan)
        self.geo_router = make_geo_router(geo_router, spill_margin)
        self.region_replication = region_replication
        self.fail_region = fail_region
        self.fail_at = fail_at
        self.bytes_per_query = bytes_per_query
        self.region_cache_bytes = region_cache_bytes
        self.scheduler_name = regions[0][1].scheduler_name

    @property
    def n_regions(self) -> int:
        """How many regions this simulator composes."""
        return len(self.regions)

    @property
    def region_names(self) -> list[str]:
        """The region names, in global node id order."""
        return [name for name, _ in self.regions]

    # ---- public entry points ---------------------------------------------

    def run(self, scenario: ServingScenario, region_of) -> RegionResult:
        """Simulate with exact record-backed global metrics.

        ``region_of[i]`` is query ``i``'s home region id (the parallel
        array :func:`~repro.data.queries.merge_query_arrays` returns).
        """
        sink = RecordSink(self.scheduler_name, scenario.sla_s)
        return self._simulate(scenario, sink, region_of)

    def run_streaming(self, scenario: ServingScenario, region_of) -> RegionResult:
        """Simulate with constant-memory merged global metrics."""
        sink = StreamingSink(self.scheduler_name, scenario.sla_s)
        return self._simulate(scenario, sink, region_of)

    # ---- internals -------------------------------------------------------

    def _build_region_caches(self) -> list[NodeCache] | None:
        """One WAN cache per region, keyed by *home* region group."""
        if not self.region_cache_bytes:
            return None
        dim = self.regions[0][1].plan.dim
        hot_rows = max(
            1, max(c._cache_hot_total for _, c in self.regions)
        )
        config = CacheConfig(
            capacity_bytes=self.region_cache_bytes,
            embedding_dim=dim,
            policy="lru",
        )
        return [
            config.build(self.n_regions, hot_rows)
            for _ in range(self.n_regions)
        ]

    def _simulate(self, scenario, inner_sink, region_of) -> RegionResult:
        n_queries = len(scenario.queries)
        if len(region_of) != n_queries:
            raise ValueError(
                f"region_of has {len(region_of)} entries for "
                f"{n_queries} queries"
            )
        n = self.n_regions
        # Homes resolved once per run to Python ints.  ``in range`` holds
        # only for integral ids: 0.5, -0.5 and NaN name no region.
        homes = np.asarray(region_of).tolist()
        ids = range(n)
        if not all(home in ids for home in homes):
            raise ValueError("region_of entries must be region ids")
        homes = [int(home) for home in homes]

        # Per-region run state: each region keeps its own shard map,
        # fabric pricing, and intra-region router; the cores live in one
        # flat global list the shared kernel indexes by node id.
        rstates = []
        region_cores: list[list] = []
        cores: list = []
        for _, cluster in self.regions:
            state, rcores = cluster._begin_run(len(cluster.schedulers))
            rstates.append(state)
            region_cores.append(rcores)
            cores.extend(rcores)

        region_sinks = [
            StreamingSink(self.scheduler_name, scenario.sla_s)
            for _ in range(n)
        ]
        cross_sink = StreamingSink(self.scheduler_name, scenario.sla_s)
        sink = _GeoSink(inner_sink, homes, region_sinks, cross_sink)
        wan_caches = self._build_region_caches()
        # Fill bytes with the WAN cache off: the whole hot gather rides
        # the hop every time (nothing region-local to hit).
        row_bytes = self.regions[0][1].plan.dim * 4

        res = RegionResult(
            result=inner_sink.result,
            regions=self.region_names,
            router=self.geo_router.name,
            wan=self.wan,
            region_replication=self.region_replication,
            per_region=[s.result for s in region_sinks],
            cross_region=cross_sink.result,
            per_region_served=[0] * n,
            per_region_dropped=[0] * n,
        )
        ledger = FleetLedger(cores, sink, scenario)
        failed: set[int] = set()
        assigned: dict[int, int] = {}  # index -> region it is in flight to
        rtt_est = self.wan.rtt_s(self.bytes_per_query)
        self.geo_router.reset()

        def wan_fill(target: int, home: int, query) -> int:
            # The spilled query's hot gather at the serving region: hits
            # are already region-local, misses ride this hop's WAN
            # transfer (and, under LRU, stay for the next spill).
            rows = self.regions[home][1]._hot_rows_per_sample * query.size
            if rows <= 0:
                return 0
            if wan_caches is None:
                return rows * row_bytes
            _, misses = wan_caches[target].lookup("wan", home, rows)
            return misses * wan_caches[target].config.row_bytes

        def forward(query, target: int, now: float, loop, fill: int) -> None:
            delay = self.wan.one_way_s(self.bytes_per_query + fill)
            sink.crossed[query.index] = self.wan.latency_s
            assigned[query.index] = target
            loop.push(now + delay, ARRIVAL, query)

        def decide(query, now, loop):
            # One wait pass per decision; both branches read its list.
            home = homes[query.index]
            waits = _region_waits(rstates, failed, now)
            if home in failed:
                target = (
                    _rehome_target(waits)
                    if self.region_replication >= 2 else None
                )
                if target is not None:
                    fill = wan_fill(target, home, query)
                    res.rehomed += 1
                    res.rehome_bytes += self.bytes_per_query
                    res.wan_fill_bytes += fill
                    forward(query, target, now, loop, fill)
                    return None
                # No surviving replica holds the home shards.
                ledger.drop_unservable(query)
                return None
            target = self.geo_router.select_region(
                home, waits, rtt_est, scenario.sla_for(query)
            )
            if target != home:
                fill = wan_fill(target, home, query)
                res.spills += 1
                res.spill_bytes += self.bytes_per_query
                res.wan_fill_bytes += fill
                forward(query, target, now, loop, fill)
                return None
            return ledger.admit(query, now, rstates[home])

        def admit(query, now, loop):
            target = assigned.pop(query.index, None)
            if target is None or target in failed:
                # Fresh, or its target died while it was on the wire:
                # decide from home (possibly another hop, metered again).
                return decide(query, now, loop)
            return ledger.admit(query, now, rstates[target])

        def on_region_fail(kind, region: int, now: float, loop) -> None:
            failed.add(region)
            res.failed_regions.append(region)
            for core in rstates[region].active:
                ledger.fail(core, now, loop)
            rstates[region].active = []

        extra_events = ()
        if self.fail_at is not None:
            extra_events = ((self.fail_at, CONTROL, self.fail_region),)
        end_s = run_kernel(
            cores, scenario, sink, admit,
            extra_events=extra_events, on_control=on_region_fail,
        )

        ledger.close(res, end_s)
        for region, rcores in enumerate(region_cores):
            for core in rcores:
                res.per_region_served[region] += core.served
                res.per_region_dropped[region] += core.shed
        if wan_caches is not None:
            res.region_cache = CacheStats()
            for cache in wan_caches:
                res.region_cache.merge(cache.stats)
        return res
