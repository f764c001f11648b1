"""The serving kernel: one event loop shared by every engine in the repo.

PR 1 built an event-driven single-node engine; PR 2 composed N copies of
it into a cluster — and immediately had to patch the two hand-rolled
loops against drift (``shed_batch`` / ``apportion_energy`` were extracted
precisely because the copies diverged). This module collapses the
duplication: batching, dispatch, shedding, backpressure accounting, and
energy apportionment now exist in exactly one place, and both
:class:`~repro.serving.simulator.ServingSimulator` (a thin 1-node façade)
and :class:`~repro.serving.cluster.ClusterSimulator` (N kernel instances
behind a router) are drivers over these pieces.

The kernel's vocabulary:

:class:`EventLoop`
    A heap of ``(time, seq, kind, payload)`` tuples. Arrivals are seeded
    with sequence numbers ``0..n-1`` in arrival order, so simultaneous
    arrivals keep submission order and pop before any timer armed at the
    same instant; every later push gets the next sequence number.
:class:`Batcher`
    The admission queue of one engine: coalesces arrivals until the batch
    holds ``max_batch_size`` queries or the oldest has waited
    ``batch_timeout_s``. Flush timers are *generation-stamped*: a timer
    armed for generation ``g`` is ignored once a full batch already
    dispatched generation ``g`` — stale timers cost one heap pop, nothing
    else.
:class:`EngineCore`
    One node's serving kernel: scheduler + :class:`~repro.serving.devices.
    DeviceTimeline` + :class:`Batcher` + shed policy. ``dispatch`` routes
    the batch once (``Scheduler.select_batch``), places it on the slot
    the decision carries (the routed device's earliest-free server, read
    by the compiled rule; scanned here only for a scheduler routing by
    its own ``select``), offers every member to the shed policy,
    re-prices the pass on the surviving samples, charges the device
    timeline, and builds the batch's one
    :class:`~repro.serving.metrics.OutcomeBlock`. Service times and
    energy come from the run's :class:`~repro.core.online.PriceTable`,
    so each (path, size) is priced once per run. A ``service_extra``
    hook prices per-batch costs the
    node itself cannot see (the cluster's all-to-all embedding exchange);
    a :class:`~repro.core.switching.SwitchController` may ride along to
    swap the device's resident representation between batches.
:func:`run_kernel`
    The shared driver: pops events and demultiplexes them onto the cores.
    ``admit(query, now, loop)`` decides which core (if any) receives an
    arrival — the single-node façade always answers its only core, the
    cluster answers through its router, backpressure, and coverage
    checks, and the region tier may instead forward the query over the
    WAN by pushing a delayed arrival onto ``loop``.

Outcome commit timing is the one real divergence between the façades:
a failure-free single node records outcomes at *dispatch* (keeping the
record order bit-for-bit identical to the seed reference loop), while the
cluster defers them to the batch's *finish* event so a node failure can
still displace in-flight batches and re-inject their queries
(``defer_commit=True``). Everything upstream of that commit is shared.

Sinks are pluggable and take one block per batch (``observe_all``) and
one row per shed query (``observe``): :class:`RecordSink` keeps them for
exact metrics and builds each :class:`~repro.serving.metrics.QueryRecord`
only when ``records`` is read, :class:`StreamingSink` folds them into
constant-memory :class:`~repro.serving.metrics.StreamingMetrics`.
"""

from __future__ import annotations

import heapq
import math
import operator

from repro.core.online import PriceTable
# Not called here: the benchmark tracer (perfbench/spans.py) wraps this
# name, so it must stay importable from this module.
from repro.hardware.latency import estimate_breakdown  # noqa: F401
from repro.serving.devices import DeviceTimeline
from repro.serving.metrics import OutcomeBlock, ServingResult, StreamingMetrics
from repro.serving.policies import NoShed, ShedPolicy

# Event kinds, ordered only for readability — ties resolve by sequence
# number, never by kind.
ARRIVAL = 0
FLUSH = 1
FINISH = 2
CONTROL = 3  # façade-defined (the cluster's node-failure events)
SWITCH = 4  # representation-switch completion


# ---- shared admission / pricing helpers ----------------------------------


def check_batching(max_batch_size, batch_timeout_s) -> tuple[int, float]:
    """The batching knobs' one domain, checked by every engine and façade.

    ``max_batch_size`` must be an integer of at least 1 (NumPy integers
    and bools pass, normalised by ``operator.index``) and
    ``batch_timeout_s`` finite and non-negative (an infinite timeout would
    fire a partial batch's flush at infinity). Returns both normalised;
    anything else is a ``ValueError`` naming the parameter.
    """
    try:
        size = operator.index(max_batch_size)
    except TypeError:
        raise ValueError(
            f"max_batch_size must be an integer, got {max_batch_size!r}"
        ) from None
    if size < 1:
        raise ValueError("max_batch_size must be >= 1")
    # Written so that NaN fails too.
    if not 0 <= batch_timeout_s < math.inf:
        raise ValueError(
            "batch_timeout_s must be finite and non-negative, got "
            f"{batch_timeout_s!r}"
        )
    return size, batch_timeout_s


def shed_batch(
    policy: ShedPolicy, batch, projected_start: float, service_s: float,
    scenario, on_shed,
) -> list:
    """Split a routed batch into admitted queries, reporting shed ones.

    The admission semantics — wait measured from arrival to projected
    start, the batch's projected service time, per-tenant SLA resolution —
    live here, in one place, for every engine. ``on_shed(query, sla_s)``
    is called for every query the policy refuses.
    """
    if isinstance(policy, NoShed):
        return batch
    admitted = []
    for query in batch:
        sla_q = scenario.sla_for(query)
        wait = projected_start - query.arrival_s
        if policy.admit(wait, service_s, sla_q):
            admitted.append(query)
        else:
            on_shed(query, sla_q)
    return admitted


def apportion_energy(
    batch_energy: float, query_size: int, admitted_count: int,
    admitted_size: int,
) -> float:
    """One query's energy share of a served batch, by sample count.

    A singleton batch keeps the exact per-query value (bit-for-bit with
    the reference loop); larger batches split by each query's share of
    the batch's samples.
    """
    if admitted_count == 1:
        return batch_energy
    return batch_energy * query_size / admitted_size


def query_energy(
    path, query_size: int, service_s: float, prices: PriceTable | None = None,
) -> float:
    """Energy of one device pass: the path's roofline average power at
    ``query_size`` samples when it carries a price model (read through
    ``prices``, the kernel run's table, when given), half the device's
    TDP otherwise, over ``service_s`` seconds."""
    if path.price is None:
        # Utilization-agnostic fallback.
        return path.device.tdp_w * 0.5 * service_s
    if prices is None:
        return path.price.power(query_size) * service_s
    return prices.power(path)[query_size] * service_s


def drop_query(sink, query, sla_s: float) -> None:
    """Record one query shed before execution (policy, edge, or coverage)."""
    sink.observe(
        query.index, query.size, query.arrival_s, query.arrival_s,
        query.arrival_s, "DROPPED", 0.0, 0.0, True, sla_s,
    )


# ---- metric sinks --------------------------------------------------------


class RecordSink:
    """Keep every outcome for exact metrics: a :class:`~repro.serving.
    metrics.ServingResult` holds the blocks and drop rows, and builds
    the :class:`~repro.serving.metrics.QueryRecord` objects only when
    read."""

    def __init__(self, scheduler_name: str, sla_s: float) -> None:
        self.result = ServingResult(scheduler_name=scheduler_name, sla_s=sla_s)

    def observe(self, index, size, arrival_s, start_s, finish_s, path_label,
                accuracy, energy_j, dropped, sla_s) -> None:
        """Keep one outcome (a shed query) as a row."""
        self.result._append((
            index, size, arrival_s, start_s, finish_s, path_label, accuracy,
            energy_j, dropped, sla_s,
        ))

    def observe_all(self, block: OutcomeBlock) -> None:
        """Keep one dispatched batch's block, in commit order."""
        self.result._append(block)


class StreamingSink:
    """Fold outcomes into constant-memory running aggregates."""

    # Below this batch size the per-outcome loop beats columnizing.
    _VECTOR_MIN = 8

    def __init__(self, scheduler_name: str, sla_s: float) -> None:
        self.result = StreamingMetrics(scheduler_name=scheduler_name, sla_s=sla_s)

    def observe(self, index, size, arrival_s, start_s, finish_s, path_label,
                accuracy, energy_j, dropped, sla_s) -> None:
        """Fold one outcome into the streaming aggregates."""
        self.result.observe(
            size, arrival_s, start_s, finish_s, path_label, accuracy,
            energy_j=energy_j, dropped=dropped, sla_s=sla_s,
        )

    def observe_all(self, block: OutcomeBlock) -> None:
        """Fold one dispatched batch's block, vectorized when it pays.

        A block under ``_VECTOR_MIN`` members folds outcome by outcome;
        a larger one folds through :meth:`StreamingMetrics.observe_many`
        from its columns, in a handful of array passes."""
        queries = block.queries
        m = len(queries)
        if m < self._VECTOR_MIN:
            observe = self.result.observe
            for outcome in block.outcomes():
                observe(*outcome[1:])
            return
        self.result.observe_many(
            [q.size for q in queries], [q.arrival_s for q in queries], None,
            [block.finish_s] * m, block.path_label, block.accuracy,
            energies=block.energies(),
            slas=block.sla_s if block.slas is None else block.slas,
        )


# ---- event loop ----------------------------------------------------------


class EventLoop:
    """Heap-ordered events with a monotone sequence for deterministic ties."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0

    def seed_arrivals(self, queries) -> None:
        """Seed the loop with arrivals, sequence-stamped in arrival order.

        Raises ``ValueError`` on a NaN or infinite ``arrival_s``: such a
        query has no place in time order.
        """
        arrivals = sorted(queries, key=lambda q: q.arrival_s)
        heap = []
        for i, q in enumerate(arrivals):
            arrival = q.arrival_s
            if not math.isfinite(arrival):
                raise ValueError(
                    f"arrival_s must be finite; query {q.index} has {arrival}"
                )
            heap.append((arrival, i, ARRIVAL, q))
        heapq.heapify(heap)
        self._heap = heap
        self._seq = len(heap)

    def push(self, time: float, kind: int, payload) -> int:
        """Schedule an event; returns its sequence number (a stable id)."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, kind, payload))
        return seq

    def pop(self) -> tuple:
        """The earliest pending ``(time, seq, kind, payload)`` event."""
        return heapq.heappop(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


class Batcher:
    """Admission queue with generation-stamped flush timers."""

    __slots__ = ("max_batch_size", "timeout_s", "pending", "generation", "armed")

    def __init__(self, max_batch_size: int, timeout_s: float) -> None:
        self.max_batch_size, self.timeout_s = check_batching(
            max_batch_size, timeout_s
        )
        self.pending: list = []
        self.generation = 0  # bumped per dispatch; stale timers are skipped
        self.armed = False

    def add(self, query) -> bool:
        """Queue one arrival; True when the batch is full and must flush."""
        self.pending.append(query)
        return len(self.pending) >= self.max_batch_size

    def take(self) -> list:
        """Claim the pending batch for dispatch and invalidate its timer."""
        batch = self.pending
        self.pending = []
        self.generation += 1
        self.armed = False
        return batch

    def clear(self) -> list:
        """Drop the pending queries without dispatching (node failure or
        drain); the generation bump invalidates any armed flush timer so
        a later revival of the core cannot be flushed by a stale timer."""
        batch = self.pending
        self.pending = []
        self.generation += 1
        self.armed = False
        return batch


class ControlTick:
    """One dispatched batch's control-plane observation.

    The kernel emits exactly one of these per dispatch — including fully
    shed batches, whose pressure is the strongest overload evidence there
    is — and hands it to the core's single ``on_control_tick`` observer.
    Every controller in the repo (the switch controller and the unified
    control plane) reads load from this record and nothing else, so the
    signals cannot drift between them.

    ``wait_s`` is the batch's worst member wait (batching fill + device
    queue — what its oldest member endured); ``queue_s`` the device-queue
    component alone; ``extra_s`` the per-batch service cost the node
    cannot see locally (the cluster's fabric exchange + cache split; 0.0
    single-node).  ``batch_size`` counts samples, ``batch_queries`` the
    queries that carried them.
    """

    __slots__ = (
        "path", "wait_s", "queue_s", "extra_s", "batch_size",
        "batch_queries", "now", "loop", "scenario",
    )

    def __init__(self, path, wait_s, queue_s, extra_s, batch_size,
                 batch_queries, now, loop, scenario) -> None:
        self.path = path
        self.wait_s = wait_s
        self.queue_s = queue_s
        self.extra_s = extra_s
        self.batch_size = batch_size
        self.batch_queries = batch_queries
        self.now = now
        self.loop = loop
        self.scenario = scenario


# ---- the kernel ----------------------------------------------------------


class EngineCore:
    """One node's serving kernel: batcher + device timeline + shed policy.

    ``service_extra(core, batch, path)`` prices per-batch service cost
    the node cannot see locally (the cluster's fabric exchange and cache
    hit/miss split for the routed ``path``) — it must be **pure**: the
    shed policy may trigger a second call to re-price the surviving
    subset.  ``service_commit(core, batch, path)`` is its effectful
    sibling, called exactly once per dispatched non-empty batch, where
    stateful per-batch accounting (the cluster's cache fills) belongs.
    ``defer_commit`` moves outcome commit from dispatch to the finish
    event so a failure can invalidate in-flight batches; ``switcher`` is
    an optional :class:`~repro.core.switching.SwitchController` enabling
    runtime representation switching, and ``on_switch(core, device,
    now)`` fires after a switch window completes (the cluster invalidates
    and re-warms the node's cache there); ``cache`` is an optional
    per-node :class:`~repro.serving.cache.NodeCache` — the kernel only
    carries it so routers and cluster hooks can reach it through the
    core.

    ``on_control_tick(core, tick)`` is the kernel's *single* control
    observer: one :class:`ControlTick` per dispatched batch, shed or
    served.  It replaces the PR 3-5 pattern of per-controller hooks
    (``switcher.observe`` + ``on_dispatch``) — a façade installs exactly
    one handler (the cluster hands every tick to the unified
    :class:`~repro.serving.controlplane.ControlPlane`).  When no
    handler is given and a ``switcher`` is, the switcher's own
    :meth:`~repro.core.switching.SwitchController.on_tick` is wired by
    default, so single-node switching needs no extra plumbing.

    The attributes routers key on — ``node_id``, ``inflight_queries``,
    ``alive``, ``full``, ``timeline`` (whose ``earliest_free_delay`` the
    built-in routers read directly) — live here, so a core *is* the
    cluster's node object.
    """

    __slots__ = (
        "node_id", "scheduler", "policy", "batcher", "timeline", "max_queue",
        "track_energy", "defer_commit", "service_extra", "service_commit",
        "switcher", "on_control_tick", "on_switch", "cache", "alive",
        "in_flight", "inflight_queries", "served", "shed", "prices",
    )

    def __init__(
        self,
        scheduler,
        policy: ShedPolicy,
        *,
        max_batch_size: int = 1,
        batch_timeout_s: float = 0.0,
        node_id: int = 0,
        max_queue: int = 0,
        track_energy: bool = True,
        defer_commit: bool = False,
        service_extra=None,
        service_commit=None,
        switcher=None,
        on_control_tick=None,
        on_switch=None,
        cache=None,
    ) -> None:
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        self.node_id = node_id
        self.scheduler = scheduler
        self.policy = policy
        self.batcher = Batcher(max_batch_size, batch_timeout_s)
        self.timeline = DeviceTimeline(scheduler.paths)
        self.max_queue = max_queue
        self.track_energy = track_energy
        self.defer_commit = defer_commit
        self.service_extra = service_extra
        self.service_commit = service_commit
        self.switcher = switcher
        if on_control_tick is None and switcher is not None:
            # Default wiring: a lone switch controller is its own control
            # plane — the single-node façade (and direct EngineCore users)
            # get PR-3 switching without installing a handler.
            on_control_tick = switcher.on_tick
        self.on_control_tick = on_control_tick
        self.on_switch = on_switch
        self.cache = cache
        self.alive = True
        # Dispatched batches by finish-event sequence number, each kept as
        # its outcome block (deferred or already committed).
        self.in_flight: dict[int, OutcomeBlock] = {}
        self.inflight_queries = 0  # admission queue + dispatched, unfinished
        self.served = 0
        self.shed = 0
        # Re-pricing and energy read this table; ``run_kernel`` shares one
        # per run between every core it drives.
        self.prices = PriceTable()
        if switcher is not None:
            switcher.attach(self)

    # ---- router-facing state --------------------------------------------

    @property
    def full(self) -> bool:
        """True when backpressure must withhold this node from routing."""
        return self.max_queue > 0 and self.inflight_queries >= self.max_queue

    def earliest_free_delay(self, now: float) -> float:
        """Wait until any of this node's devices frees a slot."""
        return self.timeline.earliest_free_delay(now)

    # ---- event handlers --------------------------------------------------

    def enqueue(self, query, now: float, loop: EventLoop, scenario, sink) -> None:
        """Admit one arrival: coalesce, and dispatch or arm the timer."""
        self.inflight_queries += 1
        batcher = self.batcher
        if batcher.add(query):
            self.dispatch(now, loop, scenario, sink)
        elif not batcher.armed:
            batcher.armed = True
            loop.push(
                now + batcher.timeout_s, FLUSH, (self.node_id, batcher.generation)
            )

    def on_flush(self, generation: int, now: float, loop: EventLoop,
                 scenario, sink) -> None:
        """A flush timer fired; dispatch unless it went stale."""
        if (
            self.alive
            and generation == self.batcher.generation
            and self.batcher.pending
        ):
            self.dispatch(now, loop, scenario, sink)

    def on_finish(self, seq: int, sink) -> None:
        """A dispatched batch completed; commit deferred outcomes."""
        block = self.in_flight.pop(seq, None)
        if block is None:
            return  # invalidated by a failure
        if self.defer_commit:
            sink.observe_all(block)
        self.inflight_queries -= len(block.queries)
        self.served += len(block.queries)

    def on_switch_complete(self, device: str, now: float) -> None:
        """A representation switch's blocking window elapsed."""
        if self.switcher is not None:
            self.switcher.complete(self, device, now)
        if self.on_switch is not None:
            self.on_switch(self, device, now)

    # ---- dispatch (the one copy) ----------------------------------------

    def dispatch(self, now: float, loop: EventLoop, scenario, sink) -> None:
        """Route, shed, price, and commit the pending batch."""
        batch = self.batcher.take()
        total_size = sum(q.size for q in batch)
        decision = self.scheduler.select_batch(
            total_size, scenario.sla_s, now, self.timeline.free_at
        )
        path = decision.path
        device = path.device.name
        slot = decision.slot
        server, free = (
            self.timeline.earliest(device) if slot is None else slot
        )
        projected_start = free if free > now else now  # max(now, free)
        extra_s = 0.0
        if self.service_extra is not None:
            extra_s = self.service_extra(self, batch, path)

        def on_shed(query, sla_q):
            drop_query(sink, query, sla_q)
            self.inflight_queries -= 1
            self.shed += 1

        admitted = shed_batch(
            self.policy, batch, projected_start,
            decision.service_s + extra_s, scenario, on_shed,
        )
        if not admitted:
            if self.on_control_tick is not None:
                # A fully-shed batch is the strongest overload evidence
                # there is; the controllers must still see its pressure or
                # a drowning device could never surge to a faster
                # representation (or a bigger fleet).
                self.on_control_tick(self, ControlTick(
                    path, projected_start - batch[0].arrival_s,
                    projected_start - now, extra_s, total_size, len(batch),
                    now, loop, scenario,
                ))
            return

        admitted_size = total_size
        compute_s = decision.service_s
        if len(admitted) != len(batch):
            # Re-price the pass on the surviving samples only.
            admitted_size = sum(q.size for q in admitted)
            compute_s = self.prices.service(path)[admitted_size]
            if self.service_extra is not None:
                extra_s = self.service_extra(self, admitted, path)
        start = projected_start
        finish = start + compute_s + extra_s
        self.timeline.commit(device, server, finish)
        self.scheduler.on_batch_dispatched(path, admitted_size, start, finish)
        if self.service_commit is not None:
            # The effectful twin of service_extra: stateful per-batch
            # accounting (cache fills) happens exactly once, on the final
            # admitted set, no matter how many times pricing re-ran.
            self.service_commit(self, admitted, path)

        batch_energy = 0.0
        if self.track_energy:
            # Energy covers the device pass; fabric exchange is priced in
            # time only (NIC power is negligible next to the device TDP).
            batch_energy = query_energy(
                path, admitted_size, compute_s, self.prices
            )
        block = OutcomeBlock(
            admitted,
            # Per-query targets only when the scenario has tenant ones.
            [scenario.sla_for(q) for q in admitted]
            if scenario.sla_by_tenant else None,
            scenario.sla_s, start, finish, path.label, path.accuracy,
            batch_energy, len(admitted), admitted_size,
        )
        self.in_flight[loop.push(finish, FINISH, self.node_id)] = block
        if not self.defer_commit:
            sink.observe_all(block)
        if self.on_control_tick is not None:
            # Pressure signal: the batch's worst queueing delay (batching
            # fill + device queue), i.e. what its oldest member endured.
            self.on_control_tick(self, ControlTick(
                path, projected_start - admitted[0].arrival_s,
                projected_start - now, extra_s, admitted_size, len(admitted),
                now, loop, scenario,
            ))

    # ---- failure / membership support ------------------------------------

    def displace(self) -> tuple[list, float]:
        """Kill the node: return its displaced queries and wasted energy."""
        displaced = self.batcher.clear()
        wasted = 0.0
        for block in self.in_flight.values():
            displaced.extend(block.queries)
            wasted += block.energy_j
        self.alive = False
        self.in_flight = {}
        self.inflight_queries = 0
        return displaced, wasted

    def drain(self) -> list:
        """Gracefully retire the node (scale-down): stop admitting, hand
        back the queued-but-undispatched queries for re-routing, and let
        already-dispatched batches run to completion — unlike
        :meth:`displace`, no committed work (or energy) is wasted."""
        pending = self.batcher.clear()
        self.inflight_queries -= len(pending)
        self.alive = False
        return pending

    def revive(self) -> None:
        """Re-admit a drained node to service (scale-up reusing its slot).

        Any batches still in flight from before the drain keep their
        finish events; the batcher was cleared (and its flush generation
        bumped) at drain time, so the revived core starts empty."""
        self.alive = True


def run_kernel(cores, scenario, sink, admit, extra_events=(), on_control=None):
    """Drive engine cores off one shared event heap until it drains.

    ``admit(query, now, loop) -> EngineCore | None`` places each arrival
    (None means the arrival was consumed at the edge — the admitter
    records the drop itself, or re-pushes the query onto ``loop`` as a
    later arrival, as the region tier's WAN forwarding does).
    ``extra_events`` seeds façade-specific events (a node or region
    failure, forced scale operations); ``on_control(kind, payload, now,
    loop)`` handles any kind the kernel does not know.
    Returns the timestamp of the last event processed — the run's end
    time, which fleet accounting (node-seconds) needs.
    """
    loop = EventLoop()
    loop.seed_arrivals(scenario.queries)
    for time, kind, payload in extra_events:
        loop.push(time, kind, payload)
    # One price table per run, shared by every core and every scheduler
    # (a cluster may share one scheduler across its cores), dropped when
    # the run ends.
    prices = PriceTable()
    schedulers = {}
    for core in cores:
        core.prices = prices
        schedulers[id(core.scheduler)] = core.scheduler
    # Test the heap list itself, not ``EventLoop.__bool__``, once per
    # event; every event is still taken through ``pop``.
    heap = loop._heap
    pop = loop.pop
    time = 0.0
    try:
        for scheduler in schedulers.values():
            scheduler._open_run(prices)
        while heap:
            time, seq, kind, payload = pop()
            if kind == ARRIVAL:
                core = admit(payload, time, loop)
                if core is not None:
                    core.enqueue(payload, time, loop, scenario, sink)
            elif kind == FLUSH:
                node_id, generation = payload
                cores[node_id].on_flush(
                    generation, time, loop, scenario, sink
                )
            elif kind == FINISH:
                cores[payload].on_finish(seq, sink)
            elif kind == SWITCH:
                node_id, device = payload
                cores[node_id].on_switch_complete(device, time)
            else:
                on_control(kind, payload, time, loop)
    finally:
        for scheduler in schedulers.values():
            scheduler._close_run()
    return time
