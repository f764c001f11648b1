"""The array fast path: a vectorized single-node serving engine.

The event kernel (:mod:`repro.serving.engine`) pays Python-level cost for
every ARRIVAL/FLUSH/FINISH event — fundamentally per *event*, which caps
the engine-scale benchmark around an order of magnitude over the seed
reference loop and puts a production *day* of traffic (10M+ queries from
millions of users, the ROADMAP north star) out of reach. This module
replaces the event loop for the single-node case with closed-form array
accounting over the column query stream
(:class:`~repro.data.queries.QueryArrays`):

**Batch formation is precomputable.** On one node, a batch's membership
and dispatch time depend only on the sorted arrival times, the batch
capacity ``B``, and the flush timeout — never on dispatch outcomes. A
batch starting at query ``s`` is full iff ``arrival[s + B - 1]`` is at
or below its deadline ``arrival[s] + timeout``, and then dispatches at
that filling arrival; otherwise it ends at the last arrival at or before
the deadline and dispatches at the deadline (flush). FINISH events only
decrement counters, so no heap survives. Planning reads only each
batch's own slice: one comparison tells a full batch, and a flushed one
searches its at most ``B`` arrivals (:func:`plan_batches`).

**Batch pricing is vectorizable.** Service times for every batch total
come from one :meth:`~repro.core.paths.PathProfile.latency_many` pass per
candidate path — bit-equal to the kernel's per-batch scalar calls — and
routing runs the scheduler's compiled rule, the one the kernel runs
(:class:`~repro.core.online.Rule`), against those tables
(:func:`_make_router`). The rule reads each device's earliest free slot
once per batch, however many paths share the device, and returns the
chosen path's index with that slot, which the loop commits to without a
second scan. Energy is read by nothing in the loop, so it is priced
after it: one :meth:`~repro.hardware.latency.PriceModel.power_many` call
per path over that path's batches (:func:`_price_energy`), from the same
roofline formula as the kernel's scalar ``power`` call.

**Admission is per batch.** Drop-late and deadline-aware admit a whole
batch with one comparison: its first member's wait against the batch's
strictest SLA. That is exact. The first member arrived earliest, so its
rounded wait is the largest, and float subtraction, addition and
multiplication by a positive slack all round monotonically, so no member
can fail once the first passes against the strictest target. A batch
that fails this check, and every other policy, evaluates the per-member
mask over the members' wait vector.

**Outcomes commit per batch.** The dispatch loop keeps only per-batch
scalars (start, finish, path index, admitted size, compute time) and the
admission mask of the rare batch that sheds; each label is interned into
fold order once, when it first appears. After the loop, one label-major
pass builds each label's outcome block straight from its batches
(:func:`_blocks`): the streaming sink folds each block through
:meth:`~repro.serving.metrics.StreamingMetrics.observe_many` as it is
built, and the other sinks get the blocks scattered into commit order.

**Parity is the contract.** For every supported configuration the fast
path reproduces the kernel's records bit for bit — same floats, same
commit order — pinned by ``tests/property/test_prop_engine_parity.py``
across shed policies, batch sizes, schedulers, and multi-tenant SLAs;
the kernel remains the reference semantics. A scheduler that overrides
``select`` or ``select_batch``, and an unknown policy subclass, degrade
gracefully: routing falls back to the scheduler's own ``select_batch``
and shedding to per-member ``admit`` calls, preserving exactness at
reduced (still batch-level, never event-level) speed.

What the fast path does **not** cover — and
:class:`~repro.serving.simulator.ServingSimulator` rejects up front —
is anything that injects events between batches: runtime representation
switching, the cluster's failure/membership control plane, autoscaling.
Those remain event-kernel territory; ``serve --fastpath`` enforces the
same boundary at the CLI.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.online import Scheduler, compile_rule
from repro.data.queries import QueryArrays
from repro.serving.devices import DeviceTimeline
from repro.serving.engine import RecordSink, StreamingSink, check_batching
from repro.serving.metrics import QueryRecord, ServingResult, StreamingMetrics
from repro.serving.policies import (
    DeadlineAware,
    DropLate,
    NoShed,
    ShedPolicy,
    make_policy,
)

DROPPED_LABEL = "DROPPED"


# ---- batch formation ------------------------------------------------------


def plan_batches(
    arrivals: np.ndarray, max_batch_size: int, timeout_s: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precompute every batch's ``[start, end)`` slice and dispatch time.

    Single-node batch boundaries are a pure function of the sorted
    arrival vector: the kernel's flush timer for a batch starting at
    ``s`` fires at ``deadline = arrivals[s] + timeout_s``, and
    same-instant arrivals pop before that timer (the event loop seeds
    arrivals with the lowest sequence numbers). So the batch is full iff
    ``arrivals[s + max_batch_size - 1] <= deadline`` and dispatches at
    that filling arrival; otherwise it ends after its last member at or
    before the deadline and dispatches at the deadline — exactly the
    event semantics, with no heap. Every arrival before ``s`` lies at or
    below the deadline, so this equals
    ``min(s + max_batch_size, searchsorted(arrivals, deadline, "right"))``
    while touching only the batch's own slice.

    Returns ``(starts, ends, dispatch_times)`` as parallel arrays. Raises
    ``ValueError`` outside the batching domain (``check_batching``): a
    batch size that is not an integer of at least 1, or a timeout that is
    negative, NaN or infinite.
    """
    max_batch_size, timeout_s = check_batching(max_batch_size, timeout_s)
    n = int(arrivals.size)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.float64)
    if max_batch_size == 1:
        starts = np.arange(n, dtype=np.int64)
        return starts, starts + 1, arrivals.astype(np.float64, copy=True)
    arrival = arrivals.item
    starts: list[int] = []
    ends: list[int] = []
    times: list[float] = []
    s = 0
    # The boundary chain is sequential (each start depends on the last
    # end) but costs one comparison per batch; only a batch that flushes
    # before filling searches its own slice.
    while s < n:
        deadline = arrival(s) + timeout_s
        end = s + max_batch_size
        if end <= n and arrival(end - 1) <= deadline:
            when = arrival(end - 1)
        else:
            end = s + int(arrivals[s:end].searchsorted(deadline, "right"))
            when = deadline
        starts.append(s)
        ends.append(end)
        times.append(when)
        s = end
    return (
        np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64),
        np.asarray(times, dtype=np.float64),
    )


# ---- paths and labels -----------------------------------------------------


_SHED = -1  # the code of a batch that shed every member, and the shed label


class _Labels:
    """The paths a run can route to, by index, and its outcome labels.

    Index ``i`` is ``scheduler.paths[i]``; :meth:`index` appends a path a
    scheduler subclass returns from outside that list. ``order`` holds
    each label once, in fold order (first appearance): a path's index the
    first time it serves, and ``_SHED`` the first time a member is shed,
    before the path of that batch.
    """

    __slots__ = ("paths", "fresh", "order")

    def __init__(self, paths) -> None:
        self.paths = list(paths)
        self.fresh = [True] * len(self.paths)  # not yet in ``order``
        self.order: list[int] = []

    def index(self, path) -> int:
        """A path's index, by identity (``ExecutionPath.__eq__`` would
        compare profile arrays); an unknown path is appended."""
        for i, known in enumerate(self.paths):
            if known is path:
                return i
        self.paths.append(path)
        self.fresh.append(True)
        return len(self.paths) - 1

    def code_of(self, key: int) -> int:
        """Intern one label (a path index, or ``_SHED``) into fold order;
        returns its code, the position the outcome columns use."""
        self.order.append(key)
        return len(self.order) - 1


# ---- routing --------------------------------------------------------------


def _make_router(
    scheduler: Scheduler, labels: _Labels, totals: np.ndarray, sla_s: float,
    free_at: dict[str, list[float]],
):
    """A batch router and its tables: ``(route, services, pools, first)``.

    ``route(services, b, sla_s, now, pools, first[b])`` returns ``(index,
    service, wait, server, free)`` for batch ``b``: the chosen path's
    position in ``labels.paths``, its service time and queue wait, and
    the routed device's earliest-free server and its free time, the slot
    the dispatch loop commits to. A scheduler that keeps the base
    ``select`` and ``select_batch`` routes through its compiled
    :class:`~repro.core.online.Rule`, the kernel's own, over service-time
    tables precomputed per path for every batch total (bit-equal to the
    kernel's scalar pricing); each batch starts at the first preference
    group with a path that can fit. A scheduler that overrides either
    method falls back to calling ``select_batch`` itself: exact, just not
    table-accelerated; its path is mapped to an index by identity.
    """
    rule = compile_rule(scheduler)
    if rule is None:

        def route(services, b, sla_s, now, pools, first):
            decision = scheduler.select_batch(
                int(totals[b]), sla_s, now, free_at
            )
            path = decision.path
            pool = free_at[path.device.name]
            free = min(pool)
            return (
                labels.index(path), decision.service_s, decision.wait_s,
                pool.index(free), free,
            )

        return route, None, None, [0] * totals.size

    tables = [path.latency_many(totals) for path in rule.paths]
    # The timeline writes its pools in place, so these stay live.
    pools = [free_at[device] for device in rule.devices]
    # A path whose service alone exceeds the SLA never fits (a wait is
    # never negative, and adding one never lowers the finish), so each
    # batch starts at the first group with a path that can fit.
    fits = [
        np.any([tables[i] <= sla_s for i in group], axis=0)
        for group in rule.groups
    ]
    first = np.argmax(fits + [np.ones(totals.size, bool)], axis=0).tolist()
    services = [table.tolist() for table in tables]
    return rule.route, services, pools, first


# ---- the vectorized engine ------------------------------------------------


class _Batches(NamedTuple):
    """The dispatch loop's outcomes, one entry per batch in dispatch order.

    ``codes`` holds the serving path's index (``_SHED`` for a batch that
    shed every member), ``charged`` the admitted sample count and
    ``computes`` the compute time; ``shed`` lists each batch that shed
    some members, with its admission mask.
    """

    starts: np.ndarray
    ends: np.ndarray
    begun: list[float]
    finished: list[float]
    codes: list[int]
    charged: list[int]
    computes: list[float]
    shed: list[tuple[int, np.ndarray]]
    labels: _Labels


def _simulate(
    scheduler: Scheduler, stream: QueryArrays, slas: np.ndarray,
    policy: ShedPolicy, max_batch_size: int, batch_timeout_s: float,
    sla_s: float,
) -> _Batches:
    """Run the batch plan through routing, shedding and commit."""
    arrivals = stream.arrival_s
    sizes = stream.size
    labels = _Labels(scheduler.paths)
    paths = labels.paths
    fresh = labels.fresh
    timeline = DeviceTimeline(scheduler.paths)
    free_at = timeline.free_at
    starts, ends, times = plan_batches(arrivals, max_batch_size, batch_timeout_s)
    totals = np.add.reduceat(sizes, starts)
    route, services, pools, first = _make_router(
        scheduler, labels, totals, sla_s, free_at
    )
    commit = timeline.commit
    on_dispatched = scheduler.on_batch_dispatched

    no_shed = isinstance(policy, NoShed)
    drop_late = type(policy) is DropLate
    deadline = type(policy) is DeadlineAware
    slack = policy.slack if deadline else 1.0
    if drop_late or deadline:
        # Whole-batch admission (module docstring): the first member's
        # wait against the batch's strictest, slack-scaled SLA.
        firsts_l = arrivals[starts].tolist()
        strictest = np.minimum.reduceat(slas, starts)
        bounds_l = (slack * strictest if deadline else strictest).tolist()

    starts_l = starts.tolist()
    ends_l = ends.tolist()
    times_l = times.tolist()
    totals_l = totals.tolist()
    # Only the generic-policy fallback reads per-query SLAs as floats;
    # materializing the full list up front would cost ~4% of a 10M run.
    slas_l: list[float] | None = None

    begun, finished, codes, charged, computes, shed = [], [], [], [], [], []
    for b in range(len(starts_l)):
        now = times_l[b]
        i, service_s, _, server, free = route(
            services, b, sla_s, now, pools, first[b]
        )
        projected_start = free if free > now else now

        admitted_size = totals_l[b]
        compute_s = service_s
        if drop_late:
            whole = projected_start - firsts_l[b] <= bounds_l[b]
        elif deadline:
            whole = projected_start - firsts_l[b] + service_s <= bounds_l[b]
        else:
            whole = no_shed
        if not whole:
            s = starts_l[b]
            e = ends_l[b]
            wait = projected_start - arrivals[s:e]
            if drop_late:
                ok = wait <= slas[s:e]
            elif deadline:
                ok = wait + service_s <= slack * slas[s:e]
            else:
                if slas_l is None:
                    slas_l = slas.tolist()
                ok = np.fromiter(
                    (
                        policy.admit(w, service_s, slas_l[s + j])
                        for j, w in enumerate(wait.tolist())
                    ),
                    dtype=np.bool_, count=e - s,
                )
            admitted_count = int(np.count_nonzero(ok))
            if admitted_count < e - s:
                if not shed:
                    labels.code_of(_SHED)
                shed.append((b, ok))
                if admitted_count == 0:
                    # Nothing dispatches; every member is a shed row.
                    begun.append(now)
                    finished.append(now)
                    codes.append(_SHED)
                    charged.append(0)
                    computes.append(0.0)
                    continue
                admitted_size = int(sizes[s:e][ok].sum())
                compute_s = paths[i].latency(admitted_size)

        path = paths[i]
        device = path.device.name
        finish = projected_start + compute_s
        commit(device, server, finish)
        on_dispatched(path, admitted_size, projected_start, finish)
        if fresh[i]:
            fresh[i] = False
            labels.code_of(i)
        begun.append(projected_start)
        finished.append(finish)
        codes.append(i)
        charged.append(admitted_size)
        computes.append(compute_s)
    return _Batches(
        starts, ends, begun, finished, codes, charged, computes, shed, labels
    )


def _price_energy(path, charged: np.ndarray, computes: np.ndarray) -> np.ndarray:
    """One path's batches' energy in one array call.

    The kernel's ``query_energy``: a priced path's roofline power at each
    batch's admitted size times its compute time
    (:meth:`~repro.hardware.latency.PriceModel.power_many`, bit-equal per
    batch to the kernel's scalar ``power``), or half the device's TDP over
    the compute time for a path without a price, in the same operation
    order.
    """
    if path.price is None:
        return path.device.tdp_w * 0.5 * computes
    return path.price.power_many(charged) * computes


# ---- outcome blocks -------------------------------------------------------


def _blocks(
    out: _Batches, stream: QueryArrays, slas: np.ndarray | float,
    track_energy: bool, full: bool,
):
    """Yield each label's ``(at, columns)`` block, in fold order.

    ``columns`` are the sink's nine outcome columns over the label's rows,
    in commit order (a scalar stands for a whole column; ``index`` and
    ``start`` are None unless ``full``), and ``at`` selects their commit
    positions: a row mask, or the shed label's row indices. ``slas`` is
    the per-query target column, or one target for every row, which
    every block then carries as its scalar SLA column. A label's
    rows are the row ranges of its batches. A batch that shed members
    commits the shed ones first, then its survivors, each group in
    arrival order, as the kernel does; the shed label takes the shed
    rows. The stream is put in this commit order (one gather per column)
    only when some batch's shed members are not a prefix of it. A
    query's energy is its size share of its batch's, and a lone survivor
    keeps the exact batch energy (``apportion_energy``).
    """
    indices = stream.index if full else None
    sizes = stream.size
    arrivals = stream.arrival_s
    per_query = np.ndim(slas) > 0
    starts, ends = out.starts, out.ends
    widths = ends - starts
    kept = widths.copy()
    shed_rows = []
    order = None
    for b, ok in out.shed:
        s = int(starts[b])
        kept[b] = int(np.count_nonzero(ok))
        k = ok.size - int(kept[b])
        shed_rows.append(np.arange(s, s + k))
        if ok[:k].any():
            if order is None:
                order = np.arange(arrivals.size)
            order[s:s + ok.size] = s + np.argsort(ok, kind="stable")
    shed_rows = np.concatenate(shed_rows) if shed_rows else None
    if order is not None:
        sizes, arrivals = sizes[order], arrivals[order]
        if per_query:
            slas = slas[order]
        if full:
            indices = indices[order]
    codes = np.array(out.codes)
    finished = np.array(out.finished)
    charged = np.array(out.charged)
    computes = np.array(out.computes)
    begun = np.array(out.begun) if full else None
    labels = out.labels
    for code, key in enumerate(labels.order):
        if key == _SHED:
            at = shed_rows
        else:
            mine = codes == key
            batches = np.flatnonzero(mine)
            counts = kept[batches]
            at = np.repeat(mine, widths)  # a row mask, in commit order
            if shed_rows is not None:
                at[shed_rows] = False
        size = sizes[at]
        arrival = arrivals[at]
        index = indices[at] if full else None
        sla = slas[at] if per_query else slas
        if key == _SHED:
            yield at, (
                index, size, arrival, arrival, arrival, code, 0.0, True, sla,
            )
            continue
        energy = 0.0
        if track_energy:
            batch_energy = _price_energy(
                labels.paths[key], charged[batches], computes[batches]
            )
            energy = np.repeat(batch_energy, counts)
            energy *= size
            energy /= np.repeat(charged[batches], counts)
            lone = counts == 1
            energy[np.cumsum(counts)[lone] - 1] = batch_energy[lone]
        yield at, (
            index, size, arrival,
            np.repeat(begun[batches], counts) if full else None,
            np.repeat(finished[batches], counts), code, energy, False, sla,
        )


# ---- sink delivery --------------------------------------------------------


def _flush_columns(
    out: _Batches, stream: QueryArrays, slas: np.ndarray | float,
    track_energy: bool, sink,
) -> None:
    """Deliver the batch outcomes to a sink in bulk.

    :class:`~repro.serving.engine.StreamingSink` folds each label's block
    through ``observe_many`` as it is built. Every other sink needs commit
    order: the blocks are scattered to their commit positions, then
    :class:`~repro.serving.engine.RecordSink` gets one block
    materialization pass (records in commit order, bit-equal to the
    kernel's) and any other sink the kernel's per-outcome ``observe``
    calls.
    """
    paths = out.labels.paths
    order = out.labels.order
    names = [DROPPED_LABEL if k == _SHED else paths[k].label for k in order]
    accuracies = [0.0 if k == _SHED else paths[k].accuracy for k in order]
    streaming = isinstance(sink, StreamingSink)
    blocks = _blocks(out, stream, slas, track_energy, not streaming)
    if streaming:
        metrics = sink.result
        for _, (_, size, arrival, _, finish, code, energy, drop, sla) in blocks:
            metrics.observe_many(
                size, arrival, None, finish, names[code], accuracies[code],
                energies=energy, dropped=drop, slas=sla,
            )
        return
    n = len(stream)
    dtypes = (
        stream.index.dtype, stream.size.dtype, np.float64, np.float64,
        np.float64, np.int64, np.float64, np.bool_, np.float64,
    )
    cols = [np.empty(n, dtype=dtype) for dtype in dtypes]
    for at, values in blocks:
        for col, value in zip(cols, values):
            col[at] = value
    columns = zip(*(col.tolist() for col in cols))
    if isinstance(sink, RecordSink):
        records = sink.result.records
        default_sla = sink.result.sla_s
        for idx, size, arrival, start, finish, code, energy, drop, sla in columns:
            records.append(QueryRecord(
                index=idx, size=size, arrival_s=arrival, start_s=start,
                finish_s=finish, path_label=names[code],
                accuracy=accuracies[code], energy_j=energy, dropped=drop,
                sla_s=None if sla == default_sla else sla,
            ))
        return
    for idx, size, arrival, start, finish, code, energy, drop, sla in columns:
        sink.observe(
            idx, size, arrival, start, finish, names[code],
            accuracies[code], energy, drop, sla,
        )


# ---- entry points ---------------------------------------------------------


def _sla_vector(arrays: QueryArrays, sla_s: float, sla_by_tenant) -> np.ndarray:
    """Per-query SLA targets (scenario ``sla_for`` semantics, columnized)."""
    slas = np.full(len(arrays), float(sla_s))
    if sla_by_tenant:
        for code, name in enumerate(arrays.tenants):
            if name:
                slas[arrays.tenant_codes == code] = float(
                    sla_by_tenant.get(name, sla_s)
                )
    return slas


def _sorted_stream(arrays: QueryArrays) -> QueryArrays:
    """The stream in arrival order (stable, matching the kernel's sort).

    Raises ``ValueError`` on a NaN or infinite ``arrival_s``, as the
    kernel's ``EventLoop.seed_arrivals`` does.
    """
    arrivals = arrays.arrival_s
    finite = np.isfinite(arrivals)
    if not finite.all():
        first = int(np.argmin(finite))
        raise ValueError(
            f"arrival_s must be finite; query {int(arrays.index[first])} "
            f"has {float(arrivals[first])}"
        )
    if arrivals.size < 2 or bool((arrivals[1:] >= arrivals[:-1]).all()):
        return arrays
    order = np.argsort(arrivals, kind="stable")
    return QueryArrays(
        index=arrays.index[order], size=arrays.size[order],
        arrival_s=arrivals[order], tenant_codes=arrays.tenant_codes[order],
        tenants=arrays.tenants, user=arrays.user[order],
    )


def _serve(
    scheduler: Scheduler, arrays: QueryArrays, sla_s: float, sla_by_tenant,
    policy: ShedPolicy, max_batch_size: int, batch_timeout_s: float,
    track_energy: bool, sink,
) -> None:
    """Sort the stream, dispatch it by batch and deliver it to ``sink``."""
    stream = _sorted_stream(arrays)
    slas = _sla_vector(stream, sla_s, sla_by_tenant)
    out = _simulate(
        scheduler, stream, slas, policy, max_batch_size, batch_timeout_s,
        sla_s,
    )
    # Without tenant targets every row's SLA is the scenario's: the
    # outcome blocks carry it as one scalar, not a gathered column.
    _flush_columns(
        out, stream, slas if sla_by_tenant else float(sla_s), track_energy,
        sink,
    )


def run_fastpath(
    scheduler: Scheduler,
    scenario,
    sink,
    *,
    policy: ShedPolicy | str = "none",
    max_batch_size: int = 1,
    batch_timeout_s: float = 0.0,
    track_energy: bool = True,
) -> None:
    """Drive one scenario through the array fast path into ``sink``.

    The drop-in replacement for the kernel's ``run_kernel`` drive in the
    single-node façade: same scenario, same sinks, same records —
    ``ServingSimulator(engine="fast")`` lands here.
    """
    _serve(
        scheduler, scenario.queries.as_arrays(), scenario.sla_s,
        scenario.sla_by_tenant, make_policy(policy), max_batch_size,
        batch_timeout_s, track_energy, sink,
    )


def serve_arrays(
    scheduler: Scheduler,
    arrays: QueryArrays,
    *,
    sla_s: float = 0.010,
    sla_by_tenant: dict[str, float] | None = None,
    shed_policy: ShedPolicy | str = "none",
    max_batch_size: int = 1,
    batch_timeout_s: float = 0.0,
    track_energy: bool = True,
    streaming: bool = True,
) -> StreamingMetrics | ServingResult:
    """Serve a column query stream end to end, no objects anywhere.

    The day-scale entry point: pair with
    :func:`~repro.data.queries.generate_query_arrays` to simulate 10M+
    query streams that never materialize a single ``Query`` —
    constant-memory with ``streaming=True`` (the default), exact records
    with ``streaming=False``.
    """
    sink = (
        StreamingSink(scheduler.name, sla_s)
        if streaming else RecordSink(scheduler.name, sla_s)
    )
    _serve(
        scheduler, arrays, sla_s, sla_by_tenant, make_policy(shed_policy),
        max_batch_size, batch_timeout_s, track_energy, sink,
    )
    return sink.result
