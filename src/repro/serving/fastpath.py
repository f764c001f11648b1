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
routing replays each scheduler's decision rule against those tables
(:func:`_make_router`). Energy is read by nothing in the loop, so it is
priced after it: one :meth:`~repro.hardware.latency.PriceModel.power_many`
call per path over that path's batches (:func:`_price_energy`), from the
same roofline formula as the kernel's scalar ``power`` call.

**Admission is per batch.** Drop-late and deadline-aware admit a whole
batch with one comparison: its first member's wait against the batch's
strictest SLA. That is exact. The first member arrived earliest, so its
rounded wait is the largest, and float subtraction, addition and
multiplication by a positive slack all round monotonically, so no member
can fail once the first passes against the strictest target. A batch
that fails this check, and every other policy, evaluates the per-member
mask over the members' wait vector.

**Outcomes commit per batch.** The dispatch loop keeps only per-batch
scalars (start, finish, path code, admitted size, compute time) and the
admission mask of the rare batch that sheds. Whole-stream array passes
expand them into per-query columns after the loop (:func:`_expand`),
which reach the sink through
:meth:`~repro.serving.metrics.StreamingMetrics.observe_many` (streaming)
or one materialization pass (records).

**Parity is the contract.** For every supported configuration the fast
path reproduces the kernel's records bit for bit — same floats, same
commit order — pinned by ``tests/property/test_prop_engine_parity.py``
across shed policies, batch sizes, schedulers, and multi-tenant SLAs;
the kernel remains the reference semantics. Unknown scheduler or policy
subclasses degrade gracefully: routing falls back to the scheduler's own
``select_batch`` and shedding to per-member ``admit`` calls, preserving
exactness at reduced (still batch-level, never event-level) speed.

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

from repro.core.online import (
    GreedyLatencyScheduler,
    MultiPathScheduler,
    Scheduler,
    StaticScheduler,
    TableSwitchScheduler,
)
from repro.data.queries import QueryArrays
from repro.serving.devices import DeviceTimeline
from repro.serving.engine import RecordSink, StreamingSink
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

    Returns ``(starts, ends, dispatch_times)`` as parallel arrays.
    """
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


# ---- routing --------------------------------------------------------------


def _decide(paths, services, b, now, free_at):
    """First path minimizing projected finish (wait + service)."""
    best = None
    best_i = -1
    for i in paths:
        pool = free_at[i[1]]
        earliest = min(pool)
        wait = earliest - now
        if wait < 0.0:
            wait = 0.0
        finish = wait + services[i[0]][b]
        if best is None or finish < best:
            best = finish
            best_i = i[0]
    return best_i


def _make_router(scheduler: Scheduler, totals: np.ndarray, sla_s: float):
    """Compile a scheduler into ``route(b, now, free_at) -> (path, service)``.

    Service-time tables are precomputed per path over every batch total
    (bit-equal to the kernel's scalar pricing); each built-in scheduler's
    decision rule — including tie-breaks, which follow Python ``max`` /
    ``min`` first-winner semantics — is replayed against those tables.
    Scheduler *subclasses* (which may override selection) fall back to
    calling ``select_batch`` itself: exact, just not table-accelerated.
    """
    paths = scheduler.paths
    if type(scheduler) is StaticScheduler:
        path = paths[0]
        services = path.latency_many(totals)
        services_l = services.tolist()

        def route(b, now, free_at):
            return path, services_l[b]

        return route

    if type(scheduler) is TableSwitchScheduler:
        tables = [(i, p.device.name) for i, p in enumerate(paths)]
        services = [p.latency_many(totals).tolist() for p in paths]

        def route(b, now, free_at):
            # Queue-blind: lowest profiled service time, first wins ties.
            best_i = 0
            best = services[0][b]
            for i, _ in tables[1:]:
                s = services[i][b]
                if s < best:
                    best, best_i = s, i
            return paths[best_i], best

        return route

    if type(scheduler) is GreedyLatencyScheduler:
        entries = [(i, p.device.name) for i, p in enumerate(paths)]
        services = [p.latency_many(totals).tolist() for p in paths]

        def route(b, now, free_at):
            i = _decide(entries, services, b, now, free_at)
            return paths[i], services[i][b]

        return route

    if type(scheduler) is MultiPathScheduler:
        services = [p.latency_many(totals).tolist() for p in paths]
        by_kind = []
        for kind in scheduler.preference:
            group = [
                (i, p.device.name, p.accuracy)
                for i, p in enumerate(paths)
                if p.kind == kind
            ]
            if group:
                by_kind.append(group)
        fallback = [
            (i, p.device.name)
            for i, p in enumerate(paths)
            if p.kind == "table"
        ] or [(i, p.device.name) for i, p in enumerate(paths)]

        def route(b, now, free_at):
            for group in by_kind:
                best_key = None
                best_i = -1
                for i, device, accuracy in group:
                    pool = free_at[device]
                    earliest = min(pool)
                    wait = earliest - now
                    if wait < 0.0:
                        wait = 0.0
                    finish = wait + services[i][b]
                    if finish <= sla_s:
                        key = (accuracy, -finish)
                        if best_key is None or key > best_key:
                            best_key, best_i = key, i
                if best_i >= 0:
                    return paths[best_i], services[best_i][b]
            i = _decide(fallback, services, b, now, free_at)
            return paths[i], services[i][b]

        return route

    def route(b, now, free_at):
        decision = scheduler.select_batch(
            int(totals[b]), sla_s, now, free_at
        )
        return decision.path, decision.service_s

    return route


# ---- outcome columns ------------------------------------------------------


class _Columns(NamedTuple):
    """Per-query outcome columns, one row per query in commit order."""

    index: np.ndarray
    size: np.ndarray
    arrival: np.ndarray
    start: np.ndarray
    finish: np.ndarray
    code: np.ndarray
    energy: np.ndarray
    dropped: np.ndarray
    sla: np.ndarray


class _Labels:
    """Interned outcome labels the code column indexes: one per path that
    served, and the shed label (path ``None``)."""

    __slots__ = ("names", "accuracies", "paths", "_codes")

    def __init__(self) -> None:
        self.names: list[str] = []
        self.accuracies: list[float] = []
        self.paths: list = []
        self._codes: dict[int, int] = {}

    def code_of(self, path) -> int:
        """Intern one path, or the shed label for ``None``, by identity."""
        key = id(path)
        code = self._codes.get(key)
        if code is None:
            code = len(self.names)
            self._codes[key] = code
            self.paths.append(path)
            if path is None:
                self.names.append(DROPPED_LABEL)
                self.accuracies.append(0.0)
            else:
                self.names.append(path.label)
                self.accuracies.append(path.accuracy)
        return code


# ---- the vectorized engine ------------------------------------------------


def _simulate_columns(
    scheduler: Scheduler,
    arrivals: np.ndarray,
    sizes: np.ndarray,
    indices: np.ndarray,
    slas: np.ndarray,
    policy: ShedPolicy,
    max_batch_size: int,
    batch_timeout_s: float,
    track_energy: bool,
    sla_s: float,
) -> tuple[_Columns, _Labels]:
    """Run the batch plan through routing/shedding/pricing into columns."""
    labels = _Labels()
    timeline = DeviceTimeline(scheduler.paths)
    free_at = timeline.free_at
    starts, ends, times = plan_batches(arrivals, max_batch_size, batch_timeout_s)
    totals = np.add.reduceat(sizes, starts)
    route = _make_router(scheduler, totals, sla_s)

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
    drop_code = -1

    starts_l = starts.tolist()
    ends_l = ends.tolist()
    times_l = times.tolist()
    totals_l = totals.tolist()
    # Only the generic-policy fallback reads per-query SLAs as floats;
    # materializing the full list up front would cost ~4% of a 10M run.
    slas_l: list[float] | None = None

    # Per-batch outcomes in dispatch order; _expand turns them into rows.
    begun: list[float] = []
    finished: list[float] = []
    codes: list[int] = []
    charged: list[int] = []
    computes: list[float] = []
    shed: list[tuple[int, np.ndarray]] = []
    for b in range(len(starts_l)):
        now = times_l[b]
        path, service_s = route(b, now, free_at)
        device = path.device.name
        server, free = timeline.earliest(device)
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
                if drop_code < 0:
                    drop_code = labels.code_of(None)
                shed.append((b, ok))
                if admitted_count == 0:
                    # Nothing dispatches; every row of the batch is a
                    # shed row, so _expand overwrites these values (the
                    # size of 1 keeps its energy division finite).
                    begun.append(now)
                    finished.append(now)
                    codes.append(drop_code)
                    charged.append(1)
                    computes.append(0.0)
                    continue
                admitted_size = int(sizes[s:e][ok].sum())
                compute_s = path.latency(admitted_size)

        finish = projected_start + compute_s
        timeline.commit(device, server, finish)
        scheduler.on_batch_dispatched(
            path, admitted_size, projected_start, finish
        )
        begun.append(projected_start)
        finished.append(finish)
        codes.append(labels.code_of(path))
        charged.append(admitted_size)
        computes.append(compute_s)
    codes_a = np.array(codes, dtype=np.int32)
    charged_a = np.array(charged)
    energies = (
        _price_energy(labels, codes_a, charged_a, np.array(computes))
        if track_energy else np.zeros(codes_a.size)
    )
    cols = _expand(
        starts, ends, indices, sizes, arrivals, slas, begun, finished,
        codes_a, charged_a, energies, shed, drop_code,
    )
    return cols, labels


def _price_energy(
    labels: _Labels,
    codes: np.ndarray,
    charged: np.ndarray,
    computes: np.ndarray,
) -> np.ndarray:
    """Every dispatched batch's energy, one array call per path.

    The kernel's ``query_energy``, by path: a priced path's roofline power
    at each batch's admitted size times its compute time
    (:meth:`~repro.hardware.latency.PriceModel.power_many`, bit-equal per
    batch to the kernel's scalar ``power``), half the device's TDP over
    the compute time for a path without a price, in the same operation
    order. A batch that shed every member (the shed label) costs 0.0.
    """
    energies = np.zeros(codes.size)
    for code, path in enumerate(labels.paths):
        if path is None:
            continue
        rows = np.flatnonzero(codes == code)
        if path.price is None:
            energies[rows] = path.device.tdp_w * 0.5 * computes[rows]
        else:
            energies[rows] = path.price.power_many(charged[rows]) * computes[rows]
    return energies


def _expand(
    starts: np.ndarray,
    ends: np.ndarray,
    indices: np.ndarray,
    sizes: np.ndarray,
    arrivals: np.ndarray,
    slas: np.ndarray,
    begun: list[float],
    finished: list[float],
    codes: np.ndarray,
    charged: np.ndarray,
    energies: np.ndarray,
    shed: list[tuple[int, np.ndarray]],
    drop_code: int,
) -> _Columns:
    """Expand per-batch outcomes into per-query columns, in commit order.

    Each batch keeps its ``[start, end)`` rows. A batch that shed
    members commits the shed ones first, then its survivors, each group
    in arrival order, as the kernel does; the query columns are gathered
    only when some batch's shed members are not a prefix of it. A query's
    energy is its size share of its batch's, and a lone survivor keeps
    the exact batch energy (``apportion_energy``).
    """
    counts = ends - starts
    admitted = counts.copy()
    shed_rows = []
    order = None
    for b, ok in shed:
        s = int(starts[b])
        kept = int(np.count_nonzero(ok))
        admitted[b] = kept
        k = ok.size - kept
        shed_rows.append(np.arange(s, s + k))
        if ok[:k].any():
            if order is None:
                order = np.arange(arrivals.size)
            order[s:s + ok.size] = s + np.argsort(ok, kind="stable")
    if order is not None:
        indices = indices[order]
        sizes = sizes[order]
        arrivals = arrivals[order]
        slas = slas[order]

    start = np.repeat(np.array(begun), counts)
    finish = np.repeat(np.array(finished), counts)
    code = np.repeat(codes, counts)
    if energies.any():
        energy = np.repeat(energies, counts)
        energy *= sizes
        energy /= np.repeat(charged, counts)
        lone = admitted == 1
        energy[ends[lone] - 1] = energies[lone]
    else:
        energy = np.zeros(arrivals.size)
    dropped = np.zeros(arrivals.size, dtype=np.bool_)
    if shed_rows:
        rows = np.concatenate(shed_rows)
        dropped[rows] = True
        start[rows] = arrivals[rows]
        finish[rows] = arrivals[rows]
        code[rows] = drop_code
        energy[rows] = 0.0
    return _Columns(
        indices, sizes, arrivals, start, finish, code, energy, dropped, slas
    )


# ---- sink delivery --------------------------------------------------------


def _flush_columns(cols: _Columns, labels: _Labels, sink) -> None:
    """Deliver the committed columns to a sink in bulk.

    :class:`~repro.serving.engine.RecordSink` gets one block
    materialization pass (records in commit order, bit-equal to the
    kernel's); :class:`~repro.serving.engine.StreamingSink` folds each
    label group through ``observe_many``; any other sink receives the
    kernel's per-outcome ``observe`` calls in commit order.
    """
    if isinstance(sink, StreamingSink):
        metrics = sink.result
        codes = cols.code
        for code, name in enumerate(labels.names):
            group = np.flatnonzero(codes == code)
            if not group.size:
                continue
            dropped = bool(cols.dropped[group[0]])
            metrics.observe_many(
                cols.size[group], cols.arrival[group], cols.start[group],
                cols.finish[group], name, labels.accuracies[code],
                energies=cols.energy[group], dropped=dropped,
                slas=cols.sla[group],
            )
        return
    columns = zip(*(column.tolist() for column in cols))
    names = labels.names
    accuracies = labels.accuracies
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
    arrays = _sorted_stream(scenario.queries.as_arrays())
    slas = _sla_vector(arrays, scenario.sla_s, scenario.sla_by_tenant)
    cols, labels = _simulate_columns(
        scheduler, arrays.arrival_s, arrays.size, arrays.index, slas,
        make_policy(policy), max_batch_size, batch_timeout_s, track_energy,
        scenario.sla_s,
    )
    _flush_columns(cols, labels, sink)


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
    if max_batch_size < 1:
        raise ValueError("max_batch_size must be >= 1")
    if not batch_timeout_s >= 0:  # also rejects nan
        raise ValueError("batch_timeout_s must be non-negative")
    stream = _sorted_stream(arrays)
    slas = _sla_vector(stream, sla_s, sla_by_tenant)
    sink = (
        StreamingSink(scheduler.name, sla_s)
        if streaming else RecordSink(scheduler.name, sla_s)
    )
    cols, labels = _simulate_columns(
        scheduler, stream.arrival_s, stream.size, stream.index, slas,
        make_policy(shed_policy), max_batch_size, batch_timeout_s,
        track_energy, sla_s,
    )
    _flush_columns(cols, labels, sink)
    return sink.result
