"""MP-Rec online stage: dynamic multi-path activation (Algorithm 2).

Given the offline plan's execution paths, each unit of work is routed to
the highest-quality path that can finish within the SLA latency target
*without throughput degradation* — i.e. accounting for the queue already on
the candidate's device. Preference order: hybrid, then DHE, then table; if
nothing meets the SLA the scheduler defaults to the fastest table path so
throughput is preserved (Section 4.2).

That rule is written once, in :meth:`Scheduler.select`, and read through
three settings (``preference``, ``_last_resort``, ``_queue_blind``); the
static, table-switching and greedy baselines are degenerate settings of
it. :class:`Rule` compiles those settings into one route body that both
engines run: it reads each device's pool once per batch and prices
nothing itself, reading service times from a table the engine hands it
(the fast path's precomputed per-batch tables, the kernel's per-run
:class:`PriceTable`).

The serving kernel (:mod:`repro.serving.engine`, behind
:class:`~repro.serving.simulator.ServingSimulator` and the cluster) calls
:meth:`Scheduler.select_batch` once per coalesced micro-batch — the
compiled rule for a scheduler that keeps the base ``select`` and
``select_batch``, the per-query :meth:`Scheduler.select` otherwise, the
same decision either way — and notifies
:meth:`Scheduler.on_batch_dispatched` after placement so stateful
subclasses can track in-flight load. Runtime representation switching
(:mod:`repro.core.switching`) drives :meth:`Scheduler.on_switch_started` /
:meth:`Scheduler.on_switch_completed`; the default swaps the resident path
in place so every scheduler keeps routing unchanged. Admission control
(shedding) is *not* the scheduler's job: it lives in
:mod:`repro.serving.policies` and runs after routing, when the projected
wait and service time are known.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.paths import ExecutionPath

PREFERENCE_ORDER = ("hybrid", "dhe", "select", "table")


@dataclass(frozen=True)
class Decision:
    """One routing verdict: the chosen path plus its projected costs.

    ``slot`` is the routed device's earliest-free server as ``(index,
    free time)`` when the router read it (the compiled rule does), so the
    engine commits to it without scanning the device again; None leaves
    the scan to the engine."""

    path: ExecutionPath
    service_s: float
    wait_s: float
    slot: tuple[int, float] | None = None

    @property
    def finish_after_arrival_s(self) -> float:
        """Projected end-to-end latency (queue wait + service)."""
        return self.wait_s + self.service_s


class Scheduler:
    """Map (query size, SLA, device queue state) -> a path by one rule."""

    name = "scheduler"
    # The rule's settings (see ``select``); these base values make it the
    # greedy rule, the earliest projected finish over every path.
    preference: tuple[str, ...] = ()
    _last_resort: str | None = None
    _queue_blind = False
    # During a kernel run: the compiled rule, its paths' service columns
    # and the run's PriceTable (see ``_open_run``); None otherwise.
    _routing: tuple | None = None

    def __init__(self, paths: list[ExecutionPath]) -> None:
        if not paths:
            raise ValueError("scheduler needs at least one execution path")
        self.paths = list(paths)

    def select(
        self, query_size: int, sla_s: float, now: float, free_at: dict[str, list[float]]
    ) -> Decision:
        """Route one query (or one coalesced batch of ``query_size``
        samples) given the devices' current queue state.

        For each kind in ``preference``, the most accurate path of that
        kind whose projected finish (queue wait + service) fits the SLA.
        When none fits, the earliest-finishing path of the
        ``_last_resort`` kind (of every path when none is of that kind),
        or the one with the lowest service time when ``_queue_blind``."""
        for kind in self.preference:
            candidates = [p for p in self.paths if p.kind == kind]
            feasible = [
                d
                for d in (
                    self._decision(p, query_size, now, free_at) for p in candidates
                )
                if d.finish_after_arrival_s <= sla_s
            ]
            if feasible:
                # Highest accuracy first, earliest finish as tie-break.
                return max(
                    feasible,
                    key=lambda d: (d.path.accuracy, -d.finish_after_arrival_s),
                )
        # Nothing meets the SLA: preserve throughput with the fastest
        # last-resort path.
        last = [p for p in self.paths if p.kind == self._last_resort] or self.paths
        decisions = [self._decision(p, query_size, now, free_at) for p in last]
        if self._queue_blind:
            return min(decisions, key=lambda d: d.service_s)
        return min(decisions, key=lambda d: d.finish_after_arrival_s)

    # ---- event-engine hooks ---------------------------------------------

    def select_batch(
        self, total_size: int, sla_s: float, now: float,
        free_at: dict[str, list[float]],
    ) -> Decision:
        """Route one coalesced micro-batch (called once per batch by the
        event engine). The default treats the batch as a single query of
        the combined sample count, which is exactly the per-query decision
        when batching is disabled; schedulers may override to apply
        batch-aware placement.

        A scheduler that keeps the base ``select`` and ``select_batch``
        routes through its compiled :class:`Rule` instead, reading its
        service times from the kernel run's :class:`PriceTable` (a
        throwaway one outside a run): ``select``'s decision, plus the
        routed slot. Any other scheduler's ``select`` decides."""
        routing = self._routing or _bind(self, None)
        if routing is None:
            return self.select(total_size, sla_s, now, free_at)
        rule, services, _ = routing
        i, service_s, wait_s, server, free = rule.route(
            services, total_size, sla_s, now,
            [free_at[device] for device in rule.devices],
        )
        return Decision(rule.paths[i], service_s, wait_s, (server, free))

    def _open_run(self, prices: PriceTable) -> None:
        """Compile the rule against one kernel run's ``prices``; the
        kernel calls :meth:`_close_run` when the run ends, so nothing
        priced outlives it."""
        self._routing = _bind(self, prices)

    def _close_run(self) -> None:
        """Drop the run's compiled rule and prices."""
        self._routing = None

    def on_batch_dispatched(
        self, path: ExecutionPath, total_size: int, start_s: float,
        finish_s: float,
    ) -> None:
        """Notification after a batch is committed to a server; the base
        scheduler is stateless, subclasses may track in-flight load."""

    # ---- runtime representation switching hooks --------------------------

    def on_switch_started(
        self, device_name: str, old_path: ExecutionPath,
        new_path: ExecutionPath, now: float,
    ) -> None:
        """A :class:`~repro.core.switching.SwitchController` is replacing
        ``old_path`` with ``new_path`` as the resident representation on
        ``device_name``. The default swaps the path in place, so batches
        routed during and after the switch window use the new
        representation (they block on the device timeline until the
        load/teardown completes). Stateful subclasses may override to
        migrate per-path state."""
        for i, path in enumerate(self.paths):
            if path is old_path:
                self.paths[i] = new_path
                if self._routing is not None:
                    # Recompile over the new path set; the table is keyed
                    # by path, so the incoming path gets prices of its own.
                    self._routing = _bind(self, self._routing[2])
                return
        raise ValueError(
            f"switch source {old_path.label!r} is not resident on this "
            "scheduler"
        )

    def on_switch_completed(
        self, device_name: str, path: ExecutionPath, now: float,
    ) -> None:
        """The switch's load/teardown window elapsed; ``path`` is now the
        serving representation on ``device_name``. Default: no-op."""

    def _decision(
        self, path: ExecutionPath, query_size: int, now: float,
        free_at: dict[str, list[float]],
    ) -> Decision:
        servers = free_at.get(path.device.name)
        earliest = min(servers) if servers else 0.0
        wait = max(0.0, earliest - now)
        return Decision(path=path, service_s=path.latency(query_size), wait_s=wait)


class _Column(dict):
    """One path's values by batch size, each priced on its first read."""

    __slots__ = ("_price",)

    def __init__(self, price) -> None:
        super().__init__()
        self._price = price

    def __missing__(self, size):
        value = self[size] = self._price(size)
        return value


class PriceTable:
    """One run's prices: each path's service time (``path.latency``) and,
    for a path with a roofline price, its average power
    (``path.price.power``), by batch size.

    :meth:`service` and :meth:`power` return a path's column, a dict from
    size to value that prices a size the first time it is read, so each
    (path, size) is priced once however many cores, routes, re-pricings
    and energy charges read it. Columns are keyed by path object, so the
    path a representation switch brings in gets prices of its own. The
    kernel keeps one table per run and drops it when the run ends
    (:func:`~repro.serving.engine.run_kernel`): a table kept across runs
    would serve a repeated scenario from a warm cache.
    """

    __slots__ = ("_columns",)

    def __init__(self) -> None:
        # id(path) -> (path, service column, power column or None); the
        # path is held so that its id is not reused while the table lives.
        self._columns: dict[int, tuple] = {}

    def _entry(self, path: ExecutionPath) -> tuple:
        entry = self._columns.get(id(path))
        if entry is None:
            power = None if path.price is None else _Column(path.price.power)
            entry = (path, _Column(path.latency), power)
            self._columns[id(path)] = entry
        return entry

    def service(self, path: ExecutionPath) -> dict:
        """``path``'s service seconds by batch size."""
        return self._entry(path)[1]

    def power(self, path: ExecutionPath) -> dict:
        """``path``'s roofline Watts by batch size (the path must carry a
        price)."""
        return self._entry(path)[2]


class Rule:
    """:meth:`Scheduler.select`'s settings compiled into one route body,
    which both engines run.

    ``route(services, key, sla_s, now, pools, first=0)`` routes one batch.
    ``services[i][key]`` is path ``i``'s service time for it: the fast
    path passes its per-path tables and the batch's index, the kernel its
    run's price columns and the batch's sample total. ``pools[d]`` is the
    server pool of ``devices[d]``, and ``first`` the preference group to
    start from (a group none of whose paths can fit may be skipped). The
    result is ``(i, service_s, wait_s, server, free_s)``: the chosen
    path's index in ``paths``, its service time and queue wait, and the
    routed device's earliest-free server with that server's free time,
    the first such server on ties. The choice, tie-breaks included, is
    ``select``'s, but each device's pool is read once per batch and every
    path on it reuses its wait. The rule holds no pools and no prices, so
    one rule serves every core that shares its scheduler.
    """

    __slots__ = ("paths", "devices", "groups", "route")

    def __init__(self, scheduler: Scheduler) -> None:
        paths = self.paths = list(scheduler.paths)
        devices = self.devices = list(
            dict.fromkeys(p.device.name for p in paths)
        )
        where = [devices.index(p.device.name) for p in paths]
        entries = [(i, where[i], p.accuracy) for i, p in enumerate(paths)]
        by_kind = [
            group for group in (
                [e for e in entries if paths[e[0]].kind == preferred]
                for preferred in scheduler.preference
            ) if group
        ]
        # Path indices of each preference group that has any, in order.
        self.groups = [[i for i, _, _ in group] for group in by_kind]
        tails = [by_kind[g:] for g in range(len(by_kind) + 1)]
        fallback = [
            e for e in entries if paths[e[0]].kind == scheduler._last_resort
        ] or entries
        blind = scheduler._queue_blind

        def route(services, key, sla_s, now, pools, first=0):
            frees = list(map(min, pools))
            waits = []
            for free in frees:
                # ``max(0.0, free - now)``: a difference of distinct floats
                # is never 0.0, so this keeps its value and its zero's sign.
                waits.append(free - now if free > now else 0.0)
            for group in tails[first]:
                # The most accurate path that fits, earliest finish on ties.
                best_rank = None
                for i, d, accuracy in group:
                    finish = waits[d] + services[i][key]
                    if finish <= sla_s:
                        rank = (accuracy, -finish)
                        if best_rank is None or rank > best_rank:
                            best_rank, best = rank, i
                if best_rank is not None:
                    break
            else:
                # Nothing fits: the earliest projected finish (the lowest
                # service time when queue-blind), first wins ties.
                best_finish = None
                for i, d, _ in fallback:
                    finish = services[i][key]
                    if not blind:
                        finish = waits[d] + finish
                    if best_finish is None or finish < best_finish:
                        best_finish, best = finish, i
            d = where[best]
            free = frees[d]
            return best, services[best][key], waits[d], pools[d].index(free), free

        self.route = route


def compile_rule(scheduler: Scheduler) -> Rule | None:
    """``scheduler``'s :class:`Rule`, or None when it overrides ``select``
    or ``select_batch`` (by method identity) and so routes by its own."""
    kind = type(scheduler)
    if (
        kind.select is not Scheduler.select
        or kind.select_batch is not Scheduler.select_batch
    ):
        return None
    return Rule(scheduler)


def _bind(scheduler: Scheduler, prices: PriceTable | None) -> tuple | None:
    """``(rule, service columns, prices)`` for a compiled scheduler, over
    ``prices`` (a fresh table when None); None if it does not compile."""
    rule = compile_rule(scheduler)
    if rule is None:
        return None
    if prices is None:
        prices = PriceTable()
    return rule, [prices.service(path) for path in rule.paths], prices


class MultiPathScheduler(Scheduler):
    """Algorithm 2 with queue-aware feasibility: the representation kinds
    in ``preference`` order, then the earliest-finishing table path."""

    name = "mp-rec"
    _last_resort = "table"

    def __init__(
        self,
        paths: list[ExecutionPath],
        preference: tuple[str, ...] = PREFERENCE_ORDER,
    ) -> None:
        super().__init__(paths)
        self.preference = preference


class StaticScheduler(Scheduler):
    """Baseline: one fixed representation-hardware deployment, which the
    base (greedy) settings route to whatever the queue says."""

    name = "static"

    def __init__(self, paths: list[ExecutionPath]) -> None:
        super().__init__(paths)
        if len(paths) != 1:
            raise ValueError("static deployment has exactly one path")
        self.name = f"static-{paths[0].label}"


class TableSwitchScheduler(Scheduler):
    """Baseline: table-only with CPU<->GPU switching (Fig 10 gray bars).

    Switching is at hardware-platform granularity using only the query's
    size (profiled service latency) — it is *queue-blind*, unlike MP-Rec's
    queue-aware activation. This is why pure switching yields a modest
    improvement (paper: +18% on Kaggle) while MP-Rec load-balances.
    """

    name = "table-switch"
    _queue_blind = True

    def __init__(self, paths: list[ExecutionPath]) -> None:
        table_paths = [p for p in paths if p.kind == "table"]
        super().__init__(table_paths)


class GreedyLatencyScheduler(Scheduler):
    """Ablation: ignore accuracy, always take the earliest-finishing path."""

    name = "greedy-latency"
