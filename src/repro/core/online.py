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
it, and the fast path (:mod:`repro.serving.fastpath`) compiles them.

The serving kernel (:mod:`repro.serving.engine`, behind
:class:`~repro.serving.simulator.ServingSimulator` and the cluster) calls
:meth:`Scheduler.select_batch` once per coalesced micro-batch — the
default forwards to the per-query :meth:`Scheduler.select`, which is exactly
the per-query decision when batching is disabled — and notifies
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
    """One routing verdict: the chosen path plus its projected costs."""

    path: ExecutionPath
    service_s: float
    wait_s: float

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
        batch-aware placement."""
        return self.select(total_size, sla_s, now, free_at)

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
