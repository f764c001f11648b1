"""Single-node serving: a thin façade over the shared serving kernel.

The engine mechanics — heap-ordered event loop, generation-stamped flush
timers, per-device micro-batching, shed policies, energy apportionment —
live in :mod:`repro.serving.engine`; this module owns only what is
specific to a one-node deployment: construct one
:class:`~repro.serving.engine.EngineCore`, admit every arrival to it, and
choose a metrics sink. The cluster (:mod:`repro.serving.cluster`) drives
N of the same cores behind a router; neither simulator carries an event
loop of its own.

With batching disabled (``max_batch_size=1``, the default) the kernel
reduces event-for-event to the seed per-query loop — kept verbatim below
as :class:`ReferenceSimulator`, the parity oracle — and reproduces its
records exactly; the equivalence is pinned by unit tests, a property test
over random scenarios (``tests/property/test_prop_engine_parity.py``),
and ``benchmarks/test_serving_engine_scale.py``. With batching enabled
the kernel routes once per coalesced batch instead of once per query,
which is what lets 100k+-query scenarios simulate several times faster
than the reference loop.

Metrics sinks are pluggable: :meth:`ServingSimulator.run` keeps every
outcome and builds each :class:`~repro.serving.metrics.QueryRecord`
when the records are first read (exact percentiles, figure
reproductions);
:meth:`ServingSimulator.run_streaming` folds
outcomes into constant-memory :class:`~repro.serving.metrics.
StreamingMetrics` so million-query runs never hold per-query state.

Runtime representation switching: pass a :class:`~repro.core.switching.
SwitchController` and the kernel lets it swap a device's resident
representation between batches, charging the load/teardown window as a
blocking event on the device timeline (see docs/switching.md).
"""

from __future__ import annotations

from repro.core.online import Scheduler
from repro.serving.engine import (
    EngineCore,
    RecordSink,
    StreamingSink,
    apportion_energy,  # noqa: F401  (canonical home: repro.serving.engine)
    check_batching,
    query_energy,
    run_kernel,
    shed_batch,  # noqa: F401  (canonical home: repro.serving.engine)
)
from repro.serving.fastpath import run_fastpath
from repro.serving.metrics import QueryRecord, ServingResult, StreamingMetrics
from repro.serving.policies import ShedPolicy, make_policy
from repro.serving.workload import ServingScenario


class ServingSimulator:
    """Event-driven engine: runs a scenario through a scheduler.

    ``shed_policy``: a policy name (``"none"``, ``"drop-late"``,
    ``"deadline-aware"``) or a :class:`~repro.serving.policies.ShedPolicy`
    instance.

    ``max_batch_size`` / ``batch_timeout_s``: micro-batching knobs. A batch
    dispatches when it holds ``max_batch_size`` queries or when its oldest
    query has waited ``batch_timeout_s`` seconds, whichever comes first.
    ``max_batch_size=1`` disables coalescing and reproduces the reference
    per-query loop exactly; a timeout of 0 with a larger batch size
    coalesces only same-timestamp arrivals.

    ``switch_controller``: optional :class:`~repro.core.switching.
    SwitchController` enabling runtime representation switching; its
    per-run state is reset at every ``run``/``run_streaming`` call, and
    its ``events`` record the switches of the latest run.

    ``engine``: ``"event"`` (default) drives the shared event kernel;
    ``"fast"`` drives the vectorized array fast path
    (:mod:`repro.serving.fastpath`) — record-for-record equal to the
    kernel, an order of magnitude faster at scale, but single-node only
    and incompatible with runtime switching (rejected here).
    """

    def __init__(
        self,
        scheduler: Scheduler,
        track_energy: bool = True,
        shed_policy: str | ShedPolicy = "none",
        max_batch_size: int = 1,
        batch_timeout_s: float = 0.0,
        switch_controller=None,
        engine: str = "event",
    ) -> None:
        max_batch_size, batch_timeout_s = check_batching(
            max_batch_size, batch_timeout_s
        )
        if engine not in ("event", "fast"):
            raise ValueError("engine must be 'event' or 'fast'")
        if engine == "fast" and switch_controller is not None:
            raise ValueError(
                "engine='fast' does not support runtime switching; "
                "use the event engine for switch_controller runs"
            )
        self.scheduler = scheduler
        self.track_energy = track_energy
        self.policy = make_policy(shed_policy)
        self.max_batch_size = max_batch_size
        self.batch_timeout_s = batch_timeout_s
        self.switch_controller = switch_controller
        self.engine = engine

    @property
    def shed_policy(self) -> str:
        """Name of the active shed policy (back-compat accessor)."""
        return self.policy.name

    # ---- public entry points ---------------------------------------------

    def run(self, scenario: ServingScenario) -> ServingResult:
        """Simulate and return the exact, record-backed result."""
        sink = RecordSink(self.scheduler.name, scenario.sla_s)
        self._simulate(scenario, sink)
        return sink.result

    def run_streaming(self, scenario: ServingScenario) -> StreamingMetrics:
        """Simulate without materializing per-query records (O(1) memory)."""
        sink = StreamingSink(self.scheduler.name, scenario.sla_s)
        self._simulate(scenario, sink)
        return sink.result

    # ---- kernel façade ---------------------------------------------------

    def _simulate(self, scenario: ServingScenario, sink) -> None:
        if self.engine == "fast":
            run_fastpath(
                self.scheduler, scenario, sink,
                policy=self.policy,
                max_batch_size=self.max_batch_size,
                batch_timeout_s=self.batch_timeout_s,
                track_energy=self.track_energy,
            )
            return
        core = EngineCore(
            self.scheduler,
            self.policy,
            max_batch_size=self.max_batch_size,
            batch_timeout_s=self.batch_timeout_s,
            track_energy=self.track_energy,
            switcher=self.switch_controller,
        )
        run_kernel([core], scenario, sink, admit=lambda query, now, loop: core)


class ReferenceSimulator:
    """The seed per-query FIFO loop, retained verbatim as the parity oracle.

    Serves as the ground truth the event kernel must reproduce with
    batching disabled, and as the wall-clock baseline the batching engine
    is benchmarked against. Only ``"none"`` and ``"drop-late"`` shedding
    exist here, as in the seed.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        track_energy: bool = True,
        shed_policy: str = "none",
    ) -> None:
        if shed_policy not in ("none", "drop-late"):
            raise ValueError("shed_policy must be 'none' or 'drop-late'")
        self.scheduler = scheduler
        self.track_energy = track_energy
        self.shed_policy = shed_policy

    def run(self, scenario: ServingScenario) -> ServingResult:
        """Serve the scenario query by query, strictly in arrival order."""
        free_at: dict[str, list[float]] = {
            path.device.name: [0.0] * path.device.concurrency
            for path in self.scheduler.paths
        }
        result = ServingResult(
            scheduler_name=self.scheduler.name, sla_s=scenario.sla_s
        )
        for query in sorted(scenario.queries, key=lambda q: q.arrival_s):
            decision = self.scheduler.select(
                query.size, scenario.sla_s, query.arrival_s, free_at
            )
            path = decision.path
            servers = free_at[path.device.name]
            server = min(range(len(servers)), key=servers.__getitem__)
            if (
                self.shed_policy == "drop-late"
                and servers[server] - query.arrival_s > scenario.sla_s
            ):
                result.records.append(
                    QueryRecord(
                        index=query.index,
                        size=query.size,
                        arrival_s=query.arrival_s,
                        start_s=query.arrival_s,
                        finish_s=query.arrival_s,
                        path_label="DROPPED",
                        accuracy=0.0,
                        dropped=True,
                    )
                )
                continue
            start = max(query.arrival_s, servers[server])
            finish = start + decision.service_s
            servers[server] = finish
            energy = 0.0
            if self.track_energy:
                energy = query_energy(path, query.size, decision.service_s)
            result.records.append(
                QueryRecord(
                    index=query.index,
                    size=query.size,
                    arrival_s=query.arrival_s,
                    start_s=start,
                    finish_s=finish,
                    path_label=path.label,
                    accuracy=path.accuracy,
                    energy_j=energy,
                )
            )
        return result
