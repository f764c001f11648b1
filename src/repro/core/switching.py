"""Runtime representation switching (Sections 4.2-4.3, Figure 15).

MP-Rec's online stage is allowed to *re-shape* work as load shifts, not
just re-route it: a device whose queues are draining can swap its
resident representation for a higher-accuracy one (table -> hybrid), and
a device drowning in backlog can swap toward whatever serves its current
batch mix fastest (hybrid -> table on small-batch traffic, or the
reverse on an accelerator whose compute-based representation amortizes
better over large coalesced batches — the Figure 3 crossover).

The paper's Figure 15 prices exactly this transition: tearing down the
old representation and loading the new one costs real device time.  The
:class:`SwitchController` charges that window as a **blocking event** on
the device's :class:`~repro.serving.devices.DeviceTimeline` — the device
drains its committed batches, then sits unavailable for the load +
teardown latency, and every batch routed meanwhile queues behind the
switch.  Nothing is free and nothing is retroactive: overhead lands on
the same ``free_at`` state the schedulers and shed policies already see.

Thrash control is built in, because a controller that reacts to its own
switch-induced queue spike will oscillate forever:

- **hysteresis band**: pressure (queue wait / SLA) must cross
  ``hi_pressure`` to be overloaded and fall below ``lo_pressure`` to be
  calm; the band between them never triggers.
- **patience**: the same *target representation* must win on ``patience``
  consecutive dispatches before a switch starts; mixed verdicts (batch-size
  noise straddling a crossover) reset the count.
- **cooldown**: after a switch completes, the device is frozen for
  ``cooldown_s`` regardless of pressure.
- while a switch is in flight the device is never re-evaluated.

The controller drives the kernel through two scheduler hooks
(:meth:`~repro.core.online.Scheduler.on_switch_started` /
:meth:`~repro.core.online.Scheduler.on_switch_completed`): the default
implementation swaps the resident path in place, so Algorithm 2 keeps
routing with zero switching-specific logic in the schedulers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.paths import ExecutionPath
from repro.serving.signals import Hysteresis, queue_pressure, window_utilization

# Freeing the old representation's memory is cheaper than streaming the
# new one in; Fig 15 teardown is a fraction of the load cost.
TEARDOWN_FRACTION = 0.25


def _path_bytes(path: ExecutionPath) -> int:
    """Bytes that must move on/off the device to (un)install a path."""
    if path.memory_bytes:
        return path.memory_bytes
    if path.price is not None:
        return path.rep.total_bytes(path.price.model)
    return 0


def estimate_load_s(path: ExecutionPath) -> float:
    """Time to install a representation: stream its bytes over the
    host link (or DRAM for host-resident devices) plus one launch."""
    device = path.device
    bandwidth = device.host_transfer_bw or device.dram_bandwidth
    return _path_bytes(path) / bandwidth + device.launch_overhead_s


def estimate_teardown_s(path: ExecutionPath) -> float:
    """Time to retire the outgoing representation (free + unmap)."""
    device = path.device
    bandwidth = device.host_transfer_bw or device.dram_bandwidth
    return TEARDOWN_FRACTION * _path_bytes(path) / bandwidth


@dataclass(frozen=True)
class SwitchEvent:
    """One runtime representation switch, fully priced."""

    time_s: float  # when the decision fired (drain begins)
    ready_s: float  # when the device serves again on the new representation
    node_id: int
    device: str
    from_label: str
    to_label: str
    overhead_s: float  # load + teardown charged on the device timeline


@dataclass
class SwitchController:
    """Decide when a device swaps its resident representation, and pay for it.

    ``candidates`` maps a device name to the representations that can be
    resident on it (the offline plan's per-device mappings).  Exactly one
    of them is resident at a time — the one the attached scheduler holds —
    and every swap charges :func:`estimate_load_s` + :func:`
    estimate_teardown_s` (or the explicit ``load_s`` / ``teardown_s``
    overrides, for synthetic paths without a byte model) as a blocking
    event on the device timeline.

    Decision rule, evaluated once per dispatched batch on the batch's
    device: pressure = the batch's worst queueing delay (batching fill +
    device queue, what its oldest member endured) / run SLA.

    - pressure >= ``hi_pressure`` — or the resident's service time for the
      current batch mix saturating the batching window (``>= util_hi *
      batch_timeout``, a *leading* indicator that fires before a backlog
      commits to the timeline) — on ``patience`` consecutive dispatches
      -> **surge**: switch to the candidate with the lowest latency at the
      batcher's *full* batch size — under sustained overload batches grow
      to the cap, and capacity (how fast the backlog drains) is what ends
      a surge.
    - pressure <= ``lo_pressure`` on ``patience`` consecutive dispatches
      -> **calm**: switch to the highest-accuracy candidate whose
      end-to-end latency at the current operating point (observed delay +
      service at the current batch size) still fits ``headroom * sla``
      (fall back to the fastest candidate when none fits).

    One controller instance serves one engine core; the cluster clones a
    template per node (:meth:`clone`).
    """

    candidates: dict[str, list[ExecutionPath]]
    hi_pressure: float = 0.75
    lo_pressure: float = 0.25
    patience: int = 4
    cooldown_s: float = 0.25
    headroom: float = 0.8
    util_hi: float = 0.95  # batching-window saturation that counts as surge
    load_s: float | None = None
    teardown_s: float | None = None

    events: list[SwitchEvent] = field(default_factory=list, init=False)
    total_overhead_s: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("need at least one switchable device")
        if not 0.0 <= self.lo_pressure < self.hi_pressure:
            raise ValueError("need 0 <= lo_pressure < hi_pressure")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        if self.headroom <= 0:
            raise ValueError("headroom must be positive")
        if self.util_hi <= 0:
            raise ValueError("util_hi must be positive")
        self.candidates = {
            device: list(paths) for device, paths in self.candidates.items()
        }
        for device, paths in self.candidates.items():
            if not paths:
                raise ValueError(f"device {device!r} has no candidate paths")
            for path in paths:
                if path.device.name != device:
                    raise ValueError(
                        f"candidate {path.label!r} lives on "
                        f"{path.device.name!r}, not {device!r}"
                    )
        self._initial: dict[str, ExecutionPath] | None = None
        self._resident: dict[str, ExecutionPath] = {}
        # Shared thrash control, keyed by device name: patience streaks
        # (targets voted by id() — ExecutionPath equality would compare
        # profile arrays), busy-while-switching, per-device cooldowns.
        self._hysteresis = Hysteresis()

    # ---- lifecycle -------------------------------------------------------

    def clone(self) -> "SwitchController":
        """A fresh controller with the same configuration and no state."""
        return replace(self)

    def attach(self, core) -> None:
        """Bind to an engine core at run start: resolve (and, on reuse,
        restore) each switchable device's resident representation and
        clear all per-run state."""
        scheduler = core.scheduler
        unknown = set(self.candidates) - set(core.timeline.free_at)
        if unknown:
            raise ValueError(
                f"switchable devices {sorted(unknown)} are not in the "
                "scheduler's path set"
            )
        resident: dict[str, ExecutionPath] = {}
        for device in self.candidates:
            on_device = [
                p for p in scheduler.paths if p.device.name == device
            ]
            if len(on_device) != 1:
                raise ValueError(
                    "runtime switching needs exactly one resident "
                    f"representation per switchable device; {device!r} "
                    f"holds {len(on_device)}"
                )
            resident[device] = on_device[0]
        if self._initial is None:
            self._initial = dict(resident)
        else:
            # A reused simulator must start every run from the same
            # residency, or back-to-back runs would not be deterministic.
            for device, initial_path in self._initial.items():
                if resident[device] is not initial_path:
                    scheduler.on_switch_started(
                        device, resident[device], initial_path, 0.0
                    )
                    resident[device] = initial_path
        for device, path in resident.items():
            # Identity check: ExecutionPath equality would compare profile
            # arrays elementwise.
            if all(path is not candidate
                   for candidate in self.candidates[device]):
                self.candidates[device] = [path, *self.candidates[device]]
        self._resident = resident
        self._hysteresis.reset()
        self.events = []
        self.total_overhead_s = 0.0

    # ---- kernel hooks ----------------------------------------------------

    def on_tick(self, core, tick) -> None:
        """Adapter for the kernel's single control observer: unpack one
        :class:`~repro.serving.engine.ControlTick` into the PR-3 decision
        rule.  The single-node façade (and a cluster without a control
        plane) wires this as the core's ``on_control_tick``."""
        self.observe(
            core, tick.path, tick.wait_s, tick.batch_size, tick.scenario,
            tick.now, tick.loop, batch_queries=tick.batch_queries,
        )

    def observe(self, core, path: ExecutionPath, wait_s: float,
                batch_size: int, scenario, now: float, loop,
                batch_queries: int | None = None) -> None:
        """One dispatched batch on ``path``: update pressure streaks and
        start a switch when hysteresis says so.

        ``batch_size`` counts *samples*; ``batch_queries`` counts the
        queries that carried them (None means they coincide).
        """
        device = path.device.name
        candidates = self.candidates.get(device)
        if candidates is None or len(candidates) < 2:
            return
        if self._hysteresis.blocked(device, now):
            return
        pressure = queue_pressure(wait_s, scenario.sla_s)
        # Leading saturation signal: service time of the current batch mix
        # against the batching window. Queue wait only rises *after* a
        # backlog forms — and a backlog is committed to the timeline and
        # must drain on the old representation before a switch can start —
        # so saturation of the window itself must count as surge evidence.
        # No floor guard: a residency whose singleton latency already
        # overflows the window is exactly what surge must switch away from.
        saturated = (
            window_utilization(path, batch_size, core.batcher.timeout_s)
            >= self.util_hi
        )
        if pressure >= self.hi_pressure or saturated:
            mode = "surge"
        elif pressure <= self.lo_pressure:
            mode = "calm"
        else:
            self._hysteresis.clear(device)
            return
        if mode == "surge":
            batch_size = self.full_batch_size(core, batch_size, batch_queries)
        target = self._desired(device, mode, batch_size, scenario.sla_s, wait_s)
        if target is self._resident[device]:
            # The current residency is already the right one; noise that
            # briefly favored another candidate must start over.
            self._hysteresis.clear(device)
            return
        # Hysteresis counts consecutive dispatches agreeing on the *same*
        # target — a streak of mixed verdicts (batch-size noise straddling
        # the representations' crossover) never triggers.  Targets vote by
        # id(): path identity, exactly what residency bookkeeping uses.
        if self._hysteresis.vote(device, id(target)) < self.patience:
            return
        self.start_switch(core, device, target, now, loop)

    @staticmethod
    def full_batch_size(core, batch_size: int,
                        batch_queries: int | None) -> int:
        """Scale an observed batch's *samples* to a full query batch.

        Under sustained overload the batcher fills to its cap, so surge
        judges candidates at full-batch size — capacity (how fast a
        backlog drains), not the current batch's latency, is what ends a
        surge.  ``batch_size`` counts samples, the batcher cap counts
        queries — different units — hence the scaling.
        """
        queries = batch_queries or batch_size
        if 0 < queries < core.batcher.max_batch_size:
            return round(batch_size * core.batcher.max_batch_size / queries)
        return batch_size

    def complete(self, core, device: str, now: float) -> None:
        """The switch's blocking window elapsed; arm the cooldown."""
        self._hysteresis.complete(device, now, self.cooldown_s)
        core.scheduler.on_switch_completed(
            device, self._resident[device], now
        )

    # ---- decision internals ----------------------------------------------

    def resident(self, device: str) -> ExecutionPath:
        """The representation currently resident on ``device``."""
        return self._resident[device]

    def switching(self, device: str, now: float) -> bool:
        """True while ``device`` has a switch in flight or is cooling
        down — external arbiters (the control plane) must not commit a
        second switch into the window."""
        return self._hysteresis.blocked(device, now)

    def desired(self, device: str, mode: str, batch_size: int,
                sla_s: float, wait_s: float) -> ExecutionPath:
        """The PR-3 target rule, exposed for external arbiters: the
        candidate ``mode`` (``"surge"`` / ``"calm"``) would switch
        ``device`` to at this operating point (may be the resident)."""
        return self._desired(device, mode, batch_size, sla_s, wait_s)

    def _desired(self, device: str, mode: str, batch_size: int,
                 sla_s: float, wait_s: float) -> ExecutionPath:
        candidates = self.candidates[device]
        size = max(1, batch_size)
        if mode == "surge":
            return min(candidates, key=lambda p: p.latency(size))
        # Calm: highest accuracy whose *end-to-end* latency at the current
        # operating point (observed queueing delay + service at the current
        # batch size) still fits the headroom. No feasible candidate means
        # the operating point is marginal — inconclusive evidence keeps the
        # current residency rather than guessing.
        feasible = [
            p for p in candidates
            if wait_s + p.latency(size) <= self.headroom * sla_s
        ]
        if feasible:
            return max(feasible, key=lambda p: (p.accuracy, -p.latency(size)))
        return self._resident[device]

    def switch_overhead_s(self, old_path: ExecutionPath,
                          new_path: ExecutionPath) -> float:
        """The Fig-15 window one swap costs: load the new representation
        plus tear down the old (or the explicit overrides)."""
        load = self.load_s if self.load_s is not None else estimate_load_s(
            new_path
        )
        teardown = (
            self.teardown_s if self.teardown_s is not None
            else estimate_teardown_s(old_path)
        )
        return load + teardown

    def start_switch(self, core, device: str, target: ExecutionPath,
                     now: float, loop) -> SwitchEvent:
        """Commit a switch *now*: charge the Fig-15 window as a blocking
        event on the device timeline, swap residency, and schedule the
        completion.  Called by :meth:`observe` once hysteresis fires, and
        by the :class:`~repro.serving.controlplane.ControlPlane` when its
        fleet-level arbitration picks the switch action (the plane owns
        the patience/cooldown there; this method only executes and
        prices)."""
        from repro.serving.engine import SWITCH  # local: avoid import cycle

        old = self._resident[device]
        overhead = self.switch_overhead_s(old, target)
        ready = core.timeline.block(device, now, overhead)
        core.scheduler.on_switch_started(device, old, target, now)
        self._resident[device] = target
        self._hysteresis.begin(device)
        loop.push(ready, SWITCH, (core.node_id, device))
        event = SwitchEvent(
            time_s=now, ready_s=ready, node_id=core.node_id,
            device=device, from_label=old.label, to_label=target.label,
            overhead_s=overhead,
        )
        self.events.append(event)
        self.total_overhead_s += overhead
        return event
