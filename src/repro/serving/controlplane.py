"""Unified cost-based control plane: one SLO autopilot behind every knob.

PRs 3-5 gave the serving stack four independent control mechanisms —
runtime representation switching (:mod:`repro.core.switching`), elastic
autoscaling (:mod:`repro.serving.autoscale`), cache warm/donate
(:mod:`repro.serving.cache`), and cache-affinity routing
(:mod:`repro.serving.routing`) — each watching the same pressure
signals through its own thresholds and its own hysteresis.  Stacked,
they never *agree*: a surge that one warm window would absorb can fire a
scale-up **and** a switch, and a calm trough drains a node while a calm
switch was about to recover accuracy on it for free.

The :class:`ControlPlane` is the cluster's one fleet controller.  Every
control tick (one :class:`~repro.serving.engine.ControlTick` per
dispatched batch anywhere in the fleet) it classifies the operating
point with the shared :mod:`~repro.serving.signals` vocabulary —
**surge** (SLA pressure or an effectively saturated batching window,
exchange time included) or **calm** (device queues idle) — then prices
every candidate action against ONE cost function and commits **at most
one action per tick** through one fleet-wide
:class:`~repro.serving.signals.Hysteresis`:

====================  ==================================================
action                predicted cost (joule-equivalents, J-eq)
====================  ==================================================
``hold``              0 — the baseline every candidate is priced against
``switch:<label>``    the Fig-15 window: ``overhead_s x node_cost_w``
``scale:up``          ``warm_s x node_cost_w + horizon_s x (idle_w +
                      node_cost_w)`` — the handoff plus one more node's
                      idle power and occupancy over the horizon
``scale:down``        ``-horizon_s x (idle_w + node_cost_w)`` — the
                      same term, reclaimed
``reroute:<name>``    ``-(miss-penalty saving per query) x query rate x
                      horizon_s x node_cost_w``
``rewarm``            the cache fill's fabric window:
                      ``warm_s x node_cost_w``
====================  ==================================================

One J-eq is one joule of fleet energy or ``1 / node_cost_w``
node-seconds — the two axes of the fleet cost metric
(:attr:`~repro.serving.cluster.ClusterResult.fleet_energy_j` and
``node_seconds``) collapsed onto a single scale so a switch window, a
node's idle draw, and a cache fill are directly comparable.  In a surge
the cheapest feasible action fires (relief at the least cost); in a calm
the most negative one (the biggest saving — or an accuracy-recovering
calm switch when nothing saves).  Infeasible candidates stay in the
trace with their predicted costs, so every
:class:`ControlDecision` records not just what fired but what it beat
— the decision traces the Pareto bench and CI artifacts ship.

The plane owns patience/cooldown at the *fleet* level; the mechanism
objects it drives (:meth:`~repro.core.switching.SwitchController.
start_switch`, the cluster's scale/rewarm/reroute executors) only
execute and price.  Because one hysteresis serializes every action
class, a switch can never race a scale operation: neither reacts to the
queue spike the other induced.

Any subset of the action classes may be enabled.  ``actions=("scale",)``
is the fleet autoscaler on its own; ``actions=()`` with a ``schedule``
forces membership changes at fixed times (the accounting tests' lever).
The cluster's membership machinery — epochs, warm windows, drains,
forced schedules — reports back through :meth:`ControlPlane.
on_scale_started` / :meth:`~ControlPlane.on_scale_complete`.  See
docs/controlplane.md for the guided tour and
``benchmarks/test_ablation_scheduler.py`` for the headline result: on a
diurnal flash-crowd the autopilot Pareto-dominates every
single-mechanism baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.serving.autoscale import ScaleEvent
from repro.serving.signals import (
    Hysteresis,
    queue_pressure,
    window_utilization,
)

#: The four action classes the plane arbitrates (plus the implicit
#: ``hold``).  ``ControlPlane(actions=...)`` may enable any subset;
#: an empty tuple makes the plane a pure observer (it still classifies
#: and traces, but can only hold).
ACTION_CLASSES = ("switch", "scale", "reroute", "rewarm")

# One fleet-wide hysteresis key: the plane commits one action at a time,
# whatever its class — that single key IS the unified thrash control.
_FLEET = "fleet"


@dataclass(frozen=True)
class CandidateCost:
    """One candidate action's predicted price, feasible or not.

    ``action`` is the class-qualified name (``"switch:mlp-gpu"``,
    ``"scale:up"``, ``"reroute:cache-affinity"``, ``"rewarm"``,
    ``"hold"``); ``cost_j`` its predicted joule-equivalents (negative =
    a saving); ``detail`` the human-readable why (target, window,
    or the reason it is infeasible)."""

    action: str
    cost_j: float
    feasible: bool
    detail: str = ""


@dataclass(frozen=True)
class ControlDecision:
    """One committed control action, with everything it rejected.

    Appended to :attr:`ControlPlane.decisions` (and surfaced as
    :attr:`~repro.serving.cluster.ClusterResult.control_decisions`) at
    the instant hysteresis fires — the full candidate table, costs and
    feasibility included, is the decision trace the Pareto bench pins
    and CI uploads per leg."""

    time_s: float
    node_id: int
    mode: str  # "surge" | "calm"
    pressure: float  # worst member wait / SLA at the deciding tick
    util: float  # effective window utilization (exchange included)
    chosen: str  # the committed candidate's action name
    chosen_cost_j: float
    candidates: tuple[CandidateCost, ...]


def format_decision(decision: ControlDecision) -> str:
    """One deterministic text line per decision — the trace format the
    bench results files and CI artifacts use (docs/controlplane.md)."""
    table = ", ".join(
        f"{c.action}={c.cost_j:+.6f}" + ("" if c.feasible else "!")
        for c in decision.candidates
    )
    return (
        f"t={decision.time_s:.6f} node={decision.node_id} {decision.mode} "
        f"pressure={decision.pressure:.3f} util={decision.util:.3f} "
        f"-> {decision.chosen} ({decision.chosen_cost_j:+.6f} J-eq) "
        f"[{table}]"
    )


class AutopilotOps:
    """The executor surface a façade hands the plane via
    :meth:`ControlPlane.begin_run` — everything cluster-specific the
    plane's pricing and execution need, as attributes:

    ``sla_s``
        the run's SLA (float).
    ``n_members()``
        current fleet size.
    ``active_cores()``
        the live engine cores, in node order (a committed switch applies
        fleet-wide: every active node whose resident differs from the
        chosen target switches under the one decision).
    ``idle_w()``
        one node's idle draw in watts (the scale cost term).
    ``predict_join_warm_s()``
        the next join's charged warm window (shard slice + cache warm).
    ``start_scale_up(now, loop)`` / ``scale_down(now, loop)``
        the cluster's membership executors; completion flows back
        through :meth:`ControlPlane.on_scale_complete`.
    ``router_name()`` / ``route_candidates()`` / ``route_miss_s(name)``
        the installed router, the names valid for this cluster, and the
        expected per-query hot-miss fabric penalty under each.
    ``set_router(name)``
        install a different routing policy mid-run.
    ``predict_rewarm(core, label)`` / ``rewarm(core, label, now)``
        preview (``(warm_s, affinity_gain)``) / execute a cache re-warm
        on one node (``rewarm`` returns the instant the charged fill
        window closes).

    The cluster builds one per run from its own closures; tests may pass
    any object with the same attributes (it is pure duck typing — this
    class only documents the contract and carries the attributes)."""

    def __init__(self, **hooks) -> None:
        self.__dict__.update(hooks)


@dataclass
class ControlPlane:
    """One SLO autopilot arbitrating switch, scale, reroute, and rewarm.

    Construction: fleet bounds (``min_nodes`` / ``max_nodes``, with
    membership starting at ``initial_nodes``), pressure/utilization
    thresholds, patience and cooldown, an optional forced ``schedule``
    of ``(time_s, "up" | "down")`` membership changes.  On top of those:

    ``actions``
        the enabled action classes (any subset of :data:`ACTION_CLASSES`;
        disabling a class removes its candidates from arbitration — the
        lever that collapses the autopilot onto a single mechanism or
        the static fleet).
    ``horizon_s``
        how far ahead a candidate's recurring costs/savings are priced
        (an extra node's idle draw, a reroute's per-query saving).
        Effectively the planning window one decision is accountable for.
    ``node_cost_w``
        the exchange rate between the fleet cost metric's two axes:
        joule-equivalents one node-second costs.  At the default 1.0 the
        plane optimizes ``fleet_energy_j + node_seconds`` — exactly the
        Pareto bench's cost axis.

    One instance is a reusable template: the cluster clones it per run
    (:meth:`clone`) and binds the clone to the run's executors
    (:meth:`begin_run`), so back-to-back runs stay independent.
    """

    min_nodes: int
    max_nodes: int
    initial_nodes: int | None = None
    actions: tuple = ACTION_CLASSES
    hi_pressure: float = 0.75
    lo_pressure: float = 0.25
    util_hi: float = 0.95
    util_lo: float = 0.85
    patience: int = 4
    patience_down: int = 32
    cooldown_s: float = 0.25
    horizon_s: float = 2.0
    node_cost_w: float = 1.0
    schedule: tuple = ()

    events: list[ScaleEvent] = field(default_factory=list, init=False)
    decisions: list[ControlDecision] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not 1 <= self.min_nodes <= self.max_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        if self.initial_nodes is None:
            self.initial_nodes = self.min_nodes
        if not self.min_nodes <= self.initial_nodes <= self.max_nodes:
            raise ValueError("initial_nodes must be in [min_nodes, max_nodes]")
        unknown = set(self.actions) - set(ACTION_CLASSES)
        if unknown:
            raise ValueError(
                f"unknown action classes {sorted(unknown)}; "
                f"expected a subset of {ACTION_CLASSES}"
            )
        self.actions = tuple(dict.fromkeys(self.actions))
        if not 0.0 <= self.lo_pressure < self.hi_pressure:
            raise ValueError("need 0 <= lo_pressure < hi_pressure")
        if self.util_hi <= 0 or self.util_lo <= 0:
            raise ValueError("util_hi / util_lo must be positive")
        if self.patience < 1 or self.patience_down < 1:
            raise ValueError("patience / patience_down must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.node_cost_w < 0:
            raise ValueError("node_cost_w must be non-negative")
        for entry in self.schedule:
            time_s, kind = entry
            if kind not in ("up", "down"):
                raise ValueError(f"schedule kind must be up/down, got {kind!r}")
            if time_s < 0:
                raise ValueError("schedule times must be non-negative")
        self._hysteresis = Hysteresis()
        self._ops: AutopilotOps | None = None
        # Switch windows still open under the one committed fleet-wide
        # switch decision; the fleet hysteresis releases when the last
        # node's window closes.
        self._inflight_switches = 0
        self._demand_fast = 0.0
        self._demand_slow = 0.0
        self._demand_t: float | None = None

    # ---- lifecycle -------------------------------------------------------

    def clone(self) -> "ControlPlane":
        """A fresh plane with the same configuration and no state."""
        return replace(self)

    def begin_run(self, ops: AutopilotOps) -> None:
        """Bind to one cluster run's executors and clear all state."""
        self._ops = ops
        self._hysteresis.reset()
        self._inflight_switches = 0
        self._demand_fast = 0.0
        self._demand_slow = 0.0
        self._demand_t = None
        self.events = []
        self.decisions = []

    # ---- the arbiter -----------------------------------------------------

    def on_tick(self, core, tick) -> None:
        """One dispatched batch anywhere in the fleet: classify the
        operating point, price every candidate, and commit at most one
        action once the fleet-wide hysteresis agrees.

        Wired as every core's ``on_control_tick`` by a cluster built with
        a plane — the fleet's single control observer."""
        ops = self._ops
        if ops is None:
            raise RuntimeError(
                "ControlPlane.on_tick before begin_run(ops); the plane "
                "must be bound to a cluster run's executors first"
            )
        self._observe_demand(tick.now, tick.batch_queries)
        if self._hysteresis.blocked(_FLEET, tick.now):
            return
        timeout = core.batcher.timeout_s
        pressure = queue_pressure(tick.wait_s, ops.sla_s)
        # Effective window utilization: the resident path's service time
        # plus everything else the dispatch pays on the device (fabric
        # exchange, cache misses — tick.extra_s), against the batching
        # window.  The extra term is what makes a cache re-warm or a
        # reroute a *capacity* action here: they shrink extra_s.
        util = window_utilization(
            tick.path, tick.batch_size, timeout, floor_guard=True
        )
        if timeout > 0:
            util += tick.extra_s / timeout
        if pressure >= self.hi_pressure or util >= self.util_hi:
            mode = "surge"
        elif queue_pressure(tick.queue_s, ops.sla_s) <= self.lo_pressure:
            # Calm keys on the device-queue component alone: at a quiet
            # trough every batch still waits out the flush window, which
            # must not read as load.
            mode = "calm"
        else:
            self._hysteresis.clear(core.node_id)
            self._hysteresis.clear(_FLEET)
            return
        # Patience accumulates on the operating MODE, per node: ticks
        # arrive interleaved from every node in the fleet, and different
        # nodes are legitimately in different states (the node that just
        # switched is calm while its neighbour still drowns) — one
        # fleet-wide streak would let that interleaving reset the
        # evidence forever.  Each node's streak asks the one question
        # patience is for — is this surge/calm real or noise, *here*? —
        # while the busy/cooldown state stays fleet-wide (one action in
        # flight at a time, whatever its class), and the deciding tick's
        # arbitration picks what to do about it.
        streak = self._hysteresis.vote(core.node_id, mode)
        if mode == "calm":
            # Calm actions (drains, quality upgrades, router tweaks)
            # shrink or reshape the whole fleet, so calm is a FLEET
            # verdict: one shared streak that any node's non-calm tick
            # resets.  Surge relief stays per-node — a drowning node
            # must not wait for its idle neighbours to agree.
            fleet_calm = self._hysteresis.vote(_FLEET, "calm")
        else:
            self._hysteresis.clear(_FLEET)
            fleet_calm = 0
        if streak < self.patience:
            return
        if mode == "calm" and fleet_calm < self.patience_down:
            # Calm is never urgent: a surge is relieved at ``patience``,
            # but every calm optimization waits out ``patience_down``
            # ticks of fleet-wide agreement.  A premature join costs one
            # warm window; a premature drain or upgrade costs re-queued
            # user traffic the moment load ticks back up, and at a
            # marginal operating point the cheap calm switch would
            # otherwise thrash against the surge relief at exactly the
            # cooldown period.
            return
        candidates = self._candidates(core, tick, mode, util, pressure)
        best, execute = self._choose(candidates)
        if best is None:
            # Nothing actionable on THIS node at this instant; the
            # surge/calm evidence stays — another node's tick may hold
            # the feasible action.
            return
        self._hysteresis.begin(_FLEET)
        # The deciding node's evidence is spent: its next action needs a
        # fresh streak, not the tail of the one that just committed.
        self._hysteresis.clear(core.node_id)
        self.decisions.append(
            ControlDecision(
                time_s=tick.now,
                node_id=core.node_id,
                mode=mode,
                pressure=pressure,
                util=util,
                chosen=best.action,
                chosen_cost_j=best.cost_j,
                candidates=tuple(c for c, _ in candidates),
            )
        )
        execute()

    _TREND_FAST_TAU_S = 0.5
    _TREND_SLOW_TAU_S = 2.0
    _TREND_MARGIN = 1.05

    def _observe_demand(self, now: float, queries: int) -> None:
        """Two-horizon EWMA of the fleet arrival rate (queries/s).

        Every tick folds its batch into two exponentially-decayed rate
        estimators; each accumulator's steady-state value IS the rate,
        because an impulse of ``q`` queries contributes ``q / tau``
        decaying with time-constant ``tau`` (total area ``q``).  Arrival
        rate is the one load signal no control action perturbs — a
        switch changes service time and a join changes per-node share,
        so utilization collapses right after either and would read as
        "load falling" — which makes fast-over-slow here the plane's
        demand *trend*: rising while the half-second estimate runs ahead
        of the two-second one.
        """
        if self._demand_t is None:
            self._demand_t = now
        dt = now - self._demand_t
        self._demand_t = now
        if dt > 0:
            self._demand_fast *= math.exp(-dt / self._TREND_FAST_TAU_S)
            self._demand_slow *= math.exp(-dt / self._TREND_SLOW_TAU_S)
        self._demand_fast += queries / self._TREND_FAST_TAU_S
        self._demand_slow += queries / self._TREND_SLOW_TAU_S

    def _demand_rising(self) -> bool:
        return self._demand_fast > self._demand_slow * self._TREND_MARGIN

    # ---- candidate generation / pricing ----------------------------------

    def _candidates(self, core, tick, mode, util_eff, pressure):
        """Price every enabled action at this operating point: a list of
        ``(CandidateCost, execute)`` pairs (``execute`` is None for the
        infeasible ones and the ``hold`` baseline).

        The SLA is a *constraint*, not a term in the cost: once the
        queueing delay alone blows the target (``pressure >= 1``), or the
        resident path saturates the batching window all by itself (no
        amount of extra-time shaving can drain it), the cheap levers — a
        reroute's policy swap, a re-warm's fill window — cannot relieve
        the surge, and choosing them because they are cheap would starve
        the capacity levers behind the shared hysteresis.  They stay in
        the trace, priced, but marked infeasible; only switch and scale
        arbitrate a blown SLA."""
        out = [
            (CandidateCost("hold", 0.0, True, "keep the configuration"), None)
        ]
        resident_util = window_utilization(
            tick.path, tick.batch_size, core.batcher.timeout_s,
            floor_guard=True,
        )
        blown = mode == "surge" and (
            pressure >= 1.0 or resident_util >= self.util_hi
        )
        if "switch" in self.actions:
            out.append(self._switch_candidate(core, tick, mode))
        if "scale" in self.actions:
            out.append(self._scale_candidate(tick, mode, util_eff))
        if "reroute" in self.actions:
            out.append(self._demote(self._reroute_candidate(core, tick), blown))
        if "rewarm" in self.actions and mode == "surge":
            out.append(self._demote(self._rewarm_candidate(core, tick), blown))
        return [pair for pair in out if pair is not None]

    @staticmethod
    def _demote(pair, blown):
        """Mark a cheap-lever candidate infeasible under a blown SLA."""
        if pair is None or not blown:
            return pair
        cand, _ = pair
        if not cand.feasible:
            return pair
        return (
            CandidateCost(
                cand.action, cand.cost_j, False,
                "SLA already blown; only capacity levers arbitrate "
                f"({cand.detail})",
            ),
            None,
        )

    def _switch_candidate(self, core, tick, mode):
        ops = self._ops
        switcher = core.switcher
        if switcher is None:
            return None
        device = tick.path.device.name
        paths = switcher.candidates.get(device)
        if paths is None or len(paths) < 2:
            return None
        size = tick.batch_size
        if mode == "surge":
            size = switcher.full_batch_size(
                core, tick.batch_size, tick.batch_queries
            )
        target = switcher.desired(
            device, mode, size, ops.sla_s, tick.wait_s
        )
        resident = switcher.resident(device)
        if mode == "calm" and target.accuracy > resident.accuracy:
            # A quality upgrade must survive the next surge, not just the
            # current trough: judged at the batch size the trough happens
            # to show, a slow-but-accurate path always "fits", and the
            # first load ramp forces the switch straight back — a thrash
            # cycle at exactly the cooldown period.  Demand fit at the
            # batcher's FULL window instead.
            full = switcher.full_batch_size(
                core, tick.batch_size, tick.batch_queries
            )
            window = core.batcher.timeout_s
            if window > 0 and target.latency(full) >= self.util_lo * window:
                return (
                    CandidateCost(
                        "switch", 0.0, False,
                        f"{device}: upgrade {target.label} would saturate "
                        f"a full batch window",
                    ),
                    None,
                )
        # A committed switch is FLEET-wide: the deciding tick's signals
        # pick the target, and every active node whose resident differs
        # (and whose per-device window/cooldown is clear) switches under
        # the one decision.  Priced honestly: the sum of every laggard's
        # overhead window.
        movers = []
        overhead = 0.0
        for other in ops.active_cores():
            sw = other.switcher
            if sw is None or device not in sw.candidates:
                continue
            if sw.switching(device, tick.now):
                continue
            held = sw.resident(device)
            if held is target:
                continue
            movers.append((other, sw))
            overhead += sw.switch_overhead_s(held, target)
        if not movers:
            return (
                CandidateCost(
                    "switch", 0.0, False,
                    f"{device}: fleet already resident on {target.label} "
                    "(or switch windows/cooldowns in flight)",
                ),
                None,
            )

        def execute(now=tick.now, loop=tick.loop):
            self._inflight_switches = len(movers)
            for other, sw in movers:
                sw.start_switch(other, device, target, now, loop)

        return (
            CandidateCost(
                f"switch:{target.label}",
                overhead * self.node_cost_w,
                True,
                f"{device}: {len(movers)} node(s) -> {target.label}, "
                f"{overhead:.6f}s total window",
            ),
            execute,
        )

    def _scale_candidate(self, tick, mode, util_eff):
        ops = self._ops
        n = ops.n_members()
        idle_w = ops.idle_w()
        if mode == "surge":
            warm_s = ops.predict_join_warm_s()
            cost = warm_s * self.node_cost_w + self.horizon_s * (
                idle_w + self.node_cost_w
            )
            if n >= self.max_nodes:
                return (
                    CandidateCost(
                        "scale:up", cost, False,
                        f"fleet already at max_nodes={self.max_nodes}",
                    ),
                    None,
                )

            def execute(now=tick.now, loop=tick.loop):
                ops.start_scale_up(now, loop)

            return (
                CandidateCost(
                    "scale:up", cost, True,
                    f"join node {n}: {warm_s:.6f}s warm + {idle_w:.0f}W "
                    f"idle over the {self.horizon_s}s horizon",
                ),
                execute,
            )
        # Calm: draining reclaims a node's idle draw and occupancy, but
        # only if the survivors can absorb the load inside the window.
        cost = -self.horizon_s * (idle_w + self.node_cost_w)
        if n <= self.min_nodes:
            return (
                CandidateCost(
                    "scale:down", cost, False,
                    f"fleet already at min_nodes={self.min_nodes}",
                ),
                None,
            )
        survivors = util_eff * n / (n - 1)
        if survivors > self.util_lo:
            return (
                CandidateCost(
                    "scale:down", cost, False,
                    f"survivors' projected utilization {survivors:.3f} "
                    f"> util_lo={self.util_lo}",
                ),
                None,
            )
        if self._demand_rising():
            # The queues are calm NOW, but the arrival-rate trend says
            # more is coming: draining into a rising edge re-queues the
            # reclaimed capacity's traffic the moment it lands, and the
            # drain's saving is priced over ``horizon_s`` — a horizon
            # the trend says the calm won't survive.
            return (
                CandidateCost(
                    "scale:down", cost, False,
                    f"fleet demand rising "
                    f"({self._demand_fast:.0f} q/s over the last "
                    f"{self._TREND_FAST_TAU_S:g}s vs "
                    f"{self._demand_slow:.0f} over "
                    f"{self._TREND_SLOW_TAU_S:g}s)",
                ),
                None,
            )

        def execute(now=tick.now, loop=tick.loop):
            ops.scale_down(now, loop)

        return (
            CandidateCost(
                "scale:down", cost, True,
                f"drain node {n - 1}: reclaim {idle_w:.0f}W idle over "
                f"the {self.horizon_s}s horizon",
            ),
            execute,
        )

    def _reroute_candidate(self, core, tick):
        ops = self._ops
        names = tuple(ops.route_candidates())
        current = ops.router_name()
        alternatives = [n for n in names if n != current]
        if not alternatives:
            return None
        best_name = min(
            alternatives, key=lambda n: (ops.route_miss_s(n), n)
        )
        saving_per_query = ops.route_miss_s(current) - ops.route_miss_s(
            best_name
        )
        timeout = core.batcher.timeout_s
        # Query rate estimate: the window just dispatched this many
        # queries, so the policy saving recurs roughly that often.
        rate = tick.batch_queries / (timeout if timeout > 0 else ops.sla_s)
        cost = -saving_per_query * rate * self.horizon_s * self.node_cost_w
        if saving_per_query <= 1e-12:
            return (
                CandidateCost(
                    f"reroute:{best_name}", cost, False,
                    f"{current} already minimizes the expected miss "
                    "penalty",
                ),
                None,
            )

        def execute(now=tick.now):
            ops.set_router(best_name)
            self._hysteresis.complete(_FLEET, now, self.cooldown_s)

        return (
            CandidateCost(
                f"reroute:{best_name}", cost, True,
                f"{current} -> {best_name}: saves "
                f"{saving_per_query:.9f}s/query over the "
                f"{self.horizon_s}s horizon",
            ),
            execute,
        )

    def _rewarm_candidate(self, core, tick):
        ops = self._ops
        if core.cache is None:
            return None
        label = tick.path.label
        warm_s, gain = ops.predict_rewarm(core, label)
        cost = warm_s * self.node_cost_w
        # Marginal refills are churn, not relief: each fill window blocks
        # the node, so a re-warm must buy a real affinity step.
        if gain <= 0.02 or warm_s <= 0:
            return (
                CandidateCost(
                    "rewarm", cost, False,
                    f"node {core.node_id}: cache already warm for "
                    f"{label}",
                ),
                None,
            )

        def execute(now=tick.now):
            ready = ops.rewarm(core, label, now)
            # The fill window blocks the node like a handoff; cool down
            # from its close, not its start.
            self._hysteresis.complete(_FLEET, ready, self.cooldown_s)

        return (
            CandidateCost(
                "rewarm", cost, True,
                f"node {core.node_id}: {warm_s:.6f}s fill, "
                f"+{gain:.3f} affinity",
            ),
            execute,
        )

    @staticmethod
    def _choose(candidates):
        """The arbitration rule: cheapest feasible non-hold candidate
        (ties break by action name, so arbitration is deterministic).
        Surge relief and calm savings fall out of the same comparison —
        savings are negative costs."""
        viable = [
            (cand, execute)
            for cand, execute in candidates
            if cand.feasible and execute is not None
        ]
        if not viable:
            return None, None
        return min(viable, key=lambda pair: (pair[0].cost_j, pair[0].action))

    # ---- cluster callbacks -----------------------------------------------

    def on_scale_started(self) -> None:
        """A forced (scheduled) membership change is executing: freeze
        arbitration until it completes, as a priced one would."""
        self._hysteresis.begin(_FLEET)

    def on_scale_complete(self, now: float, event: ScaleEvent) -> None:
        """A membership change's handoff finished: record it, reset the
        evidence, arm the shared cooldown."""
        self.events.append(event)
        self._hysteresis.complete(_FLEET, now, self.cooldown_s)

    def on_switch_complete(self, core, device: str, now: float) -> None:
        """One node's switch window elapsed (relayed by the cluster's
        ``on_switch`` hook): release the fleet hysteresis once the LAST
        window of the committed fleet-wide switch closes.  The switch
        controllers' own per-device cooldowns were armed separately."""
        if self._inflight_switches > 1:
            self._inflight_switches -= 1
            return
        self._inflight_switches = 0
        self._hysteresis.complete(_FLEET, now, self.cooldown_s)

    @property
    def total_warm_s(self) -> float:
        """Device time blocked by scale-up warm windows across the run."""
        return sum(e.warm_s for e in self.events)
