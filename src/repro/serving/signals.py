"""Shared control signals and hysteresis: one vocabulary for every controller.

PRs 3-5 stacked four control mechanisms — representation switching
(:mod:`repro.core.switching`), elastic autoscaling
(:mod:`repro.serving.autoscale`), the cache tier's warm/donate flows
(:mod:`repro.serving.cache`), and cache-affinity routing
(:mod:`repro.serving.routing`) — and each grew its own copy of the same
three ideas:

- **pressure** — a queueing delay measured against the SLA
  (:func:`queue_pressure`), computed identically by the switch
  controller and the unified control plane (the batch's oldest-member
  wait);
- **window utilization** — the resident path's service time for the
  current batch mix against the batching window
  (:func:`window_utilization`), the *leading* overload indicator that
  fires before a backlog commits to the timeline;
- **thrash control** — patience streaks that must agree on one target,
  busy windows while an action is in flight, and cooldowns after it
  completes (:class:`Hysteresis`).

This module is where those live now, in exactly one place, so the
signals cannot drift between controllers.  The single-node
:class:`~repro.core.switching.SwitchController` keeps its own decision
rule on top of these primitives; the
:class:`~repro.serving.controlplane.ControlPlane` arbitrates every fleet
mechanism against one cost function using the same primitives, and its
one fleet-wide hysteresis key serializes switches and scale operations,
so neither reacts to the queue spike the other induced.
"""

from __future__ import annotations


def queue_pressure(wait_s: float, sla_s: float) -> float:
    """Queueing delay as a fraction of the SLA — the shared pressure signal.

    Every controller in the repo reads load the same way: ``wait_s`` is a
    queueing delay (the batch's oldest-member wait, or the device-queue
    component alone for calm checks) and the SLA is the yardstick.  >= 1 means the delay alone already blows the
    target.
    """
    return wait_s / sla_s


def window_utilization(
    path, batch_size: int, timeout_s: float, floor_guard: bool = False
) -> float:
    """Service time of the current batch mix against the batching window.

    ``>= 1`` means the device cannot drain what one flush window admits —
    the leading surge indicator that fires before a backlog commits to
    the timeline.  Returns 0.0 when batching is disabled (no window, no
    signal).

    ``floor_guard=True`` additionally returns 0.0 when the path cannot
    serve even a singleton within the window (``latency(1) >=
    timeout_s``): such a path would read as saturated forever, so the
    wait/queue pressures are the only trustworthy signals there.  The
    control plane guards; the switch controller does not — a
    floor-saturated residency is exactly what it must switch away from.
    """
    if timeout_s <= 0:
        return 0.0
    if floor_guard and path.latency(1) >= timeout_s:
        return 0.0
    return path.latency(max(1, batch_size)) / timeout_s


def miss_penalty_s(affinity: float, hot_bytes: float, link) -> float:
    """Fabric seconds a node pays for the hot bytes it would miss.

    The cache-affinity router's per-query cost term, shared with the
    control plane's reroute/rewarm predictions: the query's hot embedding
    bytes, scaled by how much of them the node would actually pull over
    the fabric (``1 - affinity``), at the link's bandwidth.  Affinity is
    1.0 for a shard owner, else the node's cache residency for the
    query's group.
    """
    return (1.0 - affinity) * (hot_bytes / link.bandwidth)


class Hysteresis:
    """Keyed thrash control: patience streaks, busy windows, cooldowns.

    One instance serves one controller.  Keys scope the state — the
    switch controller keys by device name, the control plane by node and
    by the fleet — and each key carries:

    - a **streak**: consecutive :meth:`vote` calls agreeing on one
      target (targets compare by ``==``; pass ``id(obj)`` to get
      identity semantics for objects whose ``==`` is unusable, e.g.
      :class:`~repro.core.paths.ExecutionPath` with its profile arrays).
      A vote for a different target restarts the count at 1 — mixed
      verdicts never accumulate — while repeated votes at a bound keep
      accumulating, so evidence blocked by a membership bound is not
      thrown away.
    - a **busy** flag (:meth:`begin`): while an action is in flight the
      key is :meth:`blocked` and never re-evaluated.
    - a **cooldown** (:meth:`complete`): after the action's window
      closes the key stays blocked for ``cooldown_s`` regardless of
      pressure.
    """

    __slots__ = ("_streaks", "_busy", "_cooldown_until")

    def __init__(self) -> None:
        self._streaks: dict = {}
        self._busy: set = set()
        self._cooldown_until: dict = {}

    def reset(self) -> None:
        """Clear all state (run start)."""
        self._streaks.clear()
        self._busy.clear()
        self._cooldown_until.clear()

    def blocked(self, key, now: float) -> bool:
        """True while ``key`` has an action in flight or is cooling down."""
        return key in self._busy or now < self._cooldown_until.get(key, 0.0)

    def vote(self, key, target) -> int:
        """One dispatch's verdict for ``key``: returns the streak length.

        The caller compares the count against its own patience and
        decides; bounds stay the caller's concern so a blocked streak
        keeps accumulating (see the control plane's bound semantics).
        """
        prev, count = self._streaks.get(key, (None, 0))
        count = count + 1 if prev == target else 1
        self._streaks[key] = (target, count)
        return count

    def clear(self, key) -> None:
        """Inconclusive evidence: the streak starts over."""
        self._streaks.pop(key, None)

    def begin(self, key) -> None:
        """An action committed: mark busy and drop the spent streak."""
        self._streaks.pop(key, None)
        self._busy.add(key)

    def complete(self, key, now: float, cooldown_s: float) -> None:
        """The action's window closed: release busy, arm the cooldown."""
        self._busy.discard(key)
        self._cooldown_until[key] = now + cooldown_s

