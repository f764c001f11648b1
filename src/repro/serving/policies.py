"""Admission / load-shedding policies for the serving engine.

Overloaded recommendation frontends shed work rather than answer late — a
response that misses the page-render deadline has zero value (Section 5.4's
SLA framing). The engine consults one :class:`ShedPolicy` per query at
dispatch time, after the batch has been routed to a path, so the policy sees
both the projected queue wait and the projected service time.

Policies are deliberately stateless value objects so a single instance can
be shared across simulators and scenarios.

``"none"``
    Serve everything; late answers still count toward raw throughput.
``"drop-late"``
    Shed a query whose *queue wait alone* already exceeds its SLA target —
    the standard production guard: by the time a server frees up the
    response is already worthless.
``"deadline-aware"``
    Shed a query whose projected completion (wait + service) would miss its
    SLA target scaled by ``slack``. Strictly more aggressive than
    ``drop-late``; it also refuses work that would *start* on time but
    finish late, freeing capacity for queries that can still make their
    deadline.
"""

from __future__ import annotations

from dataclasses import dataclass


class ShedPolicy:
    """Decide, per query, whether to admit or shed at dispatch time."""

    name = "policy"

    def admit(self, wait_s: float, service_s: float, sla_s: float) -> bool:
        """Return ``True`` to serve the query, ``False`` to shed it.

        ``wait_s``: time from the query's arrival to its projected start
        (batching delay + queue wait on the routed device).
        ``service_s``: projected service time of the batch carrying it.
        ``sla_s``: the query's SLA latency target (per-tenant aware).
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True, repr=False)
class NoShed(ShedPolicy):
    """Serve every query regardless of backlog."""

    name = "none"

    def admit(self, wait_s: float, service_s: float, sla_s: float) -> bool:
        """Admit unconditionally."""
        return True


@dataclass(frozen=True, repr=False)
class DropLate(ShedPolicy):
    """Shed when the queue wait alone already exceeds the SLA target."""

    name = "drop-late"

    def admit(self, wait_s: float, service_s: float, sla_s: float) -> bool:
        """Admit while the queue wait alone still fits the SLA."""
        return wait_s <= sla_s


@dataclass(frozen=True)
class DeadlineAware(ShedPolicy):
    """Shed when the projected completion would miss ``slack * sla``.

    ``slack`` > 1 tolerates marginal misses (shed only clear losses);
    ``slack`` < 1 sheds pre-emptively to keep headroom.
    """

    name = "deadline-aware"
    slack: float = 1.0

    def __post_init__(self) -> None:
        if not self.slack > 0:  # also rejects nan
            raise ValueError("slack must be positive")

    def admit(self, wait_s: float, service_s: float, sla_s: float) -> bool:
        """Admit while the projected completion fits ``slack * sla``."""
        return wait_s + service_s <= self.slack * sla_s


_BUILTIN = {
    "none": NoShed,
    "drop-late": DropLate,
    "deadline-aware": DeadlineAware,
}

POLICY_NAMES = tuple(_BUILTIN)


def make_policy(spec: str | ShedPolicy | None) -> ShedPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if spec is None:
        return NoShed()
    if isinstance(spec, ShedPolicy):
        return spec
    try:
        return _BUILTIN[spec]()
    except KeyError:
        raise ValueError(
            f"shed_policy must be one of {sorted(_BUILTIN)} or a ShedPolicy, "
            f"got {spec!r}"
        ) from None
