"""Device timelines: per-device server-slot state for the serving kernel.

A :class:`DeviceTimeline` owns the ``free_at`` map the schedulers consult
(``{device_name: [next_free_time] * concurrency}``), answers earliest-free
queries, commits dispatched batches, and prices *blocking events* —
device-wide stalls such as a runtime representation switch
(:mod:`repro.core.switching`), which must drain the device's committed
work before the load/teardown window starts.

The map is deliberately the same plain ``dict[str, list[float]]`` the
schedulers have always received, so every existing
:class:`~repro.core.online.Scheduler` works against a timeline unchanged.
"""

from __future__ import annotations


class DeviceTimeline:
    """Server-slot bookkeeping for every device a scheduler can route to.

    Schedulers only read ``free_at``; only :meth:`commit` and
    :meth:`block` write it.  The fleet-earliest slot that routers read
    through :meth:`earliest_free_delay` is kept between those writes,
    and both of them drop it.
    """

    __slots__ = ("free_at", "_earliest")

    def __init__(self, paths) -> None:
        self.free_at: dict[str, list[float]] = {
            path.device.name: [0.0] * path.device.concurrency
            for path in paths
        }
        self._earliest: float | None = None

    def earliest(self, device: str) -> tuple[int, float]:
        """(server index, free time) of the device's earliest-free slot;
        the first such slot on ties."""
        pool = self.free_at[device]
        free = min(pool)
        return pool.index(free), free

    def commit(self, device: str, server: int, finish_s: float) -> None:
        """Occupy one server slot until ``finish_s``."""
        self.free_at[device][server] = finish_s
        self._earliest = None

    def earliest_free_delay(self, now: float) -> float:
        """Wait until *any* device frees a slot (cluster load signal)."""
        earliest = self._earliest
        if earliest is None:
            earliest = self._earliest = min(map(min, self.free_at.values()))
        # ``max(0.0, earliest - now)`` without the builtin call: the
        # difference of two distinct floats is never 0.0.
        return earliest - now if earliest > now else 0.0

    def block(self, device: str, now: float, duration_s: float) -> float:
        """Charge a device-wide blocking event (e.g. a representation
        switch): the device first drains its committed work, then every
        server is unavailable for ``duration_s``. Returns the instant the
        device is serviceable again."""
        if not duration_s >= 0:  # also rejects nan
            raise ValueError("duration_s must be non-negative")
        pool = self.free_at[device]
        ready = max(now, max(pool)) + duration_s
        for server in range(len(pool)):
            pool[server] = ready
        self._earliest = None
        return ready
