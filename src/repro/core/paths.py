"""Execution paths: a (representation, hardware) pair ready to serve queries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.representations import RepresentationConfig
from repro.hardware.device import DeviceSpec

if TYPE_CHECKING:
    from repro.hardware.latency import PriceModel


@dataclass
class PathProfile:
    """Latency profile of one path across query sizes (offline profiling).

    ``latency(n)`` interpolates log-linearly between profiled sizes, matching
    how the paper profiles "selected representations against the expected
    workload at different query sizes" (Section 4.1). Sizes and latencies
    must be finite and positive (the interpolation runs on their logs).
    """

    sizes: np.ndarray
    latencies: np.ndarray

    def __post_init__(self) -> None:
        self.sizes = np.asarray(self.sizes, dtype=np.float64)
        self.latencies = np.asarray(self.latencies, dtype=np.float64)
        if self.sizes.ndim != 1 or self.sizes.shape != self.latencies.shape:
            raise ValueError("sizes and latencies must be equal-length 1D arrays")
        if self.sizes.size < 1:
            raise ValueError("profile needs at least one point")
        for name, values in (("sizes", self.sizes), ("latencies", self.latencies)):
            if not (np.all(np.isfinite(values)) and np.all(values > 0)):
                raise ValueError(f"{name} must be finite and positive")
        if np.any(np.diff(self.sizes) <= 0):
            raise ValueError("sizes must be strictly increasing")
        # latency() sits on the scheduler's per-decision hot path; cache the
        # log-domain profile so each call is one scalar interpolation.
        self._log_sizes = np.log(self.sizes)
        self._log_latencies = np.log(self.latencies)

    def latency(self, query_size: float) -> float:
        """Service latency at ``query_size`` samples, log-log interpolated
        through the profiled anchor points.

        Outside the anchors the latency is clamped, not extrapolated
        (``np.interp``): every size above the largest anchor (4096 samples
        in the default profile) is charged that anchor's latency, and
        every size below the smallest is charged the smallest's. A priced
        path's energy multiplies the roofline power at the batch's true
        size by this clamped time.
        """
        if query_size <= 0:
            raise ValueError("query_size must be positive")
        return math.exp(
            np.interp(math.log(query_size), self._log_sizes, self._log_latencies)
        )

    def latency_many(self, query_sizes) -> np.ndarray:
        """Vectorized :meth:`latency`, bit-equal to the per-size scalar calls
        (so it clamps outside the anchors exactly as :meth:`latency` does).

        The interpolation runs as one array pass; the final exponential
        stays ``math.exp`` per element because ``np.exp`` rounds the last
        ulp differently on some libms, and the fast path's record-for-record
        parity with the event kernel rides on exact float equality.
        """
        sizes = np.asarray(query_sizes, dtype=np.float64)
        if sizes.size and sizes.min() <= 0:
            raise ValueError("query_size must be positive")
        interp = np.interp(
            np.log(sizes), self._log_sizes, self._log_latencies
        )
        return np.fromiter(
            map(math.exp, interp.tolist()), np.float64, count=sizes.size
        )

    def throughput(self, query_size: float) -> float:
        """Samples/second when saturating the device with this query size."""
        return query_size / self.latency(query_size)


@dataclass
class ExecutionPath:
    """One activatable representation-hardware mapping (Figure 8).

    ``price`` is the path's roofline price model, attached by the
    experiment builders. The serving engines charge a path that carries
    one its utilization-aware energy (paper O3); a path without one is
    charged half its device's TDP for the service time. Either way,
    service *time* comes from ``profile``.
    """

    rep: RepresentationConfig
    device: DeviceSpec
    accuracy: float
    profile: PathProfile
    encoder_hit_rate: float = 0.0
    decoder_speedup: float = 1.0
    label: str = ""
    memory_bytes: int = 0
    price: PriceModel | None = None

    def __post_init__(self) -> None:
        if not self.label:
            self.label = f"{self.rep.kind.upper()}({self.device.name})"

    @property
    def kind(self) -> str:
        """The representation kind this path serves (table/dhe/...)."""
        return self.rep.kind

    def latency(self, query_size: int) -> float:
        """Profiled service latency at ``query_size`` samples."""
        return self.profile.latency(query_size)

    def latency_many(self, query_sizes) -> np.ndarray:
        """Vectorized :meth:`latency` (bit-equal to the scalar calls)."""
        return self.profile.latency_many(query_sizes)

    def __repr__(self) -> str:
        return f"ExecutionPath({self.label}, acc={self.accuracy:.3f})"
