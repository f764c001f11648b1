"""Energy model: per-query Joules from TDP, idle power, and utilization.

Reproduces the paper's O3 observation (Figure 7, bottom): a TPU chip's TDP
is 1.8x a V100's, so despite higher table throughput the GPU wins on energy
for large table-based models; an IPU spilling to Streaming Memory burns
power while waiting on a 20 GB/s link.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hardware.device import DeviceSpec

if TYPE_CHECKING:
    import numpy as np

    from repro.hardware.latency import OperatorBreakdown


def scalar_where(condition, if_true, if_false):
    """``np.where`` for one scalar condition: the select that
    :func:`average_power` and :class:`~repro.hardware.latency.PriceModel`
    use when they price one batch size."""
    return if_true if condition else if_false


def average_power(
    device: DeviceSpec,
    breakdown: OperatorBreakdown,
    minimum=min,
    select=scalar_where,
) -> float | np.ndarray:
    """Average Watts while serving: idle floor plus utilization-scaled burst.

    Utilization is approximated by the fraction of time spent in compute
    operators (memory-stalled time draws closer to idle power).

    One formula prices one breakdown (the default ``min`` and
    :func:`scalar_where`) or a breakdown whose fields are arrays over many
    batch sizes (``np.minimum`` and ``np.where``), bit-equal per element.
    """
    total = breakdown.total
    # An all-zero breakdown runs nothing and draws the idle floor. Both
    # forms evaluate every branch, so the guard also swaps the divisor.
    idle = total <= 0
    busy = breakdown.dense_compute + breakdown.decoder + breakdown.encoder
    utilization = minimum(1.0, busy / select(idle, 1.0, total))
    burst = device.idle_w + (device.tdp_w - device.idle_w) * (0.3 + 0.7 * utilization)
    return select(idle, device.idle_w, burst)


def energy_per_query(device: DeviceSpec, breakdown: OperatorBreakdown) -> float:
    """Joules consumed by one query's execution."""
    return average_power(device, breakdown) * breakdown.total


def energy_per_sample(
    device: DeviceSpec, breakdown: OperatorBreakdown, batch_size: int
) -> float:
    """Joules per sample of one query of ``batch_size`` samples."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    return energy_per_query(device, breakdown) / batch_size
