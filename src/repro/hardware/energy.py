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
    from repro.hardware.latency import OperatorBreakdown


def average_power(device: DeviceSpec, breakdown: OperatorBreakdown) -> float:
    """Average Watts while serving: idle floor plus utilization-scaled burst.

    Utilization is approximated by the fraction of time spent in compute
    operators (memory-stalled time draws closer to idle power).
    """
    total = breakdown.total
    if total <= 0:
        return device.idle_w
    busy = breakdown.dense_compute + breakdown.decoder + breakdown.encoder
    utilization = min(1.0, busy / total)
    return device.idle_w + (device.tdp_w - device.idle_w) * (0.3 + 0.7 * utilization)


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
