"""Analytical hardware models for CPU / GPU / TPU / IPU platforms.

The paper characterizes real hardware (Table 1); this package reproduces
those platforms as calibrated roofline models: per-operator latency from
compute peak, memory bandwidth, gather efficiency, launch/transfer
overheads, and SRAM-vs-DRAM placement, plus energy from TDP and utilization.
Multi-chip configurations (TPU chip/board, IPU board/pod) compose single-chip
specs through data-parallel, pipelined, or sharded topologies.
"""

from repro.hardware.device import DeviceSpec
from repro.hardware.catalog import (
    CPU_BROADWELL,
    GPU_V100,
    TPU_V3_CORE,
    TPU_V3_CHIP,
    TPU_V3_BOARD,
    IPU_GC200,
    IPU_M2000,
    IPU_POD16,
    DEVICE_CATALOG,
    device_by_name,
)
from repro.hardware.latency import (
    OperatorBreakdown,
    PriceModel,
    estimate_breakdown,
    path_latency,
)
from repro.hardware.energy import energy_per_query, average_power
from repro.hardware.topology import scale_out, ShardedPlacement, plan_ipu_placement
from repro.hardware.roofline import (
    RooflinePoint,
    classify,
    operational_intensity,
    ridge_point,
)

__all__ = [
    "DeviceSpec",
    "CPU_BROADWELL",
    "GPU_V100",
    "TPU_V3_CORE",
    "TPU_V3_CHIP",
    "TPU_V3_BOARD",
    "IPU_GC200",
    "IPU_M2000",
    "IPU_POD16",
    "DEVICE_CATALOG",
    "device_by_name",
    "OperatorBreakdown",
    "PriceModel",
    "estimate_breakdown",
    "path_latency",
    "energy_per_query",
    "average_power",
    "scale_out",
    "ShardedPlacement",
    "plan_ipu_placement",
    "RooflinePoint",
    "classify",
    "operational_intensity",
    "ridge_point",
]
