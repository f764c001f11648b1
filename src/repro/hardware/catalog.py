"""Device catalog parameterized by the paper's Table 1.

Peak FLOPs are derived from public specs (Broadwell AVX2, V100 FP32, TPUv3
bf16, GC200 FP32-equivalent); efficiencies and per-query overheads are a
single calibration pass against the paper's reported operator breakdowns
(see docs/architecture.md). These constants are fixed here and nowhere
else — benchmarks consume the resulting model untouched.

Calibration notes (how the paper's observations emerge):

- Per-query host overheads (``query_overhead_s``) reflect the serving-stack
  cost the paper's Insight 3 attributes to "data loading" and dispatch.
  They make the CPU the right choice for small queries (Kaggle) and bound
  baseline throughput at ~400-560 QPS, which is what lets MP-Rec's
  two-device plans show 2.5-3.8x correct-prediction throughput (Fig 10).
- TPU boards/pods serve queries on independent replicas ("data-parallelism
  for increased throughput", Sec 3.4), so board-level speedup approaches
  4x chip-level (Fig 7a: 3.12x -> 11.13x).
- A single IPU's Streaming Memory link (Table 1: 20 GB/s per M2000) has a
  severe random-gather derating, producing O2's cliff when a model spills
  out of the 900 MB scratchpad.
"""

from __future__ import annotations

from repro.hardware.device import GB, MB, DeviceSpec

# --- Host CPU: Intel Broadwell Xeon, 12 cores @ 2.2 GHz (Table 1) ----------
# 12 cores x 2.2 GHz x 2 FMA ports x 8 fp32 lanes x 2 flops ~= 0.42 TF.
CPU_BROADWELL = DeviceSpec(
    name="cpu-broadwell",
    kind="cpu",
    peak_flops=0.42e12,
    dram_bandwidth=76.8e9,
    dram_capacity=264 * GB,
    sram_capacity=30 * MB,  # L3
    sram_bandwidth=400e9,
    tdp_w=105.0,
    idle_w=40.0,
    launch_overhead_s=5e-6,
    query_overhead_s=0.5e-3,  # serving-framework cost per query on host
    host_transfer_bw=0.0,
    gather_efficiency=0.30,
    mlp_efficiency=0.25,  # eager-mode framework per-op overheads
    small_gemm_factor=0.75,
    elementwise_efficiency=0.10,  # scalar-ish hashing
    lookup_latency_s=100e-9,  # effective per-lookup DRAM latency
)

# --- NVIDIA V100 (Table 1) --------------------------------------------------
GPU_V100 = DeviceSpec(
    name="gpu-v100",
    kind="gpu",
    peak_flops=14.0e12,
    dram_bandwidth=900e9,
    dram_capacity=32 * GB,
    sram_capacity=6 * MB,  # L2
    sram_bandwidth=3e12,
    tdp_w=250.0,
    idle_w=50.0,
    launch_overhead_s=450e-6,  # kernel launches + device sync per query
    query_overhead_s=0.8e-3,  # host prep + data loading per query
    host_transfer_bw=12e9,  # PCIe 3.0 x16 effective
    gather_efficiency=0.20,  # uncoalesced row gathers
    mlp_efficiency=0.45,
    small_gemm_factor=0.35,  # per-feature decoder GEMMs underfill SMs
    elementwise_efficiency=0.50,
    lookup_latency_s=1.2e-9,
)

# --- Google TPUv3 at core / chip / board granularity ------------------------
# TPUv3 chip: 2 cores, 123 TF bf16, 32 GiB HBM @ 900 GB/s. TPUEmbedding
# shards/replicates tables across HBM and pipelines lookups with TensorCore
# compute (paper O1), modeled by `embedding_pipelining`.
_TPU_COMMON = dict(
    kind="tpu",
    launch_overhead_s=150e-6,  # XLA dispatch; compilation excluded (Sec 5.1)
    query_overhead_s=0.5e-3,  # host feed + infeed queue per query
    host_transfer_bw=12e9,
    gather_efficiency=0.55,
    mlp_efficiency=0.55,
    small_gemm_factor=0.55,  # decoder shapes pad poorly onto the 128x128 MXU
    elementwise_efficiency=0.25,
    embedding_pipelining=True,
    lookup_latency_s=0.6e-9,
)

TPU_V3_CORE = DeviceSpec(
    name="tpu-v3-core",
    peak_flops=61.5e12 / 2,
    dram_bandwidth=450e9,
    dram_capacity=16 * GB,
    sram_capacity=16 * MB,
    sram_bandwidth=8e12,
    tdp_w=225.0,
    idle_w=75.0,
    **_TPU_COMMON,
)

TPU_V3_CHIP = DeviceSpec(
    name="tpu-v3-chip",
    peak_flops=61.5e12,
    dram_bandwidth=900e9,
    dram_capacity=32 * GB,
    sram_capacity=32 * MB,
    sram_bandwidth=16e12,
    tdp_w=450.0,  # 1.8x V100 (paper O3)
    idle_w=150.0,
    **_TPU_COMMON,
)

TPU_V3_BOARD = DeviceSpec(
    name="tpu-v3-board",
    peak_flops=4 * 61.5e12,
    dram_bandwidth=4 * 900e9,
    dram_capacity=4 * 32 * GB,
    sram_capacity=4 * 32 * MB,
    sram_bandwidth=4 * 16e12,
    tdp_w=4 * 450.0,
    idle_w=4 * 150.0,
    n_chips=4,
    parallelism="replicated",
    replicas=4,
    interconnect_bw=70e9,
    **_TPU_COMMON,
)

# --- Graphcore GC200 IPU at chip / board / pod granularity -------------------
# 900 MB SRAM per chip at ~47.5 TB/s; Streaming Memory is Table 1's 20 GB/s
# per M2000 board (80 GB/s per POD16) with a harsh random-access derating —
# the cliff behind the paper's O2.
_IPU_COMMON = dict(
    kind="ipu",
    launch_overhead_s=250e-6,
    query_overhead_s=1.45e-3,  # heavy host I/O streaming per query
    host_transfer_bw=11e9,
    gather_efficiency=0.60,
    mlp_efficiency=0.30,  # fp32 AMP units; decoder shapes underfill tiles
    small_gemm_factor=0.90,
    elementwise_efficiency=0.60,  # 1472 tiles love parallel hashing
    lookup_latency_s=0.3e-9,
    spill_gather_efficiency=0.05,  # random access over Streaming Memory
)

IPU_GC200 = DeviceSpec(
    name="ipu-gc200",
    peak_flops=62.5e12,
    dram_bandwidth=20e9 / 4,  # one chip's share of board streaming memory
    dram_capacity=64 * GB,
    sram_capacity=int(0.9 * 1000 * MB),
    sram_bandwidth=47.5e12,
    tdp_w=150.0,
    idle_w=45.0,
    **_IPU_COMMON,
)

IPU_M2000 = DeviceSpec(
    name="ipu-m2000",
    peak_flops=4 * 62.5e12,
    dram_bandwidth=20e9,
    dram_capacity=256 * GB,
    sram_capacity=4 * int(0.9 * 1000 * MB),
    sram_bandwidth=4 * 47.5e12,
    tdp_w=600.0,
    idle_w=180.0,
    n_chips=4,
    parallelism="pipeline",
    replicas=1,  # one model instance staged across the 4 chips
    interconnect_bw=64e9,
    **_IPU_COMMON,
)

IPU_POD16 = DeviceSpec(
    name="ipu-pod16",
    peak_flops=16 * 62.5e12,
    dram_bandwidth=80e9,
    dram_capacity=1024 * GB,
    sram_capacity=16 * int(0.9 * 1000 * MB),
    sram_bandwidth=16 * 47.5e12,
    tdp_w=2400.0,
    idle_w=720.0,
    n_chips=16,
    parallelism="replicated",
    replicas=16,
    interconnect_bw=64e9,
    **_IPU_COMMON,
)

DEVICE_CATALOG: dict[str, DeviceSpec] = {
    spec.name: spec
    for spec in (
        CPU_BROADWELL,
        GPU_V100,
        TPU_V3_CORE,
        TPU_V3_CHIP,
        TPU_V3_BOARD,
        IPU_GC200,
        IPU_M2000,
        IPU_POD16,
    )
}


def device_by_name(name: str) -> DeviceSpec:
    """The catalog spec called ``name``; a ``KeyError`` lists the known
    names."""
    try:
        return DEVICE_CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown device {name!r}; known: {sorted(DEVICE_CATALOG)}"
        ) from None
