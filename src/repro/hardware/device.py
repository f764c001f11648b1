"""Device specification for the analytical roofline model."""

from __future__ import annotations

from dataclasses import dataclass, replace

GB = 1024**3
MB = 1024**2

PARALLELISM_MODES = ("single", "data", "replicated", "pipeline", "sharded")


@dataclass(frozen=True)
class DeviceSpec:
    """One hardware platform (possibly multi-chip).

    Calibration constants (``gather_efficiency``, ``mlp_efficiency``,
    ``small_gemm_factor``, ``elementwise_efficiency``) are fractions of peak
    achieved on the relevant operator class; they are fixed once in
    :mod:`repro.hardware.catalog` so the paper's relative results emerge
    rather than being hard-coded.

    Multi-chip semantics (``parallelism``):

    - ``single``    — the spec is one device.
    - ``data``      — one query's batch splits across chips (latency win).
    - ``replicated``— chips serve whole queries independently (throughput
                      win; ``replicas`` concurrent servers).
    - ``pipeline``  — the model is staged across chips' SRAM; per-query
                      latency runs at one chip's compute rate, microbatch
                      overlap yields ``replicas`` effective servers.
    - ``sharded``   — each chip owns a unique model shard; chips cooperate
                      on every query (all-to-all), concurrency is 1.
    """

    name: str
    kind: str  # "cpu" | "gpu" | "tpu" | "ipu"
    peak_flops: float  # aggregate FP32-equivalent FLOP/s
    dram_bandwidth: float  # bytes/s to off-chip memory (aggregate)
    dram_capacity: int  # bytes of off-chip memory usable for the model
    sram_capacity: int  # bytes of on-chip SRAM usable for the model
    sram_bandwidth: float  # bytes/s to on-chip SRAM (aggregate)
    tdp_w: float
    idle_w: float
    launch_overhead_s: float  # kernel dispatch / device sync per query
    query_overhead_s: float  # host-side serving cost per query (framework)
    host_transfer_bw: float  # bytes/s host<->device (0 = host-resident)
    gather_efficiency: float  # fraction of DRAM bandwidth on random gathers
    mlp_efficiency: float  # fraction of peak FLOPs on dense GEMMs
    small_gemm_factor: float  # additional derating for decoder-sized GEMMs
    elementwise_efficiency: float  # fraction of peak on hashing/elementwise
    n_chips: int = 1
    parallelism: str = "single"
    replicas: int = 1  # concurrent whole-query servers
    interconnect_bw: float = 0.0  # bytes/s chip-to-chip (sharded)
    embedding_pipelining: bool = False  # TPUEmbedding-style lookup overlap
    lookup_latency_s: float = 0.0  # per-lookup random-access latency floor
    spill_gather_efficiency: float = 1.0  # derating for gathers over a
    # streaming-memory link (IPU Streaming Memory random access)

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 or self.dram_bandwidth <= 0:
            raise ValueError("peak_flops and dram_bandwidth must be positive")
        for frac_name in (
            "gather_efficiency",
            "mlp_efficiency",
            "small_gemm_factor",
            "elementwise_efficiency",
            "spill_gather_efficiency",
        ):
            frac = getattr(self, frac_name)
            if not 0 < frac <= 1:
                raise ValueError(f"{frac_name} must be in (0, 1], got {frac}")
        if self.n_chips < 1 or self.replicas < 1:
            raise ValueError("n_chips and replicas must be >= 1")
        if self.replicas > self.n_chips:
            raise ValueError("replicas cannot exceed n_chips")
        if self.parallelism not in PARALLELISM_MODES:
            raise ValueError(
                f"parallelism must be one of {PARALLELISM_MODES}, "
                f"got {self.parallelism!r}"
            )

    @property
    def total_memory(self) -> int:
        """Capacity available for model weights (DRAM + SRAM)."""
        return self.dram_capacity + self.sram_capacity

    @property
    def is_accelerator(self) -> bool:
        """True for every platform but the host CPU."""
        return self.kind != "cpu"

    @property
    def concurrency(self) -> int:
        """How many queries the platform serves at once."""
        return self.replicas

    @property
    def sram_per_chip(self) -> int:
        """One chip's share of the aggregate SRAM, in bytes."""
        return self.sram_capacity // max(1, self.n_chips)

    def fits_in_sram(self, model_bytes: int) -> bool:
        """Whether ``model_bytes`` fit in on-chip SRAM alone."""
        return model_bytes <= self.sram_capacity

    def fits(self, model_bytes: int) -> bool:
        """Whether ``model_bytes`` fit in DRAM and SRAM together."""
        return model_bytes <= self.total_memory

    def with_memory_budget(self, dram_capacity: int) -> "DeviceSpec":
        """Same silicon, different provisioned memory (HW-1 vs HW-2 studies)."""
        return replace(self, dram_capacity=dram_capacity)

    def __str__(self) -> str:
        return self.name
