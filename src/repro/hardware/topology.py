"""Multi-chip placement strategies and cluster interconnect costs
(Figure 6, Sections 3.4 and 6.9).

``plan_ipu_placement`` reproduces the paper's Figure 6 decision tree for a
given model footprint: a model that fits one chip's 900 MB scratchpad is
replicated across all chips (full data parallelism — DHE's sweet spot); one
that fits a 4-chip board's aggregate SRAM is pipelined per board and the
board plan replicated across the pod; one that only fits the pod's combined
SRAM is sharded (each chip a unique shard — no data parallelism, the
Terabyte table/hybrid limitation of Insight 6); anything larger spills to
Streaming Memory.

:class:`LinkSpec` extends the same cost vocabulary across *nodes*: a
sharded serving cluster pays an all-to-all embedding exchange on every
query batch, and the link's (alpha = per-message latency, beta = inverse
bandwidth) pair prices that exchange. ``alltoall_exchange_time`` is the
standard (p-1)·alpha + bytes·beta personalized-exchange model used by
:mod:`repro.serving.cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hardware.device import DeviceSpec


@dataclass(frozen=True)
class LinkSpec:
    """One inter-node link class: per-message latency + per-node bandwidth."""

    name: str
    bandwidth: float  # bytes/s in or out of one node
    latency_s: float  # one-way per-message latency (alpha term)

    def __post_init__(self) -> None:
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if not self.latency_s >= 0:
            raise ValueError("latency_s must be non-negative")

    def transfer_time(self, nbytes: float) -> float:
        """Point-to-point time for one message of ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return self.latency_s + nbytes / self.bandwidth


# Scale-out fabrics a recommendation fleet actually deploys on.  Bandwidths
# are per-node payload rates (25/100 GbE at ~line rate); RDMA shaves the
# per-message software latency by an order of magnitude.
ETHERNET_25G = LinkSpec(name="eth-25g", bandwidth=3.125e9, latency_s=20e-6)
ETHERNET_100G = LinkSpec(name="eth-100g", bandwidth=12.5e9, latency_s=15e-6)
RDMA_100G = LinkSpec(name="rdma-100g", bandwidth=12.5e9, latency_s=2e-6)

CLUSTER_LINKS = {
    link.name: link for link in (ETHERNET_25G, ETHERNET_100G, RDMA_100G)
}

# WAN-class links joining *regions* (repro.serving.region): tens of
# milliseconds of one-way propagation latency and metered per-path
# bandwidth, orders of magnitude past any intra-cluster fabric.  Metro =
# same metro area (dark fiber), transcon = transcontinental backbone,
# intercont = intercontinental submarine cable.  The per-byte dollar/
# energy pricing of these links lives with the geo layer
# (:mod:`repro.serving.wan`); this module only knows time.
WAN_METRO = LinkSpec(name="wan-metro", bandwidth=2.5e9, latency_s=0.012)
WAN_TRANSCON = LinkSpec(name="wan-transcon", bandwidth=1.25e9, latency_s=0.035)
WAN_INTERCONT = LinkSpec(name="wan-intercont", bandwidth=6.25e8, latency_s=0.080)

WAN_LINKS = {
    link.name: link for link in (WAN_METRO, WAN_TRANSCON, WAN_INTERCONT)
}


def alltoall_exchange_time(
    remote_bytes: float, n_participants: int, link: LinkSpec
) -> float:
    """Time for one node to complete a personalized all-to-all round.

    ``remote_bytes`` is the payload this node pulls from its peers; the
    alpha term pays one message setup per remote peer ((p-1)·latency), the
    beta term streams the payload at the node's link bandwidth.  Zero when
    the node is alone or needs nothing remote — a single-node "cluster"
    degenerates to the plain engine.
    """
    if n_participants < 1:
        raise ValueError("n_participants must be >= 1")
    if n_participants == 1 or remote_bytes <= 0:
        return 0.0
    return (n_participants - 1) * link.latency_s + remote_bytes / link.bandwidth


@dataclass(frozen=True)
class ShardedPlacement:
    """How a model maps onto a multi-chip platform."""

    device: DeviceSpec  # spec with parallelism/replicas set for the strategy
    strategy: str  # "data" | "pipeline" | "sharded" | "spill"
    fits_on_chip: bool
    spilled_bytes: int = 0
    replicas: int = 1  # concurrent whole-query servers


def scale_out(device: DeviceSpec, n_chips: int, parallelism: str = "replicated") -> DeviceSpec:
    """Compose ``n_chips`` copies of a single-chip spec into one platform."""
    if n_chips < 1:
        raise ValueError("n_chips must be >= 1")
    if parallelism not in ("data", "replicated", "pipeline", "sharded"):
        raise ValueError(f"unknown parallelism {parallelism!r}")
    replicas = n_chips if parallelism == "replicated" else 1
    return replace(
        device,
        name=f"{device.name}-x{n_chips}-{parallelism}",
        peak_flops=device.peak_flops * n_chips,
        dram_bandwidth=device.dram_bandwidth * n_chips,
        dram_capacity=device.dram_capacity * n_chips,
        sram_capacity=device.sram_capacity * n_chips,
        sram_bandwidth=device.sram_bandwidth * n_chips,
        tdp_w=device.tdp_w * n_chips,
        idle_w=device.idle_w * n_chips,
        n_chips=device.n_chips * n_chips,
        parallelism=parallelism,
        replicas=replicas,
    )


def plan_ipu_placement(model_bytes: int, pod: DeviceSpec) -> ShardedPlacement:
    """Decide how a model of ``model_bytes`` runs on an IPU platform."""
    if model_bytes < 0:
        raise ValueError("model_bytes must be non-negative")
    chips = max(1, pod.n_chips)
    sram_per_chip = pod.sram_per_chip
    if model_bytes <= sram_per_chip:
        return ShardedPlacement(
            device=replace(pod, parallelism="replicated", replicas=chips),
            strategy="data",
            fits_on_chip=True,
            replicas=chips,
        )
    chips_per_board = min(4, chips)
    boards = max(1, chips // chips_per_board)
    if model_bytes <= sram_per_chip * chips_per_board:
        return ShardedPlacement(
            device=replace(pod, parallelism="pipeline", replicas=boards),
            strategy="pipeline",
            fits_on_chip=False,
            replicas=boards,
        )
    if model_bytes <= pod.sram_capacity:
        return ShardedPlacement(
            device=replace(pod, parallelism="sharded", replicas=1),
            strategy="sharded",
            fits_on_chip=False,
            replicas=1,
        )
    return ShardedPlacement(
        device=replace(pod, parallelism="sharded", replicas=1),
        strategy="spill",
        fits_on_chip=False,
        spilled_bytes=model_bytes - pod.sram_capacity,
        replicas=1,
    )
