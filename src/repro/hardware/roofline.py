"""Roofline positioning of embedding representations (Figure 1 context).

The paper's premise is that representations stress *different* system
resources: tables are memory-bound (near-zero FLOPs per byte of random
gather traffic) while DHE stacks are compute-bound. This module quantifies
that: operational intensity per representation, each device's ridge point,
and which side of the roof a (representation, device) pair lands on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.hardware.device import DeviceSpec
from repro.models.configs import ModelConfig

if TYPE_CHECKING:  # annotations only: core imports this module
    from repro.core.representations import RepresentationConfig

FP32 = 4


@dataclass(frozen=True)
class RooflinePoint:
    """Where one (representation, device) pair sits on the device's roof."""

    representation: str
    device: str
    operational_intensity: float  # FLOPs per byte moved
    ridge_point: float  # device FLOPs-per-byte at the roof's corner
    bound: str  # "memory" | "compute"
    attainable_flops: float  # FLOP/s the pair can sustain


def embedding_traffic_bytes(rep: RepresentationConfig, model: ModelConfig) -> int:
    """Bytes moved per sample by the embedding access stage."""
    bytes_moved = 0
    if rep.uses_tables:
        if rep.kind == "hybrid":
            row = rep.table_dim
            features = model.n_sparse
        elif rep.kind == "select":
            row = rep.embedding_dim
            features = model.n_sparse - rep.n_dhe_features
        else:
            row = rep.embedding_dim
            features = model.n_sparse
        bytes_moved += features * row * FP32
    if rep.uses_dhe:
        features = rep.n_dhe_features if rep.kind == "select" else model.n_sparse
        # Encoder intermediates stream out once per lookup.
        bytes_moved += features * rep.k * FP32
    return bytes_moved


def operational_intensity(rep: RepresentationConfig, model: ModelConfig) -> float:
    """Embedding-stage FLOPs per byte of memory traffic."""
    traffic = embedding_traffic_bytes(rep, model)
    if traffic == 0:
        return 0.0
    return rep.embedding_flops_per_sample(model) / traffic


def ridge_point(device: DeviceSpec) -> float:
    """Intensity at which the device transitions memory- to compute-bound."""
    return device.peak_flops * device.mlp_efficiency / device.dram_bandwidth


def classify(
    rep: RepresentationConfig, model: ModelConfig, device: DeviceSpec
) -> RooflinePoint:
    """Place the pair's embedding stage on the device's roofline: its
    intensity, the ridge point, which side it falls on, and the FLOP/s
    it can attain there."""
    intensity = operational_intensity(rep, model)
    ridge = ridge_point(device)
    bound = "compute" if intensity >= ridge else "memory"
    attainable = min(
        device.peak_flops * device.mlp_efficiency,
        intensity * device.dram_bandwidth,
    )
    return RooflinePoint(
        representation=rep.display,
        device=device.name,
        operational_intensity=intensity,
        ridge_point=ridge,
        bound=bound,
        attainable_flops=attainable,
    )
