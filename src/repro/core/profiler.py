"""Offline path profiling: latency tables across query sizes (Section 4.1)."""

from __future__ import annotations

import numpy as np

from repro.core.paths import ExecutionPath, PathProfile
from repro.core.representations import RepresentationConfig
from repro.hardware.device import DeviceSpec
from repro.hardware.latency import PriceModel
from repro.models.configs import ModelConfig

DEFAULT_PROFILE_SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def profile_path(
    rep: RepresentationConfig,
    model: ModelConfig,
    device: DeviceSpec,
    sizes: tuple[int, ...] = DEFAULT_PROFILE_SIZES,
    encoder_hit_rate: float = 0.0,
    decoder_speedup: float = 1.0,
) -> PathProfile:
    """Profile one (representation, device) pair across query sizes, all
    anchors priced from one :class:`~repro.hardware.latency.PriceModel`."""
    price = PriceModel(rep, model, device, encoder_hit_rate, decoder_speedup)
    latencies = [price.breakdown(size).total for size in sizes]
    return PathProfile(sizes=np.array(sizes), latencies=np.array(latencies))


def make_path(
    rep: RepresentationConfig,
    model: ModelConfig,
    device: DeviceSpec,
    accuracy: float,
    sizes: tuple[int, ...] = DEFAULT_PROFILE_SIZES,
    encoder_hit_rate: float = 0.0,
    decoder_speedup: float = 1.0,
    label: str = "",
) -> ExecutionPath:
    """Profile and wrap a mapping into an ``ExecutionPath``."""
    profile = profile_path(
        rep, model, device, sizes,
        encoder_hit_rate=encoder_hit_rate,
        decoder_speedup=decoder_speedup,
    )
    return ExecutionPath(
        rep=rep,
        device=device,
        accuracy=accuracy,
        profile=profile,
        encoder_hit_rate=encoder_hit_rate,
        decoder_speedup=decoder_speedup,
        label=label or f"{rep.kind.upper()}({device.name})",
        memory_bytes=rep.total_bytes(model),
    )
