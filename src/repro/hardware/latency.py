"""Roofline operator-latency model (Figures 5, 7, 10-17 substrate).

:class:`PriceModel` is the roofline. It decomposes one query's execution
into the paper's operator classes — host serving overhead, input
transfer, bottom MLP, embedding gather, DHE encoder hashing, DHE decoder
MLP, feature interaction, top MLP, kernel launch, and (for sharded
placements) interconnect communication — each timed by
``max(compute-bound, memory-bound)`` with device-calibrated efficiencies.
One model prices one (representation, model, device, cache effect) path:
its constructor folds every term that does not depend on the batch size
(per-sample bytes and FLOPs, weight-streaming floors, table placement,
the chip or replica slice, every roofline denominator), so pricing a size
only scales per-sample terms. That per-size arithmetic is written once and
prices either one batch size or a column of them in one numpy pass,
bit-equal per element. ``estimate_breakdown`` is the one-shot form.

Multi-chip platforms follow the semantics documented on ``DeviceSpec``:
``data`` splits the query's batch, ``replicated``/``pipeline`` serve the
whole query on one replica (concurrency handled by the serving simulator),
``sharded`` spreads the embedding work and pays all-to-all communication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.hardware.device import DeviceSpec
from repro.hardware.energy import average_power, scalar_where
from repro.models.configs import ModelConfig
from repro.models.interactions import DotInteraction

if TYPE_CHECKING:  # annotations only: core imports this module
    from repro.core.representations import RepresentationConfig

FP32 = 4
ID_BYTES = 8

# TPUEmbedding pipelines lookups behind TensorCore compute (paper O1): only
# this fraction of gather time is exposed.
_TPU_EMBEDDING_EXPOSED = 0.30

# Below this many samples per chip, dense GEMMs underfill the device and
# run at the small-GEMM derating.
_SMALL_GEMM_BATCH = 64


def _to_int64(values: np.ndarray) -> np.ndarray:
    """``int()`` truncation, elementwise."""
    return values.astype(np.int64)


@dataclass
class OperatorBreakdown:
    """Per-operator seconds for one query on one device; from
    :meth:`PriceModel.breakdown_many`, a component may be an array over
    many batch sizes instead."""

    host: float = 0.0
    transfer: float = 0.0
    bottom_mlp: float = 0.0
    embedding: float = 0.0
    encoder: float = 0.0
    decoder: float = 0.0
    interaction: float = 0.0
    top_mlp: float = 0.0
    launch: float = 0.0
    comm: float = 0.0

    @property
    def total(self) -> float:
        """End-to-end seconds: every component, summed in field order."""
        return (
            self.host + self.transfer + self.bottom_mlp + self.embedding
            + self.encoder + self.decoder + self.interaction + self.top_mlp
            + self.launch + self.comm
        )

    @property
    def embedding_access(self) -> float:
        """Everything attributable to producing embedding vectors."""
        return self.embedding + self.encoder + self.decoder

    @property
    def dense_compute(self) -> float:
        """The dense operators: both MLPs and the feature interaction."""
        return self.bottom_mlp + self.interaction + self.top_mlp

    @property
    def overheads(self) -> float:
        """Fixed per-query costs: host serving, input transfer, launch."""
        return self.host + self.transfer + self.launch

    def as_dict(self) -> dict[str, float]:
        """Every component by field name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def scaled(self, factor: float) -> "OperatorBreakdown":
        """Every component multiplied by ``factor``."""
        return OperatorBreakdown(
            **{f.name: getattr(self, f.name) * factor for f in fields(self)}
        )


class PriceModel:
    """One path's roofline price, for any batch size.

    ``encoder_hit_rate`` is the MP-Cache(encoder) hit fraction: hits skip
    the entire encoder-decoder stack (served as a table-like lookup
    instead). ``decoder_speedup`` is the MP-Cache(decoder) factor applied to
    the decoder stack (kNN against centroids instead of the full MLP).

    Every term that does not depend on the batch size is computed here,
    once. The rest is one body that prices one batch size
    (:meth:`breakdown`, :meth:`power`: the kernel prices each dispatch so)
    or an array of them (:meth:`breakdown_many`, :meth:`power_many`: the
    fast path's energy and the profile anchors), bit-equal per element.
    Nothing is kept between calls.
    """

    def __init__(
        self,
        rep: RepresentationConfig,
        model: ModelConfig,
        device: DeviceSpec,
        encoder_hit_rate: float = 0.0,
        decoder_speedup: float = 1.0,
    ) -> None:
        if not 0.0 <= encoder_hit_rate <= 1.0:
            raise ValueError("encoder_hit_rate must be in [0, 1]")
        # Written so that NaN fails too.
        if not decoder_speedup >= 1.0:
            raise ValueError("decoder_speedup must be >= 1 (it divides decoder time)")
        self.rep = rep
        self.model = model
        self.device = device
        self.encoder_hit_rate = encoder_hit_rate
        self.decoder_speedup = decoder_speedup

        # The spec every operator runs on. ``data`` and ``sharded`` give each
        # chip a slice of the batch; ``replicated`` and ``pipeline`` serve
        # the whole batch on one replica.
        mode = device.parallelism
        self._splits = device.n_chips if mode in ("data", "sharded") else 1
        if mode in ("replicated", "pipeline"):
            chip = _replica_spec(device)
        elif mode in ("data", "sharded"):
            chip = _single_chip(device)
        else:
            chip = device
        self._chip = chip

        # Host -> device input transfer (dense floats + sparse IDs).
        self._input_bytes = model.n_dense * FP32 + model.n_sparse * ID_BYTES
        self._transfer_bw = chip.host_transfer_bw

        # Dense GEMM rates: full, and derated for small (or decoder) GEMMs.
        self._gemm_rate = chip.peak_flops * chip.mlp_efficiency
        self._small_gemm_rate = chip.peak_flops * (
            chip.mlp_efficiency * chip.small_gemm_factor
        )
        self._bottom_flops, self._bottom_weight_s = _mlp_terms(
            chip, [model.n_dense, *model.bottom_mlp, rep.embedding_dim]
        )
        self._top_flops, self._top_weight_s = _mlp_terms(chip, [
            DotInteraction.output_dim(rep.embedding_dim, model.n_sparse),
            *model.top_mlp,
            1,
        ])
        self._interaction_flops = DotInteraction.flops(
            1, rep.embedding_dim, model.n_sparse
        )
        self._interaction_rate = (
            chip.peak_flops * chip.mlp_efficiency * chip.small_gemm_factor
        )

        # Embedding table access.
        self._table = None
        if rep.uses_tables:
            if rep.kind == "hybrid":
                row_dim, lookups = rep.table_dim, model.n_sparse
            elif rep.kind == "select":
                row_dim = rep.embedding_dim
                lookups = model.n_sparse - rep.n_dhe_features
            else:
                row_dim, lookups = rep.embedding_dim, model.n_sparse
            self._table_lookups = lookups
            self._table = _Gather(
                chip, row_dim * FP32, rep.table_only_bytes(model)
            )

        # DHE stack (encoder + decoder) over the features that generate.
        self._dhe_lookups = 0
        if rep.uses_dhe:
            self._dhe_lookups = (
                rep.n_dhe_features if rep.kind == "select" else model.n_sparse
            )
            self._miss = 1.0 - encoder_hit_rate
            # Cache hits are served as one extra row gather each.
            self._hits = _Gather(chip, rep.embedding_dim * FP32, 0)
            # Encoder: hashing through k hash functions is elementwise (poor
            # MXU/AVX mapping), and the [lookups, k] activations stream
            # through whichever memory level holds them.
            self._k = rep.k
            self._encoder_flops = 4.0 * rep.k
            self._encoder_rate = chip.peak_flops * chip.elementwise_efficiency
            self._decoder_flops = rep.decoder_flops_per_lookup()
            self._decoder_weight_s = _weight_s(
                chip, rep.decoder_bytes() * model.n_sparse
            )

        # Sharded: embedding vectors cross the interconnect (all-to-all) to
        # reach their consumers; the batch-sliced estimate already divides
        # the gather/decode work by shard.
        self._comm_bytes = 0
        if (
            mode == "sharded" and device.interconnect_bw > 0
            and device.n_chips > 1
        ):
            self._comm_bytes = (
                model.n_sparse * rep.embedding_dim * FP32 * (device.n_chips - 1)
            )

    def breakdown(self, batch_size: int) -> OperatorBreakdown:
        """Per-operator seconds for one query of ``batch_size`` samples."""
        # Written so that NaN fails too.
        if not 0 < batch_size < math.inf:
            raise ValueError(
                f"batch_size must be positive and finite, got {batch_size!r}"
            )
        return self._breakdown(batch_size, max, scalar_where, int)

    def _breakdown(self, batch_size, maximum, select, trunc) -> OperatorBreakdown:
        """The roofline's per-size arithmetic, written once for both forms.

        ``batch_size`` is one size or an array of them. ``maximum``,
        ``select`` and ``trunc`` are ``max``,
        :func:`~repro.hardware.energy.scalar_where` and ``int`` for one,
        and ``np.maximum``, ``np.where`` and an int64 cast for an array.
        Every term is an IEEE +, -, x, / or comparison that numpy rounds
        as Python does, so each element equals the scalar call bit for
        bit. Branches on the model alone are plain ``if`` statements;
        only the small-GEMM step and the activations' memory level
        depend on the size.
        """
        n = -(-batch_size // self._splits)  # one chip's slice
        gemm_rate = select(
            n < _SMALL_GEMM_BATCH, self._small_gemm_rate, self._gemm_rate
        )
        transfer = 0.0
        if self._transfer_bw > 0:
            transfer = n * self._input_bytes / self._transfer_bw
        embedding = 0.0
        if self._table is not None:
            embedding = self._table.time(n * self._table_lookups, maximum)
        encoder = decoder = 0.0
        if self._dhe_lookups:
            # There is at least one lookup, so some hit exactly when the
            # hit rate is positive and some miss exactly when it is below 1.
            lookups = n * self._dhe_lookups
            if self.encoder_hit_rate > 0:
                hits = trunc(lookups * self.encoder_hit_rate)
                embedding += self._hits.time(hits, maximum)
            if self.encoder_hit_rate < 1:
                chip = self._chip
                missed = lookups * self._miss
                act_bytes = missed * self._k * FP32
                act_bw = select(
                    act_bytes <= chip.sram_capacity,
                    chip.sram_bandwidth, chip.dram_bandwidth,
                )
                encoder = maximum(
                    self._encoder_flops * missed / self._encoder_rate,
                    act_bytes / act_bw,
                )
                decode_flops = self._decoder_flops * lookups * self._miss
                decoder = maximum(
                    decode_flops / self._small_gemm_rate, self._decoder_weight_s
                ) / self.decoder_speedup
        comm = 0.0
        if self._comm_bytes:
            comm = (
                batch_size * self._comm_bytes / self.device.n_chips
                / self.device.interconnect_bw
            )
        return OperatorBreakdown(
            host=self.device.query_overhead_s,
            transfer=transfer,
            bottom_mlp=maximum(
                n * self._bottom_flops / gemm_rate, self._bottom_weight_s
            ),
            embedding=embedding,
            encoder=encoder,
            decoder=decoder,
            interaction=n * self._interaction_flops / self._interaction_rate,
            top_mlp=maximum(n * self._top_flops / gemm_rate, self._top_weight_s),
            launch=self.device.launch_overhead_s,
            comm=comm,
        )

    def power(self, batch_size: int) -> float:
        """Average Watts while serving one query of ``batch_size``
        samples: :func:`~repro.hardware.energy.average_power` (paper O3)
        over :meth:`breakdown`."""
        return average_power(self.device, self.breakdown(batch_size))

    def breakdown_many(self, batch_sizes) -> OperatorBreakdown:
        """:meth:`breakdown` for a column of batch sizes, in one pass.

        Each component that depends on the size is an array over
        ``batch_sizes``, bit-equal per element to the scalar call; one
        that does not (``host``, ``launch``, and any the path never runs)
        stays a scalar, and ``total`` broadcasts them in field order.
        """
        sizes = np.asarray(batch_sizes)
        if not ((0 < sizes) & (sizes < np.inf)).all():
            raise ValueError("batch sizes must be positive and finite")
        return self._breakdown(sizes, np.maximum, np.where, _to_int64)

    def power_many(self, batch_sizes) -> np.ndarray:
        """:meth:`power` for a column of batch sizes: the same
        :func:`~repro.hardware.energy.average_power` over
        :meth:`breakdown_many`, bit-equal per element to the scalar
        calls."""
        return average_power(
            self.device, self.breakdown_many(batch_sizes), np.minimum, np.where
        )


def estimate_breakdown(
    rep: RepresentationConfig,
    model: ModelConfig,
    device: DeviceSpec,
    batch_size: int,
    encoder_hit_rate: float = 0.0,
    decoder_speedup: float = 1.0,
) -> OperatorBreakdown:
    """Latency breakdown for one query of ``batch_size`` samples.

    A one-shot :class:`PriceModel`; build the model once to price many
    sizes of the same path.
    """
    return PriceModel(
        rep, model, device, encoder_hit_rate, decoder_speedup
    ).breakdown(batch_size)


def path_latency(
    rep: RepresentationConfig,
    model: ModelConfig,
    device: DeviceSpec,
    batch_size: int,
    encoder_hit_rate: float = 0.0,
    decoder_speedup: float = 1.0,
) -> float:
    """Convenience wrapper returning just the total seconds."""
    return estimate_breakdown(
        rep, model, device, batch_size, encoder_hit_rate, decoder_speedup
    ).total


# ---------------------------------------------------------------------------
# multi-chip spec slicing


def _single_chip(device: DeviceSpec) -> DeviceSpec:
    """One chip's slice of a multi-chip spec (aggregates divided)."""
    chips = max(1, device.n_chips)
    if chips == 1:
        return device
    return replace(
        device,
        peak_flops=device.peak_flops / chips,
        dram_bandwidth=device.dram_bandwidth / chips,
        dram_capacity=device.dram_capacity // chips,
        sram_capacity=device.sram_capacity // chips,
        sram_bandwidth=device.sram_bandwidth / chips,
        n_chips=1,
        replicas=1,
        parallelism="single",
    )


def _replica_spec(device: DeviceSpec) -> DeviceSpec:
    """One replica's resources.

    ``replicated``: a replica is one chip. ``pipeline``: a replica is
    ``n_chips / replicas`` chips whose SRAM aggregates but whose stages run
    sequentially per microbatch (compute at one chip's rate).
    """
    chips = max(1, device.n_chips)
    if device.parallelism == "replicated":
        return _single_chip(device)
    # Pipeline: each replica is a pipeline of n_chips/replicas chips whose
    # SRAM aggregates (the model stages across them); compute runs at one
    # chip's rate per microbatch stage.
    replicas = max(1, device.replicas)
    chips_per_replica = max(1, chips // replicas)
    return replace(
        device,
        peak_flops=device.peak_flops / chips,  # stage-sequential traversal
        dram_bandwidth=device.dram_bandwidth / replicas,
        dram_capacity=device.dram_capacity // replicas,
        sram_capacity=device.sram_per_chip * chips_per_replica,
        sram_bandwidth=device.sram_bandwidth / chips,
        n_chips=1,
        replicas=1,
        parallelism="single",
    )


# ---------------------------------------------------------------------------
# size-independent operator terms


def _weight_s(device: DeviceSpec, weight_bytes: int) -> float:
    """Weight-streaming floor of a dense matmul: its weights through
    whichever memory level holds them."""
    bandwidth = (
        device.sram_bandwidth
        if weight_bytes <= device.sram_capacity
        else device.dram_bandwidth
    )
    return weight_bytes / bandwidth


def _mlp_terms(device: DeviceSpec, sizes: list[int]) -> tuple[int, float]:
    """An MLP's FLOPs per sample and its weight-streaming floor."""
    layers = list(zip(sizes, sizes[1:]))
    flops = sum(2 * fan_in * fan_out for fan_in, fan_out in layers)
    weight_bytes = sum(
        (fan_in * fan_out + fan_out) * FP32 for fan_in, fan_out in layers
    )
    return flops, _weight_s(device, weight_bytes)


class _Gather:
    """Random-row gathers from one table placement: bandwidth roofline vs.
    access-latency floor, with the placement's gather rate folded once."""

    def __init__(
        self, device: DeviceSpec, row_bytes: int, table_bytes: int
    ) -> None:
        self.row_bytes = row_bytes
        self.rate = device.dram_bandwidth * device.gather_efficiency
        self.latency_s = device.lookup_latency_s
        self.exposed = (
            _TPU_EMBEDDING_EXPOSED if device.embedding_pipelining else 1.0
        )
        if device.kind == "ipu":
            # Bandwidth-bound either way: no latency floor, no pipelining.
            self.latency_s, self.exposed = 0.0, 1.0
            if device.fits_in_sram(table_bytes):
                # Whole table in scratchpad SRAM (paper O2 fast path).
                self.rate = device.sram_bandwidth * device.gather_efficiency
            else:
                # Spilled to Streaming Memory: random access over a thin link.
                self.rate = (
                    device.dram_bandwidth * device.spill_gather_efficiency
                )

    def time(self, n_lookups, maximum=max):
        """Seconds to gather ``n_lookups`` rows (one count, or an array of
        them with ``np.maximum``); zero rows take exactly 0.0 s."""
        bandwidth_s = n_lookups * self.row_bytes / self.rate
        return maximum(bandwidth_s, n_lookups * self.latency_s) * self.exposed
