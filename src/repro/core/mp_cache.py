"""MP-Cache: two-tier caching for compute-based embedding paths (Sec 4.3).

Tier 1, ``EncoderCache``: hot sparse IDs (power-law traffic) map straight to
precomputed final embedding vectors, skipping the entire encoder-decoder
stack. Static residency (top-N by profiled frequency) is the paper's
design; an LRU variant is included for the ablation bench.

Tier 2, ``DecoderCentroidCache``: intermediate encoder outputs that miss
tier 1 are matched to their nearest of N profiled centroids via normalized
dot products, replacing the decoder MLP with a kNN search whose outputs are
precomputed.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.clustering.kmeans import KMeans
from repro.clustering.knn import knn_flops, nearest_centroid, normalize_rows
from repro.core.representations import RepresentationConfig
from repro.data.zipf import ZipfSampler
from repro.embeddings.dhe import DHEEmbedding

ENTRY_KEY_BYTES = 8
FP32 = 4


def row_entry_bytes(embedding_dim: int) -> int:
    """Bytes one cached embedding row occupies: the vector plus its key.

    Every cache in the repo — the single-node :class:`EncoderCache` and the
    cluster tier's :class:`~repro.serving.cache.NodeCache` — sizes its
    entry budget with this one formula, so a "cache of N megabytes" means
    the same row count everywhere.
    """
    if embedding_dim < 1:
        raise ValueError("embedding_dim must be positive")
    return embedding_dim * FP32 + ENTRY_KEY_BYTES


def zipf_popularity_cdf(n_rows: int, alpha: float = 1.05) -> np.ndarray:
    """``cdf[k]`` = probability a Zipf(alpha) lookup lands in the ``k``
    hottest rows of an ``n_rows`` universe (``cdf[0] == 0``).

    This is the analytic hit curve both cache tiers price residency with:
    a cache holding the top ``k`` rows of a power-law-traffic table serves
    ``cdf[k]`` of its lookups locally.
    """
    if n_rows <= 0:
        raise ValueError("n_rows must be positive")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    ranks = np.arange(1, n_rows + 1, dtype=np.float64)
    weights = ranks**-alpha
    cdf = np.empty(n_rows + 1, dtype=np.float64)
    cdf[0] = 0.0
    np.cumsum(weights / weights.sum(), out=cdf[1:])
    cdf[-1] = 1.0
    return cdf


def zipf_static_hit_rates(
    cardinalities: Sequence[int],
    capacity_entries: Sequence[int],
    alpha: float = 1.05,
) -> list[float]:
    """Static-residency encoder-cache hit rate under Zipf(alpha) traffic,
    one rate per entry of ``capacity_entries``.

    A cache of ``c`` entries splits them evenly across the tables, as
    :meth:`EncoderCache.fit_static` does, so a table of ``n`` rows keeps
    its ``k = min(c // len(cardinalities), n)`` hottest rows. Its hit rate
    is the head mass ``sum(r**-alpha for r <= k)`` over the normaliser
    ``sum(r**-alpha for r <= n)``; the result is the mean over tables.

    Each table's weights are computed once, into one buffer sized to the
    largest table, and every capacity's head is read off that buffer, so
    pricing any number of caches costs O(total rows) arithmetic and
    O(largest table) memory. The arithmetic is the one
    :class:`~repro.data.zipf.ZipfSampler` and :meth:`EncoderCache.
    expected_hit_rate` perform, so the rates are bit-identical to fitting
    an :class:`EncoderCache` over unshuffled samplers.
    """
    if not cardinalities or min(cardinalities) <= 0:
        raise ValueError("need at least one table, every one non-empty")
    if min(capacity_entries, default=0) < 0:
        raise ValueError("capacity_entries must be non-negative")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if not capacity_entries:
        return []
    largest = max(cardinalities)
    ranks = np.arange(1, largest + 1, dtype=np.float64)
    weights = np.empty(largest, dtype=np.float64)
    heads = [c // len(cardinalities) for c in capacity_entries]
    rates: list[list[float]] = [[] for _ in heads]
    for n in cardinalities:
        table = np.power(ranks[:n], -alpha, out=weights[:n])
        total = table.sum()
        for head, per_table in zip(heads, rates):
            k = min(head, n)
            per_table.append(float((table[:k] / total).sum()) if k else 0.0)
    return [float(np.mean(per_table)) for per_table in rates]


@dataclass(frozen=True)
class CacheEffect:
    """What MP-Cache does to a DHE/hybrid path's latency model."""

    encoder_hit_rate: float
    decoder_speedup: float
    accuracy_penalty: float  # percentage points lost to centroid approximation

    def __post_init__(self) -> None:
        if not 0.0 <= self.encoder_hit_rate <= 1.0:
            raise ValueError("encoder_hit_rate must be in [0, 1]")
        if self.decoder_speedup < 1.0:
            raise ValueError("decoder_speedup must be >= 1")


class EncoderCache:
    """Hot-ID -> final-embedding cache in front of the encoder stack."""

    def __init__(
        self,
        capacity_bytes: int,
        embedding_dim: int,
        policy: str = "static",
        n_features: int | None = None,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        if policy not in ("static", "lru"):
            raise ValueError("policy must be 'static' or 'lru'")
        if n_features is not None and n_features < 1:
            raise ValueError("n_features must be positive when declared")
        self.capacity_bytes = capacity_bytes
        self.embedding_dim = embedding_dim
        self.policy = policy
        self.n_features = n_features
        self.entry_bytes = row_entry_bytes(embedding_dim)
        self.capacity_entries = capacity_bytes // self.entry_bytes
        self._resident: dict[int, set[int]] = {}
        self._lru: dict[int, OrderedDict[int, None]] = {}
        self.hits = 0
        self.misses = 0

    # ---- static residency -------------------------------------------------

    def fit_static(self, samplers: list[ZipfSampler]) -> None:
        """Populate per-feature resident sets from profiled popularity.

        Capacity is split across features proportionally to nothing fancier
        than an even share — hot heads dominate regardless of split because
        the traffic is power law.
        """
        if not samplers:
            raise ValueError("need at least one feature sampler")
        per_feature = self.capacity_entries // len(samplers)
        self._resident = {
            f: set(int(i) for i in sampler.hottest(per_feature))
            for f, sampler in enumerate(samplers)
        }

    def expected_hit_rate(self, samplers: list[ZipfSampler]) -> float:
        """Analytic hit rate under the fitted residency (uniform feature mix)."""
        if not self._resident:
            return 0.0
        rates = []
        for f, sampler in enumerate(samplers):
            resident = np.array(sorted(self._resident.get(f, ())), dtype=np.int64)
            rates.append(
                sampler.expected_hit_rate(resident) if resident.size else 0.0
            )
        return float(np.mean(rates))

    # ---- lookup -------------------------------------------------------------

    def lookup(self, feature: int, ids: np.ndarray) -> np.ndarray:
        """Boolean hit mask; updates recency/statistics."""
        ids = np.asarray(ids)
        if self.policy == "static":
            resident = self._resident.get(feature, set())
            mask = np.fromiter(
                (int(i) in resident for i in ids), dtype=bool, count=ids.size
            )
        else:
            mask = self._lru_lookup(feature, ids)
        self.hits += int(mask.sum())
        self.misses += int((~mask).sum())
        return mask

    def _lru_lookup(self, feature: int, ids: np.ndarray) -> np.ndarray:
        grew = feature not in self._lru
        if (
            grew
            and self.n_features is not None
            and len(self._lru) >= self.n_features
        ):
            # A declared count pins the per-feature quota; admitting extra
            # features would silently overcommit the byte budget.
            raise ValueError(
                f"feature {feature} exceeds the declared n_features="
                f"{self.n_features}"
            )
        cache = self._lru.setdefault(feature, OrderedDict())
        # Size per-feature shares from the *post-insert* feature count (a
        # declared count pins the split up front); sizing from the
        # pre-insert count let the first feature claim the whole capacity
        # and gave each of F features capacity // (F-1).
        per_feature = self._per_feature_entries()
        if grew and self.n_features is None:
            # A new feature shrank everyone's share: evict the coldest
            # entries of already-populated features down to the new quota,
            # not just lazily on their next miss.
            self._rebalance(per_feature)
        mask = np.zeros(ids.size, dtype=bool)
        for i, raw in enumerate(ids):
            key = int(raw)
            if key in cache:
                cache.move_to_end(key)
                mask[i] = True
            else:
                cache[key] = None
                while len(cache) > per_feature:
                    cache.popitem(last=False)
        return mask

    def _per_feature_entries(self) -> int:
        features = self.n_features if self.n_features is not None else len(self._lru)
        return max(1, self.capacity_entries // max(1, features))

    def _rebalance(self, per_feature: int) -> None:
        for cache in self._lru.values():
            while len(cache) > per_feature:
                cache.popitem(last=False)

    @property
    def observed_hit_rate(self) -> float:
        """Empirical hit rate since the last :meth:`reset_stats`."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (capacity and contents stay)."""
        self.hits = 0
        self.misses = 0


class DecoderCentroidCache:
    """Centroid/kNN replacement for the decoder MLP."""

    def __init__(self, n_centroids: int, seed: int = 0) -> None:
        if n_centroids <= 0:
            raise ValueError("n_centroids must be positive")
        self.n_centroids = n_centroids
        self.seed = seed
        self._kmeans: KMeans | None = None
        self._centroids_normed: np.ndarray | None = None
        self._decoded: np.ndarray | None = None

    def fit(self, intermediates: np.ndarray, dhe: DHEEmbedding) -> None:
        """Cluster profiled encoder outputs; precompute decoded centroids."""
        self._kmeans = KMeans(self.n_centroids, seed=self.seed).fit(intermediates)
        centroids = self._kmeans.centroids
        self._centroids_normed = normalize_rows(centroids)
        self._decoded = dhe.decode(centroids)

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has built the centroid table."""
        return self._decoded is not None

    def generate(self, intermediates: np.ndarray) -> np.ndarray:
        """Approximate decoder output: nearest centroid's precomputed vector."""
        if not self.is_fitted:
            raise RuntimeError("fit() the decoder cache before generating")
        # A query's norm scales all of its cosine scores alike, so only
        # the centroids need normalizing to find the nearest one.
        idx = nearest_centroid(
            intermediates, self._centroids_normed, assume_normalized=True,
        )
        return self._decoded[idx]

    def approximation_error(
        self, intermediates: np.ndarray, dhe: DHEEmbedding
    ) -> float:
        """Mean relative L2 error of cached vs. exact decoder outputs."""
        exact = dhe.decode(intermediates)
        approx = self.generate(intermediates)
        num = np.linalg.norm(exact - approx, axis=1)
        den = np.maximum(np.linalg.norm(exact, axis=1), 1e-12)
        return float(np.mean(num / den))

    def speedup(self, rep: RepresentationConfig) -> float:
        """Decoder-MLP FLOPs divided by kNN FLOPs (>= 1)."""
        decoder = rep.decoder_flops_per_lookup()
        knn = knn_flops(1, rep.k, self.n_centroids)
        return max(1.0, decoder / max(knn, 1))


class MPCache:
    """The combined two-tier cache and its effect on a path's latency model."""

    def __init__(
        self,
        encoder: EncoderCache,
        decoder: DecoderCentroidCache | None = None,
    ) -> None:
        self.encoder = encoder
        self.decoder = decoder

    def effect(
        self,
        rep: RepresentationConfig,
        samplers: list[ZipfSampler],
        approximation_error: float = 0.0,
    ) -> CacheEffect:
        """The analytic serving effect of both tiers on one
        representation: encoder hit rate under the traffic model, decoder
        speedup, and the centroid approximation's accuracy penalty."""
        hit_rate = self.encoder.expected_hit_rate(samplers)
        speedup = self.decoder.speedup(rep) if self.decoder else 1.0
        # Centroid approximation costs a sliver of accuracy, shrinking with
        # more centroids; calibrated to stay < 0.01% at N >= 256.
        penalty = 0.02 * approximation_error
        return CacheEffect(
            encoder_hit_rate=hit_rate,
            decoder_speedup=speedup,
            accuracy_penalty=penalty,
        )
