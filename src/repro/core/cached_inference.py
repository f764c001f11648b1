"""Functional MP-Cache-fronted DHE inference (real numpy execution).

``CachedDHE`` wraps a trained :class:`DHEEmbedding` with both MP-Cache
tiers and actually serves lookups: encoder-cache hits return precomputed
vectors; misses run the encoder and then either the exact decoder MLP or
the centroid/kNN fast path. This is what the Figure 16 benchmark times for
real on the host CPU (the analytical model handles the accelerators).
"""

from __future__ import annotations

import numpy as np

from repro.core.mp_cache import DecoderCentroidCache, EncoderCache
from repro.data.zipf import ZipfSampler
from repro.embeddings.dhe import DHEEmbedding


class CachedDHE:
    """Inference-only DHE with an encoder cache and a decoder centroid cache."""

    def __init__(
        self,
        dhe: DHEEmbedding,
        encoder_cache: EncoderCache | None = None,
        decoder_cache: DecoderCentroidCache | None = None,
        feature: int = 0,
    ) -> None:
        if encoder_cache is not None and encoder_cache.policy != "static":
            # Hits are served from vectors precomputed at warm(): an LRU
            # tier would hit on IDs that were never precomputed.
            raise ValueError("CachedDHE needs a static encoder cache")
        self.dhe = dhe
        self.encoder_cache = encoder_cache
        self.decoder_cache = decoder_cache
        self.feature = feature
        # Sorted hot IDs and their exact vectors, row for row.
        self._hot_ids = np.empty(0, dtype=np.int64)
        self._hot_vectors = np.empty((0, dhe.dim))

    def warm(
        self,
        sampler: ZipfSampler,
        profile_samples: int = 4096,
    ) -> None:
        """Populate both tiers from profiled traffic.

        Encoder tier: precompute exact embeddings for the sampler's hottest
        IDs. Decoder tier: cluster the encoder outputs of a profiled sample.
        """
        if self.encoder_cache is not None:
            self.encoder_cache.fit_static([sampler])
            hot_ids = sampler.hottest(self.encoder_cache.capacity_entries)
            if hot_ids.size:
                vectors = self.dhe(hot_ids)
                order = np.argsort(hot_ids)
                self._hot_ids = hot_ids[order]
                self._hot_vectors = vectors[order]
        if self.decoder_cache is not None:
            profile_ids = sampler.sample(profile_samples)
            intermediates = self.dhe.encode(profile_ids)
            self.decoder_cache.fit(intermediates, self.dhe)

    def generate(self, ids: np.ndarray) -> np.ndarray:
        """Embedding vectors for ``ids`` through the cached fast paths."""
        ids = np.asarray(ids)
        out = np.empty((ids.size, self.dhe.dim))
        if self.encoder_cache is not None and self._hot_ids.size:
            hit_mask = self.encoder_cache.lookup(0, ids)
        else:
            hit_mask = np.zeros(ids.size, dtype=bool)
        hit_idx = np.flatnonzero(hit_mask)
        if hit_idx.size:
            rows = np.searchsorted(self._hot_ids, ids[hit_idx])
            out[hit_idx] = self._hot_vectors[rows]
        miss_idx = np.flatnonzero(~hit_mask)
        if miss_idx.size:
            miss_ids = ids[miss_idx]
            if self.decoder_cache is not None and self.decoder_cache.is_fitted:
                intermediates = self.dhe.encode(miss_ids)
                out[miss_idx] = self.decoder_cache.generate(intermediates)
            else:
                out[miss_idx] = self.dhe(miss_ids)
        return out

    def exact(self, ids: np.ndarray) -> np.ndarray:
        """Uncached reference path."""
        return self.dhe(np.asarray(ids))

    def approximation_error(self, ids: np.ndarray) -> float:
        """Mean relative L2 error of the cached path vs. the exact stack."""
        exact = self.exact(ids)
        approx = self.generate(ids)
        num = np.linalg.norm(exact - approx, axis=1)
        den = np.maximum(np.linalg.norm(exact, axis=1), 1e-12)
        return float(np.mean(num / den))
