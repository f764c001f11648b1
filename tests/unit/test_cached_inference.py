import numpy as np
import pytest

from repro.core.cached_inference import CachedDHE
from repro.core.mp_cache import DecoderCentroidCache, EncoderCache
from repro.data.zipf import ZipfSampler
from repro.embeddings.dhe import DHEEmbedding


@pytest.fixture
def dhe(rng):
    return DHEEmbedding(dim=8, k=32, dnn=32, h=1, rng=rng)


@pytest.fixture
def sampler():
    return ZipfSampler(5000, alpha=1.2, seed=3)


class TestCachedDHE:
    def test_uncached_matches_exact(self, dhe, sampler):
        cached = CachedDHE(dhe)
        ids = sampler.sample(64)
        np.testing.assert_allclose(cached.generate(ids), cached.exact(ids))

    def test_encoder_hits_are_exact(self, dhe, sampler):
        cached = CachedDHE(dhe, encoder_cache=EncoderCache(64 * 1024, 8))
        cached.warm(sampler)
        hot = sampler.hottest(10)
        np.testing.assert_allclose(cached.generate(hot), dhe(hot))

    def test_decoder_tier_approximates(self, dhe, sampler):
        cached = CachedDHE(dhe, decoder_cache=DecoderCentroidCache(128, seed=0))
        cached.warm(sampler, profile_samples=1000)
        ids = sampler.sample(200)
        err = cached.approximation_error(ids)
        assert 0 <= err < 1.0

    def test_more_centroids_lower_error(self, dhe, sampler):
        errs = []
        for n in (4, 256):
            cached = CachedDHE(dhe, decoder_cache=DecoderCentroidCache(n, seed=0))
            cached.warm(sampler, profile_samples=1000)
            errs.append(cached.approximation_error(sampler.sample(500)))
        assert errs[1] < errs[0]

    def test_both_tiers_together(self, dhe, sampler):
        cached = CachedDHE(
            dhe,
            encoder_cache=EncoderCache(16 * 1024, 8),
            decoder_cache=DecoderCentroidCache(64, seed=0),
        )
        cached.warm(sampler, profile_samples=1000)
        ids = sampler.sample(300)
        out = cached.generate(ids)
        assert out.shape == (300, 8)
        assert cached.encoder_cache.observed_hit_rate > 0.1

    def test_rejects_lru_encoder_cache(self, dhe):
        # Hits are served from vectors precomputed at warm(); an LRU tier
        # would hit on IDs that were never precomputed.
        with pytest.raises(ValueError, match="static"):
            CachedDHE(dhe, encoder_cache=EncoderCache(64 * 1024, 8, policy="lru"))

    def test_output_shape_for_empty_misses(self, dhe, sampler):
        """All-hit batches must not call the decoder path."""
        cached = CachedDHE(dhe, encoder_cache=EncoderCache(64 * 1024, 8))
        cached.warm(sampler)
        hot = sampler.hottest(5)
        assert cached.generate(hot).shape == (5, 8)
