import numpy as np
import pytest

from repro.core.mp_cache import (
    CacheEffect,
    DecoderCentroidCache,
    EncoderCache,
    MPCache,
    row_entry_bytes,
    zipf_static_hit_rates,
)
from repro.core.representations import RepresentationConfig
from repro.data.zipf import ZipfSampler
from repro.embeddings.dhe import DHEEmbedding
from repro.models.configs import KAGGLE, KAGGLE_MINI, TERABYTE


@pytest.fixture
def samplers():
    return [ZipfSampler(10_000, alpha=1.1, seed=f) for f in range(4)]


class TestEncoderCacheStatic:
    def test_capacity_entries(self):
        cache = EncoderCache(capacity_bytes=2048, embedding_dim=16)
        assert cache.capacity_entries == 2048 // (16 * 4 + 8)

    def test_hit_rate_increases_with_capacity(self, samplers):
        rates = []
        for capacity in (2 * 1024, 64 * 1024, 2 * 1024 * 1024):
            cache = EncoderCache(capacity, embedding_dim=16)
            cache.fit_static(samplers)
            rates.append(cache.expected_hit_rate(samplers))
        assert rates[0] < rates[1] < rates[2]

    def test_expected_matches_observed(self, samplers):
        cache = EncoderCache(32 * 1024, embedding_dim=16)
        cache.fit_static(samplers)
        expected = cache.expected_hit_rate(samplers)
        hits = total = 0
        for f, sampler in enumerate(samplers):
            ids = sampler.sample(20_000)
            mask = cache.lookup(f, ids)
            hits += mask.sum()
            total += mask.size
        assert abs(hits / total - expected) < 0.02

    def test_lookup_hits_only_residents(self, samplers):
        cache = EncoderCache(32 * 1024, embedding_dim=16)
        cache.fit_static(samplers)
        hot = samplers[0].hottest(5)
        assert cache.lookup(0, hot).all()

    def test_unfitted_hit_rate_zero(self, samplers):
        cache = EncoderCache(1024, embedding_dim=16)
        assert cache.expected_hit_rate(samplers) == 0.0

    def test_stats_accumulate_and_reset(self, samplers):
        cache = EncoderCache(32 * 1024, embedding_dim=16)
        cache.fit_static(samplers)
        cache.lookup(0, samplers[0].sample(100))
        assert cache.hits + cache.misses == 100
        assert 0 <= cache.observed_hit_rate <= 1
        cache.reset_stats()
        assert cache.hits == 0 and cache.misses == 0

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            EncoderCache(1024, 16, policy="fifo")

    def test_fit_requires_samplers(self):
        with pytest.raises(ValueError):
            EncoderCache(1024, 16).fit_static([])


class TestEncoderCacheLRU:
    def test_repeated_ids_hit(self):
        cache = EncoderCache(64 * 1024, embedding_dim=16, policy="lru")
        ids = np.array([1, 2, 3])
        first = cache.lookup(0, ids)
        second = cache.lookup(0, ids)
        assert not first.any()
        assert second.all()

    def test_eviction_under_pressure(self):
        cache = EncoderCache(10 * (16 * 4 + 8), embedding_dim=16, policy="lru")
        cache.lookup(0, np.arange(10))
        cache.lookup(0, np.arange(100, 120))  # evicts the first ten
        assert not cache.lookup(0, np.arange(10)).any()

    def test_recency_protects_hot_id(self):
        cache = EncoderCache(3 * (16 * 4 + 8), embedding_dim=16, policy="lru")
        cache.lookup(0, np.array([1]))
        cache.lookup(0, np.array([2, 1, 3, 1]))  # 1 stays recent
        assert cache.lookup(0, np.array([1]))[0]

    def entry(self, n):
        return n * (16 * 4 + 8)

    def test_first_feature_cannot_claim_whole_capacity(self):
        """Regression: per-feature quota was computed from the pre-insert
        feature count, so feature 0 kept ``capacity`` entries and with F
        features each later one got capacity // (F - 1)."""
        cache = EncoderCache(self.entry(10), embedding_dim=16, policy="lru")
        cache.lookup(0, np.arange(10))  # fills feature 0 to the brim
        cache.lookup(1, np.arange(100, 105))
        # Two features now share the capacity: 5 entries each.
        assert len(cache._lru[0]) <= 5
        assert len(cache._lru[1]) <= 5

    def test_rebalance_evicts_coldest_entries(self):
        cache = EncoderCache(self.entry(10), embedding_dim=16, policy="lru")
        cache.lookup(0, np.arange(10))
        cache.lookup(1, np.array([100]))
        # Feature 0 kept its five *most recent* entries (5..9).
        assert set(cache._lru[0]) == {5, 6, 7, 8, 9}

    def test_total_occupancy_never_exceeds_capacity(self):
        cache = EncoderCache(self.entry(12), embedding_dim=16, policy="lru")
        rng = np.random.default_rng(0)
        for feature in (0, 1, 2, 0, 1, 2):
            cache.lookup(feature, rng.integers(0, 1000, size=20))
            total = sum(len(c) for c in cache._lru.values())
            assert total <= cache.capacity_entries

    def test_declared_feature_count_pins_quota_up_front(self):
        cache = EncoderCache(
            self.entry(10), embedding_dim=16, policy="lru", n_features=2
        )
        cache.lookup(0, np.arange(10))
        # Feature 0 never overfills even before feature 1 shows up.
        assert len(cache._lru[0]) == 5

    def test_declared_feature_count_validated(self):
        with pytest.raises(ValueError):
            EncoderCache(1024, 16, policy="lru", n_features=0)

    def test_extra_features_beyond_declared_rejected(self):
        """Admitting undeclared features would overcommit the byte budget
        (each would still claim capacity // n_features entries)."""
        cache = EncoderCache(
            self.entry(10), embedding_dim=16, policy="lru", n_features=2
        )
        cache.lookup(0, np.arange(3))
        cache.lookup(1, np.arange(3))
        with pytest.raises(ValueError):
            cache.lookup(2, np.arange(3))

    def test_steady_state_hit_rate_balanced_across_features(self):
        """With the quota fix, identically-distributed features see
        comparable hit rates instead of feature 0 dominating."""
        cache = EncoderCache(self.entry(200), embedding_dim=16, policy="lru")
        samplers = [ZipfSampler(5000, alpha=1.2, seed=f) for f in range(4)]
        rates = []
        for _ in range(3):  # warm, then measure per-feature
            for f, sampler in enumerate(samplers):
                cache.lookup(f, sampler.sample(2000))
        for f, sampler in enumerate(samplers):
            cache.reset_stats()
            cache.lookup(f, sampler.sample(2000))
            rates.append(cache.observed_hit_rate)
        assert max(rates) - min(rates) < 0.15


class TestDecoderCentroidCache:
    def make(self, rng, n_centroids=8):
        dhe = DHEEmbedding(dim=4, k=16, dnn=16, h=1, rng=rng)
        cache = DecoderCentroidCache(n_centroids, seed=0)
        sampler = ZipfSampler(1000, seed=0)
        intermediates = dhe.encode(sampler.sample(500))
        cache.fit(intermediates, dhe)
        return dhe, cache, sampler

    def test_generate_shape(self, rng):
        dhe, cache, sampler = self.make(rng)
        out = cache.generate(dhe.encode(sampler.sample(32)))
        assert out.shape == (32, 4)

    def test_outputs_are_decoded_centroids(self, rng):
        dhe, cache, sampler = self.make(rng)
        out = cache.generate(dhe.encode(sampler.sample(64)))
        assert len(np.unique(out, axis=0)) <= 8

    def test_error_decreases_with_centroids(self, rng):
        dhe = DHEEmbedding(dim=4, k=16, dnn=16, h=1, rng=rng)
        sampler = ZipfSampler(1000, seed=0)
        intermediates = dhe.encode(sampler.sample(800))
        probe = dhe.encode(sampler.sample(200))
        errors = []
        for n in (2, 32, 256):
            cache = DecoderCentroidCache(n, seed=0)
            cache.fit(intermediates, dhe)
            errors.append(cache.approximation_error(probe, dhe))
        assert errors[0] > errors[-1]

    def test_speedup_formula(self):
        rep = RepresentationConfig("dhe", 16, k=2048, dnn=480, h=2)
        cache = DecoderCentroidCache(256)
        expected = rep.decoder_flops_per_lookup() / (2 * 2048 * 256)
        np.testing.assert_allclose(cache.speedup(rep), expected)

    def test_speedup_clamped_at_one(self):
        rep = RepresentationConfig("dhe", 16, k=8, dnn=8, h=1)
        cache = DecoderCentroidCache(10_000)
        assert cache.speedup(rep) == 1.0

    def test_generate_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecoderCentroidCache(4).generate(np.zeros((2, 8)))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            DecoderCentroidCache(0)


class TestCacheEffectAndMPCache:
    def test_effect_validation(self):
        with pytest.raises(ValueError):
            CacheEffect(encoder_hit_rate=1.5, decoder_speedup=2.0, accuracy_penalty=0)
        with pytest.raises(ValueError):
            CacheEffect(encoder_hit_rate=0.5, decoder_speedup=0.5, accuracy_penalty=0)

    def test_mp_cache_combines_tiers(self, samplers, rng):
        encoder = EncoderCache(64 * 1024, embedding_dim=16)
        encoder.fit_static(samplers)
        decoder = DecoderCentroidCache(64)
        mp = MPCache(encoder, decoder)
        rep = RepresentationConfig("dhe", 16, k=1024, dnn=256, h=2)
        effect = mp.effect(rep, samplers, approximation_error=0.05)
        assert 0 < effect.encoder_hit_rate < 1
        assert effect.decoder_speedup > 1
        assert effect.accuracy_penalty > 0

    def test_mp_cache_encoder_only(self, samplers):
        encoder = EncoderCache(64 * 1024, embedding_dim=16)
        encoder.fit_static(samplers)
        effect = MPCache(encoder, None).effect(
            RepresentationConfig("dhe", 16, k=64, dnn=32, h=1), samplers
        )
        assert effect.decoder_speedup == 1.0


class _SamplersOneAtATime:
    """A model's per-table samplers, built on each pass and dropped after
    use, so the reference holds one table's arrays at a time (KAGGLE's
    full set is ~540 MB)."""

    def __init__(self, cardinalities, alpha):
        self.cardinalities = cardinalities
        self.alpha = alpha

    def __len__(self):
        return len(self.cardinalities)

    def __iter__(self):
        for f, rows in enumerate(self.cardinalities):
            yield ZipfSampler(rows, alpha=self.alpha, seed=f)


def sampler_hit_rate(cardinalities, capacity_bytes, dim, alpha):
    """The reference: fit a static EncoderCache over Zipf samplers."""
    samplers = _SamplersOneAtATime(cardinalities, alpha)
    cache = EncoderCache(capacity_bytes, dim)
    cache.fit_static(samplers)
    return cache.expected_hit_rate(samplers)


class TestZipfStaticHitRates:
    """The analytic hit rate is bit-identical to the sampler reference."""

    @pytest.mark.parametrize("alpha", [1.05, 1.25])
    @pytest.mark.parametrize("dim", [16, 24, 64])
    def test_equals_sampler_reference_on_mini(self, dim, alpha):
        # 100 B holds 0 entries per table; 64 MB holds every small table.
        capacities = [100, 2 * 1024, 2 << 20, 64 << 20]
        got = zipf_static_hit_rates(
            KAGGLE_MINI.cardinalities,
            [c // row_entry_bytes(dim) for c in capacities], alpha,
        )
        assert got == [
            sampler_hit_rate(KAGGLE_MINI.cardinalities, c, dim, alpha)
            for c in capacities
        ]

    def test_equals_sampler_reference_at_full_scale(self):
        # KAGGLE's two DHE-bearing dims at the default 2 MB, then TERABYTE.
        got = zipf_static_hit_rates(
            KAGGLE.cardinalities,
            [(2 << 20) // row_entry_bytes(d) for d in (16, 24)],
        )
        assert got == [
            sampler_hit_rate(KAGGLE.cardinalities, 2 << 20, d, 1.05)
            for d in (16, 24)
        ]
        assert zipf_static_hit_rates(
            TERABYTE.cardinalities, [(2 << 20) // row_entry_bytes(64)]
        ) == [sampler_hit_rate(TERABYTE.cardinalities, 2 << 20, 64, 1.05)]

    def test_bounds(self):
        cards = [10, 1000]
        empty, full = zipf_static_hit_rates(cards, [0, 2 * 1000])
        assert empty == 0.0
        assert full == pytest.approx(1.0)
        assert zipf_static_hit_rates(cards, []) == []

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            zipf_static_hit_rates([], [10])
        with pytest.raises(ValueError):
            zipf_static_hit_rates([10, 0], [10])
        with pytest.raises(ValueError):
            zipf_static_hit_rates([10], [-1])
        with pytest.raises(ValueError):
            zipf_static_hit_rates([10], [10], alpha=-0.5)
