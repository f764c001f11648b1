import numpy as np
import pytest

from repro.core.paths import ExecutionPath, PathProfile
from repro.core.profiler import make_path, profile_path
from repro.core.representations import RepresentationConfig, paper_configs
from repro.hardware.catalog import CPU_BROADWELL, GPU_V100
from repro.hardware.latency import path_latency
from repro.models.configs import KAGGLE


class TestPathProfile:
    def test_interpolates_between_points(self):
        profile = PathProfile(sizes=np.array([1, 100]), latencies=np.array([1e-3, 1e-1]))
        mid = profile.latency(10)
        assert 1e-3 < mid < 1e-1

    def test_exact_at_knots(self):
        profile = PathProfile(sizes=np.array([1, 10, 100]), latencies=np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(profile.latency(10), 2.0)

    def test_clamps_beyond_range(self):
        profile = PathProfile(sizes=np.array([10, 100]), latencies=np.array([1.0, 2.0]))
        assert profile.latency(1000) == 2.0
        assert profile.latency(1) == 1.0

    def test_throughput(self):
        profile = PathProfile(sizes=np.array([1, 100]), latencies=np.array([0.01, 0.01]))
        np.testing.assert_allclose(profile.throughput(100), 10_000)

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ValueError):
            PathProfile(sizes=np.array([10, 5]), latencies=np.array([1.0, 2.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PathProfile(sizes=np.array([1, 2]), latencies=np.array([1.0]))

    def test_rejects_nonpositive_query(self):
        profile = PathProfile(sizes=np.array([1, 2]), latencies=np.array([1.0, 2.0]))
        for bad in (0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                profile.latency(bad)
            with pytest.raises(ValueError):
                profile.latency_many([1.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_degenerate_latencies(self, bad):
        with pytest.raises(ValueError, match="latencies"):
            PathProfile(sizes=np.array([1, 2]), latencies=np.array([bad, 2.0]))

    @pytest.mark.parametrize(
        "sizes", [[np.nan, 2.0], [1.0, np.inf], [0.0, 2.0], [-1.0, 2.0]]
    )
    def test_rejects_degenerate_sizes(self, sizes):
        with pytest.raises(ValueError, match="finite and positive"):
            PathProfile(sizes=np.array(sizes), latencies=np.array([1.0, 2.0]))


class TestProfilePath:
    def test_matches_direct_estimates(self):
        rep = paper_configs(KAGGLE)["table"]
        profile = profile_path(rep, KAGGLE, CPU_BROADWELL, sizes=(16, 256))
        direct = path_latency(rep, KAGGLE, CPU_BROADWELL, 256)
        np.testing.assert_allclose(profile.latency(256), direct)

    def test_interpolation_error_small(self):
        """Log-linear interpolation between profiled sizes stays within a few
        percent of the direct model."""
        rep = paper_configs(KAGGLE)["dhe"]
        profile = profile_path(rep, KAGGLE, GPU_V100)
        for size in (3, 23, 100, 731, 3000):
            direct = path_latency(rep, KAGGLE, GPU_V100, size)
            assert abs(profile.latency(size) - direct) / direct < 0.08

    def test_cache_effects_propagate(self):
        rep = paper_configs(KAGGLE)["dhe"]
        plain = profile_path(rep, KAGGLE, CPU_BROADWELL, sizes=(128,))
        cached = profile_path(
            rep, KAGGLE, CPU_BROADWELL, sizes=(128,),
            encoder_hit_rate=0.8, decoder_speedup=3.0,
        )
        assert cached.latency(128) < plain.latency(128)


class TestMakePath:
    def test_fields_populated(self):
        rep = paper_configs(KAGGLE)["hybrid"]
        path = make_path(rep, KAGGLE, GPU_V100, accuracy=78.98)
        assert path.kind == "hybrid"
        assert path.accuracy == 78.98
        assert path.memory_bytes == rep.total_bytes(KAGGLE)
        assert "HYBRID" in path.label

    def test_rejects_nan_decoder_speedup(self):
        rep = paper_configs(KAGGLE)["dhe"]
        with pytest.raises(ValueError, match="decoder_speedup"):
            make_path(rep, KAGGLE, GPU_V100, 78.9, decoder_speedup=float("nan"))

    def test_custom_label(self):
        rep = paper_configs(KAGGLE)["table"]
        path = make_path(rep, KAGGLE, CPU_BROADWELL, 78.79, label="custom")
        assert path.label == "custom"
        assert "custom" in repr(path)
