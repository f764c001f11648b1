import numpy as np
import pytest

from repro.data.queries import (
    MAX_QUERY_SIZE,
    Query,
    QueryArrays,
    QuerySet,
    arrival_times,
    generate_query_arrays,
    generate_query_set,
    lognormal_sizes,
)


class TestLognormalSizes:
    def test_mean_close_to_target(self):
        sizes = lognormal_sizes(50_000, mean_size=128.0)
        assert abs(sizes.mean() - 128) < 10

    def test_bounds(self):
        sizes = lognormal_sizes(10_000, mean_size=128.0)
        assert sizes.min() >= 1
        assert sizes.max() <= MAX_QUERY_SIZE

    def test_right_skew(self):
        sizes = lognormal_sizes(50_000, mean_size=128.0)
        assert np.median(sizes) < sizes.mean()

    def test_small_mean(self):
        sizes = lognormal_sizes(10_000, mean_size=2.0)
        assert 1 <= sizes.mean() < 5

    def test_rejects_sub_one_mean(self):
        with pytest.raises(ValueError):
            lognormal_sizes(10, mean_size=0.5)


class TestArrivalTimes:
    def test_poisson_rate(self):
        times = arrival_times(100_000, qps=1000.0)
        assert abs(times[-1] - 100.0) < 3.0  # ~100 s for 100K @ 1 kQPS

    def test_monotone(self):
        times = arrival_times(1000, qps=500.0)
        assert np.all(np.diff(times) >= 0)

    def test_uniform_process(self):
        times = arrival_times(10, qps=10.0, process="uniform")
        np.testing.assert_allclose(np.diff(times), 0.1)

    def test_rejects_bad_qps(self):
        with pytest.raises(ValueError):
            arrival_times(10, qps=0.0)

    def test_unknown_process(self):
        with pytest.raises(ValueError):
            arrival_times(10, qps=10.0, process="fractal")

    def test_diurnal_mean_rate(self):
        times = arrival_times(30_000, qps=1000.0, process="diurnal")
        achieved = 30_000 / times[-1]
        # Partial trailing periods bias the estimate slightly.
        assert abs(achieved - 1000.0) / 1000.0 < 0.15

    def test_diurnal_rate_oscillates(self):
        """Windows of a diurnal process show materially different rates."""
        times = arrival_times(60_000, qps=1000.0, process="diurnal")
        counts, _ = np.histogram(times, bins=np.arange(0.0, times[-1], 2.5))
        assert counts.max() > 1.3 * max(1, counts.min())

    def test_diurnal_monotone(self):
        times = arrival_times(500, qps=200.0, process="diurnal")
        assert np.all(np.diff(times) >= 0)

    def test_mmpp_mean_rate(self):
        times = arrival_times(40_000, qps=1000.0, process="mmpp")
        achieved = 40_000 / times[-1]
        assert abs(achieved - 1000.0) / 1000.0 < 0.25

    def test_bursty_alias(self):
        a = arrival_times(500, qps=500.0, process="mmpp")
        b = arrival_times(500, qps=500.0, process="bursty")
        np.testing.assert_allclose(a, b)

    def test_mmpp_burstier_than_poisson(self):
        """Squared coefficient of variation of gaps exceeds a Poisson's 1."""
        times = arrival_times(40_000, qps=1000.0, process="mmpp")
        gaps = np.diff(times)
        cv2 = gaps.var() / gaps.mean() ** 2
        assert cv2 > 1.3

    def test_mmpp_monotone(self):
        times = arrival_times(2000, qps=500.0, process="mmpp")
        assert np.all(np.diff(times) >= 0)

    def test_flash_crowd_spike_window_is_denser(self):
        times = arrival_times(30_000, qps=1000.0, process="flash-crowd")
        horizon = 30.0  # nominal n/qps
        spike = np.sum((times >= 0.5 * horizon) & (times < 0.6 * horizon))
        baseline = np.sum((times >= 0.1 * horizon) & (times < 0.2 * horizon))
        assert spike > 3 * baseline

    def test_flash_crowd_monotone(self):
        times = arrival_times(2000, qps=500.0, process="flash-crowd")
        assert np.all(np.diff(times) >= 0)


class TestArrivalDeterminism:
    """Fixed seed => identical streams, for every vectorized process."""

    @pytest.mark.parametrize(
        "process", ["poisson", "uniform", "diurnal", "mmpp", "flash-crowd"]
    )
    def test_same_seed_same_stream(self, process):
        a = arrival_times(
            2000, qps=800.0, rng=np.random.default_rng(9), process=process
        )
        b = arrival_times(
            2000, qps=800.0, rng=np.random.default_rng(9), process=process
        )
        np.testing.assert_array_equal(a, b)
        assert a.shape == (2000,)

    @pytest.mark.parametrize(
        "process", ["poisson", "uniform", "diurnal", "mmpp", "flash-crowd"]
    )
    def test_zero_queries_yield_empty_stream(self, process):
        times = arrival_times(0, qps=100.0, process=process)
        assert times.shape == (0,)

    @pytest.mark.parametrize("process", ["diurnal", "mmpp", "flash-crowd"])
    def test_different_seeds_differ(self, process):
        a = arrival_times(
            500, qps=800.0, rng=np.random.default_rng(1), process=process
        )
        b = arrival_times(
            500, qps=800.0, rng=np.random.default_rng(2), process=process
        )
        assert not np.array_equal(a, b)


class TestProcessParameters:
    """arrival_times forwards process parameters to the generators."""

    def test_diurnal_amplitude_changes_oscillation(self):
        calm = arrival_times(
            30_000, qps=1000.0, rng=np.random.default_rng(4),
            process="diurnal", amplitude=0.1,
        )
        wild = arrival_times(
            30_000, qps=1000.0, rng=np.random.default_rng(4),
            process="diurnal", amplitude=0.9,
        )

        def swing(times):
            counts, _ = np.histogram(times, bins=np.arange(0.0, times[-1], 2.5))
            return counts.max() / max(1, counts.min())

        assert swing(wild) > swing(calm)

    def test_mmpp_burst_factor_raises_variability(self):
        mild = arrival_times(
            30_000, qps=1000.0, rng=np.random.default_rng(5),
            process="mmpp", burst_factor=1.5,
        )
        harsh = arrival_times(
            30_000, qps=1000.0, rng=np.random.default_rng(5),
            process="mmpp", burst_factor=4.5,
        )

        def cv2(times):
            deltas = np.diff(times)
            return deltas.var() / deltas.mean() ** 2

        assert cv2(harsh) > cv2(mild)

    def test_flash_crowd_spike_position_honored(self):
        times = arrival_times(
            20_000, qps=1000.0, rng=np.random.default_rng(6),
            process="flash-crowd", spike_start_frac=0.2,
            spike_duration_frac=0.1, spike_factor=6.0,
        )
        horizon = 20.0
        early = np.sum((times >= 0.2 * horizon) & (times < 0.3 * horizon))
        late = np.sum((times >= 0.6 * horizon) & (times < 0.7 * horizon))
        assert early > 3 * late

    def test_stationary_processes_reject_parameters(self):
        with pytest.raises(ValueError, match="no extra parameters"):
            arrival_times(10, qps=10.0, process="poisson", amplitude=0.5)
        with pytest.raises(ValueError, match="no extra parameters"):
            arrival_times(10, qps=10.0, process="uniform", spike_factor=2.0)

    def test_mmpp_parameter_validation(self):
        with pytest.raises(ValueError):
            arrival_times(10, qps=10.0, process="mmpp", burst_factor=1.0)
        with pytest.raises(ValueError):
            arrival_times(10, qps=10.0, process="mmpp", duty=0.0)
        with pytest.raises(ValueError):
            arrival_times(
                10, qps=10.0, process="mmpp", burst_factor=6.0, duty=0.2
            )

    def test_diurnal_amplitude_validation(self):
        with pytest.raises(ValueError):
            arrival_times(10, qps=10.0, process="diurnal", amplitude=1.0)

    def test_flash_crowd_factor_validation(self):
        with pytest.raises(ValueError):
            arrival_times(10, qps=10.0, process="flash-crowd", spike_factor=0.5)


class TestMmppDistribution:
    def test_burst_windows_are_denser_than_calm_windows(self):
        """The on-off structure is visible: the densest 1 s windows run at
        a multiple of the quietest ones."""
        times = arrival_times(
            50_000, qps=1000.0, rng=np.random.default_rng(12), process="mmpp"
        )
        counts, _ = np.histogram(times, bins=np.arange(0.0, times[-1], 1.0))
        dense = np.percentile(counts, 95)
        calm = np.percentile(counts, 20)
        assert dense > 2.0 * calm


class TestGenerateQuerySet:
    def test_paper_default_shape(self):
        qs = generate_query_set(n_queries=1000, mean_size=128, qps=1000)
        assert len(qs) == 1000
        assert 100 < qs.mean_size() < 160
        assert qs.total_samples == qs.sizes.sum()

    def test_queries_sorted_by_index(self):
        qs = generate_query_set(n_queries=50)
        assert [q.index for q in qs] == list(range(50))

    def test_deterministic_given_seed(self):
        a = generate_query_set(n_queries=100, seed=5)
        b = generate_query_set(n_queries=100, seed=5)
        assert [q.size for q in a] == [q.size for q in b]


class TestQueryArrays:
    def test_generate_arrays_matches_object_generator(self):
        """Same seed, same draws: the column generator reproduces the
        object generator's sizes and arrivals exactly."""
        qs = generate_query_set(n_queries=500, seed=9, tenant="acme")
        arrays = generate_query_arrays(n_queries=500, seed=9, tenant="acme")
        assert arrays.size.tolist() == [q.size for q in qs]
        assert arrays.arrival_s.tolist() == [q.arrival_s for q in qs]
        assert [arrays.tenants[c] for c in arrays.tenant_codes] == (
            [q.tenant for q in qs]
        )

    def test_generated_columns_share_one_buffer(self):
        """A generated stream's columns are aligned views of one buffer
        (so freeing the stream frees one allocation), each with the
        dtype and contents of the column it stands for."""
        arrays = generate_query_arrays(n_queries=300, seed=4, tenant="acme")
        columns = {
            "index": np.int64, "size": np.int64, "arrival_s": np.float64,
            "tenant_codes": np.int32, "user": np.int64,
        }
        block = arrays.index.base
        assert block is not None
        for name, dtype in columns.items():
            column = getattr(arrays, name)
            assert column.dtype == dtype
            assert column.base is block
            assert column.flags.c_contiguous and column.flags.aligned
        assert arrays.index.tolist() == list(range(300))
        assert arrays.tenant_codes.tolist() == [1] * 300
        assert arrays.user.tolist() == [-1] * 300

    def test_as_arrays_round_trip(self):
        queries = [
            Query(index=i, size=i + 1, arrival_s=0.001 * i,
                  tenant="t" if i % 2 else "", user=i * 7)
            for i in range(20)
        ]
        arrays = QuerySet(queries=queries).as_arrays()
        assert arrays.to_queries() == queries

    def test_as_arrays_is_cached(self):
        qs = generate_query_set(n_queries=50, seed=1)
        assert qs.as_arrays() is qs.as_arrays()

    def test_generated_set_carries_arrays_without_round_trip(self):
        """generate_query_set attaches the columns it drew — asking for
        them must not rebuild from the object list."""
        qs = generate_query_set(n_queries=64, seed=2)
        arrays = qs.as_arrays()
        assert arrays is qs._arrays
        assert len(arrays) == 64
        assert arrays.total_samples == qs.total_samples

    def test_empty_tenant_interned_as_code_zero(self):
        arrays = QueryArrays.from_queries(
            [Query(index=0, size=1, arrival_s=0.0)]
        )
        assert arrays.tenants[0] == ""
        assert arrays.tenant_codes.tolist() == [0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QueryArrays(
                index=np.arange(3, dtype=np.int64),
                size=np.ones(2, dtype=np.int64),
                arrival_s=np.zeros(3),
                tenant_codes=np.zeros(3, dtype=np.int32),
                tenants=("",),
                user=np.zeros(3, dtype=np.int64),
            )
