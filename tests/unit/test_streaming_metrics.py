import numpy as np
import pytest

from repro.serving.metrics import (
    P2Quantile,
    QueryRecord,
    ReservoirSampler,
    ServingResult,
    StreamingMetrics,
)


def make_records(latencies, sizes=None, accs=None, dropped=None):
    n = len(latencies)
    sizes = sizes or [100] * n
    accs = accs or [80.0] * n
    dropped = dropped or [False] * n
    return [
        QueryRecord(
            index=i, size=sizes[i], arrival_s=0.0, start_s=0.0,
            finish_s=0.0 if dropped[i] else latencies[i],
            path_label="DROPPED" if dropped[i] else f"P{i % 2}",
            accuracy=0.0 if dropped[i] else accs[i],
            dropped=dropped[i],
        )
        for i in range(n)
    ]


class TestP2Quantile:
    def test_small_stream_is_exact(self):
        est = P2Quantile(0.5)
        for x in (3.0, 1.0, 2.0):
            est.observe(x)
        assert est.value == pytest.approx(2.0)

    def test_tracks_known_distribution(self, rng):
        data = rng.exponential(1.0, size=20_000)
        for q in (0.5, 0.95, 0.99):
            est = P2Quantile(q)
            for x in data:
                est.observe(float(x))
            exact = np.percentile(data, q * 100)
            assert est.value == pytest.approx(exact, rel=0.1)

    def test_rejects_degenerate_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_empty_value_zero(self):
        assert P2Quantile(0.5).value == 0.0


class TestReservoirSampler:
    def test_keeps_everything_below_capacity(self):
        res = ReservoirSampler(100)
        for x in range(50):
            res.observe(float(x))
        assert res.percentile(100) == 49.0
        assert res.percentile(0) == 0.0

    def test_bounded_memory(self):
        res = ReservoirSampler(64)
        for x in range(10_000):
            res.observe(float(x))
        assert len(res._sample) == 64
        assert res.count == 10_000

    def test_approximates_distribution(self, rng):
        res = ReservoirSampler(2000, seed=3)
        data = rng.normal(10.0, 2.0, size=50_000)
        for x in data:
            res.observe(float(x))
        assert res.percentile(50) == pytest.approx(10.0, abs=0.3)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ReservoirSampler(0)


class TestStreamingVsExact:
    """Streaming aggregation must agree with the record-backed result."""

    def fold(self, records, sla_s=0.010):
        exact = ServingResult(scheduler_name="t", sla_s=sla_s, records=records)
        stream = StreamingMetrics("t", sla_s=sla_s)
        for r in records:
            stream.observe_record(r)
        return exact, stream

    def test_counters_match_exactly(self, rng):
        latencies = rng.exponential(0.01, size=500).tolist()
        dropped = (rng.random(500) < 0.2).tolist()
        exact, stream = self.fold(make_records(latencies, dropped=dropped))
        assert stream.raw_throughput == exact.raw_throughput
        assert stream.correct_prediction_throughput == (
            exact.correct_prediction_throughput
        )
        assert stream.compliant_correct_throughput == (
            exact.compliant_correct_throughput
        )
        assert stream.violation_rate == exact.violation_rate
        assert stream.drop_rate == exact.drop_rate
        assert stream.mean_accuracy == exact.mean_accuracy
        assert stream.achieved_qps == exact.achieved_qps

    def test_percentiles_close_on_small_runs(self, rng):
        latencies = rng.exponential(0.01, size=2000).tolist()
        exact, stream = self.fold(make_records(latencies))
        for q in (50, 95, 99):
            assert stream.latency_percentile(q) == pytest.approx(
                exact.latency_percentile(q), rel=0.15
            )

    def test_switching_breakdown_matches(self):
        exact, stream = self.fold(make_records([0.01] * 10))
        assert stream.switching_breakdown() == exact.switching_breakdown()

    def test_summary_keys_match(self):
        exact, stream = self.fold(make_records([0.01]))
        assert set(stream.summary()) == set(exact.summary())

    def test_per_tenant_sla_override(self):
        stream = StreamingMetrics("t", sla_s=0.010)
        # 20 ms latency: violates the default 10 ms but not a 50 ms tenant SLA.
        rec = make_records([0.020])[0]
        stream.observe_record(rec, sla_s=0.050)
        assert stream.violation_rate == 0.0

    def test_empty_stream_safe(self):
        stream = StreamingMetrics("t", sla_s=0.01)
        assert stream.raw_throughput == 0.0
        assert stream.violation_rate == 0.0
        assert stream.p99_latency_s == 0.0
        assert stream.switching_breakdown() == {}


class TestDroppedExcludedFromPercentiles:
    """Regression: shed queries used to contribute 0 s latencies, so tail
    percentiles *improved* as the system dropped more — exactly backwards."""

    def test_exact_percentiles_ignore_drops(self):
        latencies = [0.020] * 10
        dropped = [False] * 10 + [True] * 90
        records = make_records(latencies + [0.0] * 90, dropped=dropped)
        res = ServingResult(scheduler_name="t", sla_s=0.01, records=records)
        # 90% drops: the old behavior put p50/p95/p99 at 0 s.
        assert res.p50_latency_s == pytest.approx(0.020)
        assert res.p99_latency_s == pytest.approx(0.020)
        # But drops still count against violation and drop rates.
        assert res.drop_rate == 0.9
        assert res.violation_rate >= 0.9

    def test_streaming_percentiles_ignore_drops(self):
        stream = StreamingMetrics("t", sla_s=0.01)
        for r in make_records(
            [0.020] * 10 + [0.0] * 90, dropped=[False] * 10 + [True] * 90
        ):
            stream.observe_record(r)
        assert stream.p99_latency_s == pytest.approx(0.020)
        assert stream.drop_rate == 0.9

    def test_all_dropped_percentile_zero(self):
        records = make_records([0.0] * 5, dropped=[True] * 5)
        res = ServingResult(scheduler_name="t", sla_s=0.01, records=records)
        assert res.p99_latency_s == 0.0

    def test_more_drops_cannot_lower_tail(self):
        """Monotonicity of the fix: adding dropped records leaves the
        latency distribution untouched."""
        served = make_records([0.005, 0.015, 0.030])
        res_clean = ServingResult("t", 0.01, records=list(served))
        extra_drops = make_records([0.0] * 50, dropped=[True] * 50)
        res_loaded = ServingResult("t", 0.01, records=served + extra_drops)
        for q in (50, 95, 99):
            assert res_loaded.latency_percentile(q) == (
                res_clean.latency_percentile(q)
            )


class TestDroppedExcludedFromThroughput:
    """Regression: dropped queries' samples used to count in total_samples
    while the makespan shrank with every shed query, so a drop-heavy
    failing run reported *higher* raw samples/s than a healthy one."""

    def test_exact_throughput_ignores_drops(self):
        served = make_records([0.020] * 10)
        res_clean = ServingResult("t", 0.01, records=list(served))
        drops = make_records([0.0] * 90, dropped=[True] * 90)
        res_loaded = ServingResult("t", 0.01, records=served + drops)
        assert res_loaded.total_samples == res_clean.total_samples
        assert res_loaded.raw_throughput == res_clean.raw_throughput
        # Served accuracy is over served samples, not shed ones.
        assert res_loaded.mean_accuracy == pytest.approx(80.0)

    def test_streaming_throughput_ignores_drops(self):
        stream = StreamingMetrics("t", sla_s=0.01)
        for r in make_records(
            [0.020] * 10 + [0.0] * 90, dropped=[False] * 10 + [True] * 90
        ):
            stream.observe_record(r)
        assert stream.total_samples == 10 * 100
        assert stream.mean_accuracy == pytest.approx(80.0)
        exact = ServingResult(
            "t", 0.01,
            records=make_records(
                [0.020] * 10 + [0.0] * 90,
                dropped=[False] * 10 + [True] * 90,
            ),
        )
        assert stream.raw_throughput == pytest.approx(exact.raw_throughput)


class TestObserveMany:
    """Bulk folding must agree with the per-sample path (fast-path sink)."""

    def _streams(self, rng, n=3000):
        sizes = rng.integers(1, 512, size=n)
        arrivals = np.sort(rng.random(n))
        latencies = rng.exponential(0.01, size=n)
        finishes = arrivals + latencies
        energies = rng.random(n)
        slas = rng.choice([0.005, 0.010, 0.050], size=n)
        return sizes, arrivals, finishes, energies, slas

    def test_counters_match_per_observe(self, rng):
        sizes, arrivals, finishes, energies, slas = self._streams(rng)
        one = StreamingMetrics("t", sla_s=0.010)
        for i in range(sizes.size):
            one.observe(int(sizes[i]), float(arrivals[i]), 0.0,
                        float(finishes[i]), "P", 80.0,
                        energy_j=float(energies[i]), sla_s=float(slas[i]))
        many = StreamingMetrics("t", sla_s=0.010)
        many.observe_many(sizes, arrivals, None, finishes, "P", 80.0,
                          energies=energies, slas=slas)
        assert many.n == one.n
        assert many.n_violations == one.n_violations
        assert many.total_samples == one.total_samples
        assert many.raw_throughput == one.raw_throughput
        assert many.violation_rate == one.violation_rate
        assert many.switching_breakdown() == one.switching_breakdown()
        assert many.total_energy_j == pytest.approx(
            one.total_energy_j, rel=1e-12
        )
        assert many.mean_accuracy == pytest.approx(
            one.mean_accuracy, rel=1e-12
        )

    def test_mean_accuracy_independent_of_fold_order(self):
        """Outcomes interleaved across two paths, observed one at a time,
        report the same mean accuracy as per-path bulk folds (a float
        running sum gave 78.866 vs 78.86600000000001 here)."""
        labels = ["A", "B", "A", "B", "A"]
        accuracy = {"A": 79.31, "B": 78.2}
        one = StreamingMetrics("t", sla_s=0.010)
        for label in labels:
            one.observe(1, 0.0, 0.0, 0.001, label, accuracy[label])
        many = StreamingMetrics("t", sla_s=0.010)
        for label in ("A", "B"):
            m = labels.count(label)
            many.observe_many(np.ones(m), np.zeros(m), None,
                              np.full(m, 0.001), label, accuracy[label])
        mixed = StreamingMetrics("t", sla_s=0.010)
        mixed.observe_many(np.ones(5), np.zeros(5), None, np.full(5, 0.001),
                           "P", [accuracy[label] for label in labels])
        assert one.mean_accuracy == many.mean_accuracy
        assert mixed.mean_accuracy == one.mean_accuracy
        assert one.mean_accuracy == pytest.approx(78.866)

    def test_reservoir_stream_is_bit_identical(self, rng):
        sizes, arrivals, finishes, _, _ = self._streams(rng)
        one = StreamingMetrics("t", sla_s=0.010)
        for i in range(sizes.size):
            one.observe(int(sizes[i]), float(arrivals[i]), 0.0,
                        float(finishes[i]), "P", 80.0)
        many = StreamingMetrics("t", sla_s=0.010)
        many.observe_many(sizes, arrivals, None, finishes, "P", 80.0)
        assert many._reservoir._sample == one._reservoir._sample
        assert many._reservoir.count == one._reservoir.count

    def test_percentiles_track_truth(self, rng):
        sizes, arrivals, finishes, _, _ = self._streams(rng, n=20_000)
        many = StreamingMetrics("t", sla_s=0.010)
        many.observe_many(sizes, arrivals, None, finishes, "P", 80.0)
        latencies = finishes - arrivals
        for q, got in ((50, many.p50_latency_s), (95, many.p95_latency_s),
                       (99, many.p99_latency_s)):
            truth = float(np.percentile(latencies, q))
            assert got == pytest.approx(truth, rel=0.05)

    def test_dropped_chunk_counts_without_latency(self):
        many = StreamingMetrics("t", sla_s=0.010)
        many.observe_many([5, 6], [0.0, 0.1], None, [0.0, 0.1], "DROPPED",
                          0.0, dropped=True)
        assert many.n == 2 and many.n_dropped == 2
        assert many.n_violations == 2
        assert many.total_samples == 0
        assert many.makespan_s == pytest.approx(0.1)

    def test_empty_chunk_is_noop(self):
        many = StreamingMetrics("t", sla_s=0.010)
        many.observe_many([], [], None, [], "P", 80.0)
        assert many.n == 0

    def test_small_chunks_replay_exact_estimators(self, rng):
        """Chunks below the chunked-P2 threshold replay per-sample
        observe, so repeated small folds are bit-equal to the loop."""
        latencies = rng.exponential(0.01, size=100)
        one = StreamingMetrics("t", sla_s=0.010)
        for lat in latencies.tolist():
            one.observe(10, 0.0, 0.0, lat, "P", 80.0)
        many = StreamingMetrics("t", sla_s=0.010)
        for start in range(0, 100, 10):
            chunk = latencies[start:start + 10]
            many.observe_many(np.full(10, 10), np.zeros(10), None, chunk,
                              "P", 80.0)
        assert many.p99_latency_s == one.p99_latency_s
        assert many.p50_latency_s == one.p50_latency_s
