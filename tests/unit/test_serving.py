import numpy as np
import pytest

from repro.core.online import MultiPathScheduler, StaticScheduler
from repro.data.queries import Query, QuerySet
from repro.serving.metrics import QueryRecord, ServingResult
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import ServingScenario

from tests.unit.test_online import fake_path, idle
from repro.hardware.catalog import CPU_BROADWELL, GPU_V100, IPU_POD16


def scenario_of(sizes, gap_s=0.01, sla_s=0.010):
    queries = [
        Query(index=i, size=s, arrival_s=i * gap_s) for i, s in enumerate(sizes)
    ]
    return ServingScenario(queries=QuerySet(queries=queries), sla_s=sla_s)


class TestQueryRecord:
    def test_latency_and_correct_samples(self):
        rec = QueryRecord(
            index=0, size=100, arrival_s=1.0, start_s=1.5, finish_s=2.0,
            path_label="T", accuracy=80.0,
        )
        assert rec.latency_s == 1.0
        assert rec.correct_samples == 80.0


class TestServingResult:
    def make(self, latencies, sla_s=0.010, sizes=None, accs=None):
        sizes = sizes or [100] * len(latencies)
        accs = accs or [80.0] * len(latencies)
        records = [
            QueryRecord(
                index=i, size=sizes[i], arrival_s=0.0, start_s=0.0,
                finish_s=latencies[i], path_label=f"P{i % 2}", accuracy=accs[i],
            )
            for i in range(len(latencies))
        ]
        return ServingResult(scheduler_name="t", sla_s=sla_s, records=records)

    def test_violation_rate(self):
        res = self.make([0.005, 0.015, 0.020, 0.001])
        assert res.violation_rate == 0.5

    def test_throughputs(self):
        res = self.make([1.0, 2.0], sizes=[100, 300])
        assert res.raw_throughput == 400 / 2.0
        assert res.correct_prediction_throughput == pytest.approx(400 * 0.8 / 2.0)

    def test_mean_accuracy_weighted(self):
        res = self.make([1.0, 1.0], sizes=[100, 300], accs=[70.0, 90.0])
        assert res.mean_accuracy == pytest.approx((70 * 100 + 90 * 300) / 400)

    def test_percentiles_ordered(self):
        res = self.make(list(np.linspace(0.001, 0.1, 50)))
        assert res.p50_latency_s <= res.p95_latency_s <= res.p99_latency_s

    def test_switching_breakdown_sums_to_one(self):
        res = self.make([0.01] * 10)
        breakdown = res.switching_breakdown()
        assert pytest.approx(sum(breakdown.values())) == 1.0
        assert set(breakdown) == {"P0", "P1"}

    def test_empty_result_safe(self):
        res = ServingResult(scheduler_name="t", sla_s=0.01)
        assert res.raw_throughput == 0.0
        assert res.violation_rate == 0.0
        assert res.mean_accuracy == 0.0

    def test_summary_keys(self):
        res = self.make([0.01])
        assert {"correct_tput", "raw_tput", "violation_rate"} <= set(res.summary())


class TestSimulator:
    def test_fifo_queueing_single_server(self):
        path = fake_path("table", CPU_BROADWELL, 80.0, base_latency=0.1, per_sample=0)
        sim = ServingSimulator(StaticScheduler([path]), track_energy=False)
        # Two queries arrive together; the second waits for the first.
        res = sim.run(scenario_of([10, 10], gap_s=0.0))
        lats = sorted(r.latency_s for r in res.records)
        assert lats[0] == pytest.approx(0.1)
        assert lats[1] == pytest.approx(0.2)

    def test_replicated_device_serves_concurrently(self):
        path = fake_path("table", IPU_POD16, 80.0, base_latency=0.1, per_sample=0)
        sim = ServingSimulator(StaticScheduler([path]), track_energy=False)
        res = sim.run(scenario_of([10] * 16, gap_s=0.0))
        # 16 replicas: all queries finish in one service time.
        assert max(r.latency_s for r in res.records) == pytest.approx(0.1)

    def test_shared_device_shared_queue(self):
        table = fake_path("table", GPU_V100, 80.0, base_latency=0.1, per_sample=0)
        hybrid = fake_path("hybrid", GPU_V100, 81.0, base_latency=0.1, per_sample=0)
        sched = MultiPathScheduler([table, hybrid])
        sim = ServingSimulator(sched, track_energy=False)
        res = sim.run(scenario_of([10, 10], gap_s=0.0, sla_s=1.0))
        # Both go to the same GPU: second query queues behind the first.
        finishes = sorted(r.finish_s for r in res.records)
        assert finishes[1] == pytest.approx(0.2)

    def test_idle_system_no_waiting(self):
        path = fake_path("table", CPU_BROADWELL, 80.0, base_latency=0.001, per_sample=0)
        sim = ServingSimulator(StaticScheduler([path]), track_energy=False)
        res = sim.run(scenario_of([10] * 5, gap_s=0.5))
        assert all(r.start_s == r.arrival_s for r in res.records)

    def test_energy_tracked_with_model(self):
        from repro.core.profiler import make_path
        from repro.core.representations import paper_configs
        from repro.hardware.latency import PriceModel
        from repro.models.configs import KAGGLE

        rep = paper_configs(KAGGLE)["table"]
        path = make_path(rep, KAGGLE, CPU_BROADWELL, 78.79)
        path.price = PriceModel(rep, KAGGLE, CPU_BROADWELL)
        sim = ServingSimulator(StaticScheduler([path]))
        res = sim.run(scenario_of([100] * 3))
        assert res.total_energy_j > 0

    def test_energy_fallback_without_model(self):
        path = fake_path("table", CPU_BROADWELL, 80.0, base_latency=0.01, per_sample=0)
        sim = ServingSimulator(StaticScheduler([path]))
        res = sim.run(scenario_of([10]))
        assert res.total_energy_j > 0


class TestScenario:
    def test_paper_default(self):
        scen = ServingScenario.paper_default(n_queries=100)
        assert scen.sla_s == 0.010
        assert scen.target_qps == 1000.0
        assert len(scen.queries) == 100
