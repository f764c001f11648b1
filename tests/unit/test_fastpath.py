"""The array fast path: batch planning, fallbacks, and façade wiring.

Record-for-record parity with the event kernel across the supported
configuration space lives in ``tests/property/test_prop_engine_parity.py``;
this file pins the pieces property tests reach poorly — batch-plan edge
cases, the graceful fallbacks for scheduler/policy *subclasses*, the
``serve_arrays`` column entry point, and the façade's rejection of
event-only features.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.online import StaticScheduler
from repro.data.queries import (
    Query,
    QuerySet,
    generate_query_arrays,
    generate_query_set,
)
from repro.experiments.setup import build_schedulers
from repro.hardware.catalog import CPU_BROADWELL, GPU_V100
from repro.hardware.latency import PriceModel
from repro.models.configs import KAGGLE
from repro.serving import engine
from repro.serving.fastpath import plan_batches, serve_arrays
from repro.serving.policies import ShedPolicy
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import ServingScenario

from tests.property.test_prop_engine_parity import (
    build_scenario,
    build_scheduler,
)
from tests.unit.test_online import fake_path


class TestPlanBatches:
    def test_empty_stream(self):
        starts, ends, times = plan_batches(np.empty(0), 8, 0.001)
        assert starts.size == ends.size == times.size == 0

    def test_batch_size_one_is_per_query(self):
        arrivals = np.array([0.0, 0.5, 0.9])
        starts, ends, times = plan_batches(arrivals, 1, 0.001)
        assert starts.tolist() == [0, 1, 2]
        assert ends.tolist() == [1, 2, 3]
        assert times.tolist() == arrivals.tolist()

    def test_full_batch_dispatches_at_filling_arrival(self):
        arrivals = np.array([0.0, 0.001, 0.002, 0.003])
        starts, ends, times = plan_batches(arrivals, 4, 1.0)
        assert starts.tolist() == [0] and ends.tolist() == [4]
        assert times.tolist() == [0.003]

    def test_flush_dispatches_at_deadline(self):
        arrivals = np.array([0.0, 0.001, 0.5])
        starts, ends, times = plan_batches(arrivals, 8, 0.004)
        assert starts.tolist() == [0, 2]
        assert ends.tolist() == [2, 3]
        assert times.tolist() == [0.004, 0.504]

    def test_same_instant_arrivals_fill_before_timer(self):
        # Five arrivals at t=0 with B=4: the first four fill a batch at
        # t=0; the fifth flushes alone at its deadline.
        arrivals = np.zeros(5)
        starts, ends, times = plan_batches(arrivals, 4, 0.002)
        assert list(zip(starts.tolist(), ends.tolist())) == [(0, 4), (4, 5)]
        assert times.tolist() == [0.0, 0.002]

    def test_zero_timeout_groups_only_simultaneous(self):
        arrivals = np.array([0.0, 0.0, 0.1])
        starts, ends, times = plan_batches(arrivals, 8, 0.0)
        assert list(zip(starts.tolist(), ends.tolist())) == [(0, 2), (2, 3)]
        assert times.tolist() == [0.0, 0.1]


class ShedEverySecond(ShedPolicy):
    """A policy subclass the fast path cannot vectorize."""

    name = "every-second"

    def __init__(self):
        self._count = 0

    def admit(self, wait_s, service_s, sla_s):
        self._count += 1
        return self._count % 2 == 1


class PickyStatic(StaticScheduler):
    """A scheduler subclass: forces the select_batch fallback router."""


class TestFallbacks:
    def test_scheduler_subclass_falls_back_to_select_batch(self):
        scenario = build_scenario([0.001] * 12, [64] * 12, 0.010)
        paths = [fake_path("table", CPU_BROADWELL, 78.79, 2e-3, label="T")]
        event = ServingSimulator(
            PickyStatic(list(paths)), max_batch_size=4, batch_timeout_s=0.002
        )
        fast = ServingSimulator(
            PickyStatic(list(paths)), max_batch_size=4,
            batch_timeout_s=0.002, engine="fast",
        )
        assert fast.run(scenario).records == event.run(scenario).records

    def test_policy_subclass_falls_back_to_per_member_admit(self):
        scenario = build_scenario([0.001] * 12, [64] * 12, 0.010)
        event = ServingSimulator(
            build_scheduler("multi"), shed_policy=ShedEverySecond(),
            max_batch_size=4, batch_timeout_s=0.002,
        )
        fast = ServingSimulator(
            build_scheduler("multi"), shed_policy=ShedEverySecond(),
            max_batch_size=4, batch_timeout_s=0.002, engine="fast",
        )
        assert fast.run(scenario).records == event.run(scenario).records


class TestServeArrays:
    def test_matches_object_path_records(self):
        arrays = generate_query_arrays(n_queries=400, qps=5000.0, seed=3)
        qs = generate_query_set(n_queries=400, qps=5000.0, seed=3)
        scheduler = build_scheduler("multi")
        result = serve_arrays(
            scheduler, arrays, sla_s=0.010, shed_policy="deadline-aware",
            max_batch_size=8, batch_timeout_s=0.001, streaming=False,
        )
        sim = ServingSimulator(
            build_scheduler("multi"), shed_policy="deadline-aware",
            max_batch_size=8, batch_timeout_s=0.001, engine="fast",
        )
        expected = sim.run(ServingScenario(queries=qs, sla_s=0.010))
        assert result.records == expected.records

    def test_streaming_default_returns_streaming_metrics(self):
        arrays = generate_query_arrays(n_queries=100, qps=5000.0, seed=3)
        metrics = serve_arrays(build_scheduler("static"), arrays)
        assert metrics.n == 100
        assert not hasattr(metrics, "records")

    def test_unsorted_stream_is_sorted_first(self):
        queries = [
            Query(index=0, size=10, arrival_s=0.005),
            Query(index=1, size=20, arrival_s=0.001),
        ]
        arrays = QuerySet(queries=queries).as_arrays()
        result = serve_arrays(
            build_scheduler("static"), arrays, streaming=False
        )
        assert [r.index for r in result.records] == [1, 0]

    def test_empty_stream(self):
        arrays = generate_query_arrays(n_queries=0)
        metrics = serve_arrays(build_scheduler("static"), arrays)
        assert metrics.n == 0

    def test_rejects_bad_batch_args(self):
        arrays = generate_query_arrays(n_queries=10)
        with pytest.raises(ValueError):
            serve_arrays(build_scheduler("static"), arrays, max_batch_size=0)
        for timeout_s in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                serve_arrays(
                    build_scheduler("static"), arrays,
                    batch_timeout_s=timeout_s,
                )

    def test_energy_priced_once_per_path(self, monkeypatch):
        """Counted work, not a wall clock: the fast path prices energy
        after its dispatch loop with one array call per path that served,
        and never through the kernel's per-batch scalar pricing."""
        calls = Counter()

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(PriceModel, "power")
        counting(PriceModel, "power_many")
        counting(engine, "query_energy")
        # The node-fastday benchmark's shape, shortened.
        arrays = generate_query_arrays(
            n_queries=20_000, qps=24_000.0, process="diurnal",
            amplitude=0.6, period_s=20_000 / 24_000.0, seed=1,
        )
        metrics = serve_arrays(
            build_schedulers(KAGGLE)["mp-rec"], arrays, sla_s=0.010,
            shed_policy="deadline-aware", track_energy=True,
            max_batch_size=128, batch_timeout_s=0.004,
        )
        served = set(metrics.switching_breakdown()) - {"DROPPED"}
        assert len(served) >= 2
        assert metrics.total_energy_j > 0
        assert calls["power"] == 0
        assert calls["query_energy"] == 0
        assert 1 <= calls["power_many"] <= len(served)

    def test_energy_apportioned_like_kernel(self):
        arrays = generate_query_arrays(n_queries=200, qps=5000.0, seed=4)
        result = serve_arrays(
            build_scheduler("multi"), arrays, max_batch_size=8,
            batch_timeout_s=0.001, track_energy=True, streaming=False,
        )
        assert sum(r.energy_j for r in result.records) > 0.0


class TestFacade:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            ServingSimulator(build_scheduler("static"), engine="warp")

    def test_rejects_switching_on_fast_engine(self):
        class FakeController:
            pass

        with pytest.raises(ValueError, match="switching"):
            ServingSimulator(
                build_scheduler("static"), engine="fast",
                switch_controller=FakeController(),
            )

    def test_fast_engine_runs_both_sinks(self):
        scenario = build_scenario([0.001] * 10, [32] * 10, 0.010)
        sim = ServingSimulator(build_scheduler("multi"), engine="fast")
        exact = sim.run(scenario)
        stream = sim.run_streaming(scenario)
        assert len(exact.records) == 10
        assert stream.raw_throughput == exact.raw_throughput
