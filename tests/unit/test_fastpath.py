"""The array fast path: batch planning, fallbacks, and façade wiring.

Record-for-record parity with the event kernel across the supported
configuration space lives in ``tests/property/test_prop_engine_parity.py``;
this file pins the pieces property tests reach poorly — batch-plan edge
cases, the graceful fallbacks for scheduler/policy *subclasses*, the
``serve_arrays`` column entry point, and the façade's rejection of
event-only features.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.core.online import MultiPathScheduler, Scheduler, StaticScheduler
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
from repro.serving import engine, fastpath
from repro.serving.devices import DeviceTimeline
from repro.serving.fastpath import plan_batches, run_fastpath, serve_arrays
from repro.serving.metrics import StreamingMetrics
from repro.serving.policies import ShedPolicy
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import ServingScenario

from tests.property.test_prop_engine_parity import (
    build_scenario,
    build_scheduler,
    shared_paths,
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

    def test_rejects_args_that_stall_the_boundary_chain(self):
        # A batch size of 0 or a negative timeout never advances a batch
        # start; a NaN timeout dispatches at NaN.
        arrivals = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="max_batch_size"):
            plan_batches(arrivals, 0, 0.5)
        for timeout_s in (-0.5, float("nan")):
            with pytest.raises(ValueError, match="batch_timeout_s"):
                plan_batches(arrivals, 2, timeout_s)
        with pytest.raises(ValueError, match="max_batch_size"):
            plan_batches(np.empty(0), 0, 0.5)

    def test_run_fastpath_rejects_zero_batch_size(self):
        scenario = build_scenario([0.001] * 4, [8] * 4, 0.010)
        sink = engine.RecordSink("static", 0.010)
        with pytest.raises(ValueError, match="max_batch_size"):
            run_fastpath(
                build_scheduler("static"), scenario, sink, max_batch_size=0
            )


class ShedEverySecond(ShedPolicy):
    """A policy subclass the fast path cannot vectorize."""

    name = "every-second"

    def __init__(self):
        self._count = 0

    def admit(self, wait_s, service_s, sla_s):
        self._count += 1
        return self._count % 2 == 1


class PickyStatic(StaticScheduler):
    """A scheduler subclass that overrides ``select``: forces the
    select_batch fallback router."""

    def select(self, query_size, sla_s, now, free_at):
        return super().select(query_size, sla_s, now, free_at)


class PickyMulti(MultiPathScheduler):
    """A MultiPath subclass that overrides neither ``select`` nor
    ``select_batch``: the fast path compiles its settings."""


class CopyingMulti(MultiPathScheduler):
    """Routes to an equal copy of each chosen path, not the listed object:
    the fast path appends each copy as a path of its own."""

    def __init__(self, paths):
        super().__init__(paths)
        self.copies = {id(p): dataclasses.replace(p) for p in self.paths}

    def select_batch(self, total_size, sla_s, now, free_at):
        decision = super().select_batch(total_size, sla_s, now, free_at)
        return dataclasses.replace(
            decision, path=self.copies[id(decision.path)]
        )


class TestFallbacks:
    def test_scheduler_subclass_falls_back_to_select_batch(self, monkeypatch):
        scenario = build_scenario([0.001] * 12, [64] * 12, 0.010)
        paths = [fake_path("table", CPU_BROADWELL, 78.79, 2e-3, label="T")]
        event = ServingSimulator(
            PickyStatic(list(paths)), max_batch_size=4, batch_timeout_s=0.002
        )
        fast = ServingSimulator(
            PickyStatic(list(paths)), max_batch_size=4,
            batch_timeout_s=0.002, engine="fast",
        )
        expected = event.run(scenario).records
        calls = Counter()
        count_calls(monkeypatch, calls, Scheduler, "select_batch")
        assert fast.run(scenario).records == expected
        arrivals = scenario.queries.as_arrays().arrival_s
        batches = plan_batches(arrivals, 4, 0.002)[0]
        assert calls["select_batch"] == len(batches) > 1

    @pytest.mark.parametrize("cls", [PickyMulti, CopyingMulti])
    def test_multipath_subclass_on_shared_devices(self, cls, monkeypatch):
        # Arrivals dense enough that both devices queue, every path
        # serves, some members are shed and all four servers are used.
        scenario = build_scenario(
            [0.0002, 0.0, 0.0004] * 12, [64, 512, 2048] * 12, 0.005
        )
        event = ServingSimulator(
            MultiPathScheduler(shared_paths()), max_batch_size=2,
            batch_timeout_s=0.001, shed_policy="drop-late",
        )
        fast = ServingSimulator(
            cls(shared_paths()), max_batch_size=2, batch_timeout_s=0.001,
            shed_policy="drop-late", engine="fast",
        )
        expected = event.run(scenario).records
        calls = Counter()
        count_calls(monkeypatch, calls, Scheduler, "select_batch")
        assert fast.run(scenario).records == expected
        # Only the subclass that overrides select_batch routes through it.
        assert (calls["select_batch"] > 0) == (cls is CopyingMulti)
        assert {r.path_label for r in expected} == {
            "T-CPU", "H-CPU", "T-TPU", "H-TPU", "DROPPED",
        }

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


def count_calls(monkeypatch, calls, owner, name):
    """Count the calls of ``owner.name`` into ``calls[name]``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


FASTDAY_STREAM = dict(
    n_queries=20_000, qps=24_000.0, process="diurnal", amplitude=0.6,
    period_s=20_000 / 24_000.0, seed=1,
)
FASTDAY_SERVING = dict(
    shed_policy="deadline-aware", track_energy=True, max_batch_size=128,
    batch_timeout_s=0.004,
)


def serve_fastday_shape(scheduler=None, streaming=True):
    """The node-fastday benchmark's shape, shortened to 20,000 queries."""
    return serve_arrays(
        scheduler or build_schedulers(KAGGLE)["mp-rec"],
        generate_query_arrays(**FASTDAY_STREAM), sla_s=0.010,
        streaming=streaming, **FASTDAY_SERVING,
    )


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
        count_calls(monkeypatch, calls, PriceModel, "power")
        count_calls(monkeypatch, calls, PriceModel, "power_many")
        count_calls(monkeypatch, calls, engine, "query_energy")
        metrics = serve_fastday_shape()
        served = set(metrics.switching_breakdown()) - {"DROPPED"}
        assert len(served) >= 2
        assert metrics.total_energy_j > 0
        assert calls["power"] == 0
        assert calls["query_energy"] == 0
        assert 1 <= calls["power_many"] <= len(served)

    def test_subclass_keeping_select_is_compiled(self, monkeypatch):
        """Counted work, not a wall clock: a subclass that overrides
        neither ``select`` nor ``select_batch`` is routed by the compiled
        rule, with no ``select_batch`` call, and serves the kernel's
        records."""
        paths = build_schedulers(KAGGLE)["mp-rec"].paths
        scenario = ServingScenario(
            queries=generate_query_set(**FASTDAY_STREAM), sla_s=0.010
        )
        kernel = ServingSimulator(
            MultiPathScheduler(paths), **FASTDAY_SERVING
        ).run(scenario)
        calls = Counter()
        count_calls(monkeypatch, calls, Scheduler, "select_batch")
        fast = serve_fastday_shape(PickyMulti(paths), streaming=False)
        assert calls["select_batch"] == 0
        assert fast.records == kernel.records

    def test_routes_from_one_device_read_and_interns_each_label_once(
        self, monkeypatch
    ):
        """Counted work, not a wall clock: each batch commits to the slot
        its router read, with no second scan of the device, and each
        label is interned once, not once per batch (about 215 batches)."""
        calls = Counter()
        count_calls(monkeypatch, calls, DeviceTimeline, "earliest")
        count_calls(monkeypatch, calls, fastpath._Labels, "code_of")
        labels = serve_fastday_shape().switching_breakdown()
        assert "DROPPED" in labels and len(labels) >= 3
        assert calls["earliest"] == 0
        assert 1 <= calls["code_of"] <= len(labels)

    def test_single_sla_blocks_carry_a_scalar_target(self, monkeypatch):
        """Counted work, not a wall clock: without tenant targets every
        block's SLA column is the scenario's scalar, never a per-row
        gather; a multi-tenant run still folds per-query targets."""
        ndims = []
        original = StreamingMetrics.observe_many

        def observe_many(self, *args, **kwargs):
            ndims.append(np.ndim(kwargs["slas"]))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(StreamingMetrics, "observe_many", observe_many)
        metrics = serve_fastday_shape()
        assert "DROPPED" in metrics.switching_breakdown()
        assert len(ndims) >= 3 and set(ndims) == {0}

        ndims.clear()
        scenario = build_scenario([0.0001] * 400, [64] * 400, 0.002,
                                  tenants=True)
        tenants = serve_arrays(
            build_scheduler("multi"), scenario.queries.as_arrays(),
            sla_s=scenario.sla_s, sla_by_tenant=scenario.sla_by_tenant,
            shed_policy="deadline-aware", max_batch_size=8,
            batch_timeout_s=0.001,
        )
        assert tenants.n == 400
        assert ndims and set(ndims) == {1}

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
