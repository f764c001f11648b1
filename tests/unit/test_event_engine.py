"""Event-driven engine: batching semantics, reference equivalence,
streaming parity, and multi-tenant SLA handling."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.analysis.sharding import greedy_shard
from repro.core.online import MultiPathScheduler, Scheduler, StaticScheduler
from repro.core.paths import ExecutionPath, PathProfile
from repro.data.queries import Query, QuerySet, generate_query_set
from repro.experiments.setup import (
    build_regions,
    build_schedulers,
    follow_the_sun_scenario,
)
from repro.hardware.catalog import CPU_BROADWELL, GPU_V100
from repro.hardware.latency import PriceModel
from repro.models.configs import KAGGLE
from repro.serving.cluster import ClusterSimulator
from repro.serving.devices import DeviceTimeline
from repro.serving.engine import Batcher, check_batching
from repro.serving.fastpath import plan_batches, serve_arrays
from repro.serving.metrics import QueryRecord
from repro.serving.policies import DeadlineAware
from repro.serving.simulator import ReferenceSimulator, ServingSimulator
from repro.serving.workload import ServingScenario, TenantSpec

from tests.unit.test_fastpath import FASTDAY_SERVING, FASTDAY_STREAM
from tests.unit.test_online import fake_path


def scenario_of(sizes, gap_s=0.01, sla_s=0.010):
    queries = [
        Query(index=i, size=s, arrival_s=i * gap_s) for i, s in enumerate(sizes)
    ]
    return ServingScenario(queries=QuerySet(queries=queries), sla_s=sla_s)


def flat_path(base_latency=0.1, accuracy=80.0, device=CPU_BROADWELL):
    return fake_path("table", device, accuracy, base_latency, per_sample=0)


class TestConstruction:
    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            ServingSimulator(StaticScheduler([flat_path()]), max_batch_size=0)

    def test_rejects_negative_timeout(self):
        for timeout_s in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                ServingSimulator(
                    StaticScheduler([flat_path()]), batch_timeout_s=timeout_s
                )

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            ServingSimulator(StaticScheduler([flat_path()]), shed_policy="random")

    def test_policy_instance_accepted(self):
        sim = ServingSimulator(
            StaticScheduler([flat_path()]), shed_policy=DeadlineAware(slack=2.0)
        )
        assert sim.shed_policy == "deadline-aware"


class TestBatchingDomain:
    """One domain for the batching knobs, at every place that takes them:
    an integral batch size of at least 1 (NumPy integers and bools pass)
    and a finite, non-negative timeout."""

    @staticmethod
    def takers():
        scheduler = StaticScheduler([flat_path()])
        plan = greedy_shard([1000, 2000], 16, 2)
        return {
            "ServingSimulator": lambda b, t: ServingSimulator(
                scheduler, max_batch_size=b, batch_timeout_s=t
            ),
            "ClusterSimulator": lambda b, t: ClusterSimulator(
                scheduler, plan, max_batch_size=b, batch_timeout_s=t
            ),
            "Batcher": lambda b, t: Batcher(b, t),
            "plan_batches": lambda b, t: plan_batches(
                np.array([0.0, 1.0]), b, t
            ),
        }

    @pytest.mark.parametrize("size", [2.5, 4.0, float("nan"), "4", None])
    def test_non_integral_batch_size_is_rejected(self, size):
        for name, take in self.takers().items():
            with pytest.raises(ValueError, match="max_batch_size"):
                take(size, 0.001)

    @pytest.mark.parametrize("timeout_s", [-1.0, float("nan"), float("inf")])
    def test_timeout_must_be_finite_and_non_negative(self, timeout_s):
        for name, take in self.takers().items():
            with pytest.raises(ValueError, match="batch_timeout_s"):
                take(4, timeout_s)

    def test_numpy_integers_and_bools_pass(self):
        scenario = scenario_of([4] * 9, gap_s=0.0005)
        expected = ServingSimulator(
            MultiPathScheduler([flat_path(0.001)]), max_batch_size=4,
            batch_timeout_s=0.001,
        ).run(scenario).records
        for size in (np.int64(4), np.int32(4)):
            for engine in ("event", "fast"):
                sim = ServingSimulator(
                    MultiPathScheduler([flat_path(0.001)]),
                    max_batch_size=size, batch_timeout_s=0.001, engine=engine,
                )
                assert type(sim.max_batch_size) is int
                assert sim.run(scenario).records == expected
        assert check_batching(True, 0.0) == (1, 0.0)


class TestReferenceEquivalence:
    """With batching disabled the engine is record-for-record the seed loop."""

    @pytest.mark.parametrize("shed_policy", ["none", "drop-late"])
    def test_static_scheduler(self, shed_policy):
        scenario = ServingScenario.paper_default(n_queries=400, qps=2000, seed=3)
        scheduler = StaticScheduler([flat_path(base_latency=0.002)])
        ref = ReferenceSimulator(scheduler, shed_policy=shed_policy).run(scenario)
        new = ServingSimulator(scheduler, shed_policy=shed_policy).run(scenario)
        assert new.records == ref.records

    def test_multi_path_scheduler(self):
        scenario = ServingScenario.paper_default(n_queries=400, qps=2000, seed=4)
        scheduler = MultiPathScheduler([
            flat_path(base_latency=0.002),
            fake_path("hybrid", GPU_V100, 81.0, 0.004, per_sample=0),
        ])
        ref = ReferenceSimulator(scheduler, track_energy=False).run(scenario)
        new = ServingSimulator(scheduler, track_energy=False).run(scenario)
        assert new.records == ref.records


class TestRooflineEnergyParity:
    """Paths from the experiment builders carry a roofline price model, so
    their energy is priced by utilization; every engine must charge it
    identically."""

    BATCH, TIMEOUT_S = 16, 0.002

    @pytest.fixture(scope="class")
    def scheduler(self):
        scheduler = build_schedulers(KAGGLE)["mp-rec"]
        assert all(path.price is not None for path in scheduler.paths)
        return scheduler

    @pytest.fixture(scope="class")
    def scenario(self):
        return ServingScenario.paper_default(n_queries=2000, qps=3000, seed=5)

    @pytest.fixture(scope="class")
    def tenant_scenario(self):
        """Strict and lenient tenants interleaved: a batch sheds its strict
        members and keeps its lenient ones."""
        return ServingScenario.multi_tenant([
            TenantSpec(name="strict", n_queries=1500, qps=10000.0,
                       sla_s=0.006, seed=1),
            TenantSpec(name="lenient", n_queries=1500, qps=10000.0,
                       sla_s=0.030, seed=2),
        ])

    def batched(self, scheduler, engine, batch=BATCH, timeout_s=TIMEOUT_S):
        return ServingSimulator(
            scheduler, shed_policy="deadline-aware", engine=engine,
            max_batch_size=batch, batch_timeout_s=timeout_s,
        )

    @pytest.mark.parametrize("case, batch, timeout_s", [
        pytest.param("paper", BATCH, TIMEOUT_S, id="paper"),
        # The node-fastday benchmark's batch shape.
        pytest.param("tenants", 128, 0.004, id="tenants"),
        # TABLE(GPU) carries no price model: the fast path prices the
        # priced paths and the half-TDP fallback after the same loop.
        pytest.param("mixed", BATCH, TIMEOUT_S, id="mixed"),
    ])
    def test_fast_path_matches_kernel(
        self, scheduler, scenario, tenant_scenario, case, batch, timeout_s,
    ):
        if case == "tenants":
            scenario = tenant_scenario
        if case == "mixed":
            scheduler = MultiPathScheduler([
                dataclasses.replace(path, price=None)
                if path.label == "TABLE(GPU)" else path
                for path in scheduler.paths
            ], scheduler.preference)
        kernel = self.batched(scheduler, "event", batch, timeout_s).run(
            scenario
        )
        fast = self.batched(scheduler, "fast", batch, timeout_s).run(
            scenario
        )
        assert kernel.total_energy_j > 0
        assert fast.records == kernel.records
        if case == "mixed":
            unpriced = {p.label for p in scheduler.paths if p.price is None}
            served = [r for r in kernel.records if not r.dropped]
            assert {r.path_label in unpriced for r in served} == {True, False}
            assert all(r.energy_j > 0 for r in served)
        if case == "tenants":
            # Some batch shed members that are not a prefix of it: the
            # fast path reorders its rows (shed first, then survivors),
            # and its strictest-SLA check failed.
            by_index = {r.index: r for r in kernel.records}
            queries = scenario.queries.queries
            starts, ends, _ = plan_batches(
                np.array([q.arrival_s for q in queries]), batch, timeout_s,
            )
            reordered = 0
            for start, end in zip(starts.tolist(), ends.tolist()):
                dropped = [
                    by_index[q.index].dropped for q in queries[start:end]
                ]
                shed = sum(dropped)
                if 0 < shed < len(dropped) and not all(dropped[:shed]):
                    reordered += 1
            assert reordered > 0

    def test_partially_shed_batch_is_repriced(self, scheduler, scenario):
        """A batch that loses members to shedding is charged the power and
        service time of its surviving samples."""
        records = self.batched(scheduler, "event").run(scenario).records
        by_index = {r.index: r for r in records}
        paths = {path.label: path for path in scheduler.paths}
        queries = scenario.queries.queries
        starts, ends, _ = plan_batches(
            np.array([q.arrival_s for q in queries]), self.BATCH,
            self.TIMEOUT_S,
        )
        partial = 0
        for start, end in zip(starts.tolist(), ends.tolist()):
            members = [by_index[q.index] for q in queries[start:end]]
            served = [r for r in members if not r.dropped]
            if not served or len(served) == len(members):
                continue
            partial += 1
            path = paths[served[0].path_label]
            size = sum(r.size for r in served)
            assert sum(r.energy_j for r in served) == pytest.approx(
                path.price.power(size) * path.latency(size), rel=1e-12
            )
        assert partial > 0

    @pytest.mark.parametrize("shed_policy", ["none", "drop-late"])
    def test_unbatched_kernel_matches_reference(
        self, scheduler, scenario, shed_policy
    ):
        ref = ReferenceSimulator(scheduler, shed_policy=shed_policy).run(
            scenario
        )
        new = ServingSimulator(scheduler, shed_policy=shed_policy).run(
            scenario
        )
        assert ref.total_energy_j > 0
        assert new.records == ref.records


class TestBatching:
    def test_simultaneous_arrivals_coalesce(self):
        """Two queries arriving together share one device pass: with a flat
        latency profile both finish when one would."""
        sim = ServingSimulator(
            StaticScheduler([flat_path()]), track_energy=False,
            max_batch_size=2,
        )
        res = sim.run(scenario_of([10, 10], gap_s=0.0))
        finishes = [r.finish_s for r in res.records]
        assert finishes[0] == finishes[1] == pytest.approx(0.1)

    def test_unbatched_queries_queue_sequentially(self):
        sim = ServingSimulator(StaticScheduler([flat_path()]), track_energy=False)
        res = sim.run(scenario_of([10, 10], gap_s=0.0))
        assert sorted(r.finish_s for r in res.records) == pytest.approx([0.1, 0.2])

    def test_timeout_delays_dispatch(self):
        """A lone query waits out the batch timeout before being served."""
        sim = ServingSimulator(
            StaticScheduler([flat_path()]), track_energy=False,
            max_batch_size=8, batch_timeout_s=0.05,
        )
        res = sim.run(scenario_of([10]))
        assert res.records[0].start_s == pytest.approx(0.05)
        assert res.records[0].finish_s == pytest.approx(0.15)

    def test_full_batch_dispatches_before_timeout(self):
        sim = ServingSimulator(
            StaticScheduler([flat_path()]), track_energy=False,
            max_batch_size=2, batch_timeout_s=10.0,
        )
        res = sim.run(scenario_of([10, 10], gap_s=0.001))
        # Dispatch fires on the second arrival, not after the 10 s timeout.
        assert max(r.start_s for r in res.records) == pytest.approx(0.001)

    def test_queries_straddling_timeout_split_batches(self):
        sim = ServingSimulator(
            StaticScheduler([flat_path()]), track_energy=False,
            max_batch_size=8, batch_timeout_s=0.01,
        )
        # Arrivals at 0 and 0.5: the first flushes alone at t=0.01.
        res = sim.run(scenario_of([10, 10], gap_s=0.5))
        starts = sorted(r.start_s for r in res.records)
        assert starts[0] == pytest.approx(0.01)
        assert starts[1] == pytest.approx(0.51)

    def test_batch_energy_split_by_sample_share(self):
        sim = ServingSimulator(
            StaticScheduler([flat_path()]), max_batch_size=2,
        )
        res = sim.run(scenario_of([30, 10], gap_s=0.0))
        by_index = {r.index: r for r in res.records}
        assert by_index[0].energy_j == pytest.approx(3 * by_index[1].energy_j)
        assert res.total_energy_j > 0

    def test_amortization_beats_sequential_service(self):
        """The batched pass finishes before two sequential passes would."""
        sim = ServingSimulator(
            StaticScheduler([flat_path()]), track_energy=False,
            max_batch_size=4,
        )
        batched = sim.run(scenario_of([10] * 4, gap_s=0.0))
        assert batched.makespan_s < 4 * 0.1


class TestShedding:
    def test_deadline_aware_drops_unservable_queries(self):
        """Service alone exceeds the SLA: deadline-aware sheds everything,
        drop-late (wait-based) serves it all."""
        scenario = scenario_of([10] * 5, gap_s=1.0, sla_s=0.010)
        scheduler = StaticScheduler([flat_path(base_latency=0.05)])
        aware = ServingSimulator(
            scheduler, track_energy=False, shed_policy="deadline-aware"
        ).run(scenario)
        late = ServingSimulator(
            scheduler, track_energy=False, shed_policy="drop-late"
        ).run(scenario)
        assert aware.drop_rate == 1.0
        assert late.drop_rate == 0.0

    def test_dropped_records_shape(self):
        scenario = scenario_of([10] * 3, gap_s=0.0, sla_s=0.010)
        sim = ServingSimulator(
            StaticScheduler([flat_path(base_latency=0.05)]),
            track_energy=False, shed_policy="deadline-aware",
        )
        res = sim.run(scenario)
        for r in res.records:
            assert r.dropped
            assert r.path_label == "DROPPED"
            assert r.finish_s == r.arrival_s

    def test_shed_batch_shrinks_service_time(self):
        """Admitted-only sizing: when part of a batch is shed the pass is
        costed on the surviving samples, not the original batch."""
        # q0 waits out the full 20 ms flush timeout (> its 10 ms SLA) and
        # is shed at dispatch; q1, arriving at 15 ms, has only waited 5 ms.
        queries = [
            Query(index=0, size=10, arrival_s=0.0),
            Query(index=1, size=10, arrival_s=0.015),
        ]
        scenario = ServingScenario(queries=QuerySet(queries=queries), sla_s=0.010)
        path = fake_path("table", CPU_BROADWELL, 80.0, 1e-3, per_sample=1e-3)
        sim = ServingSimulator(
            StaticScheduler([path]), track_energy=False,
            shed_policy="drop-late", max_batch_size=8, batch_timeout_s=0.020,
        )
        res = sim.run(scenario)
        by_index = {r.index: r for r in res.records}
        assert by_index[0].dropped and not by_index[1].dropped
        # Service was priced on q1's 10 samples, not the batch's 20.
        assert by_index[1].finish_s == pytest.approx(0.020 + path.latency(10))


class TestStreamingRun:
    def test_matches_record_run_counters(self):
        scenario = ServingScenario.paper_default(n_queries=300, qps=3000, seed=9)
        scheduler = StaticScheduler([flat_path(base_latency=0.002)])
        sim = ServingSimulator(
            scheduler, track_energy=False,
            max_batch_size=4, batch_timeout_s=0.001,
        )
        exact = sim.run(scenario)
        stream = sim.run_streaming(scenario)
        assert stream.raw_throughput == exact.raw_throughput
        assert stream.violation_rate == exact.violation_rate
        assert stream.drop_rate == exact.drop_rate
        assert stream.switching_breakdown() == exact.switching_breakdown()


class TestMultiTenant:
    def two_tenant_scenario(self):
        return ServingScenario.multi_tenant([
            TenantSpec(name="feed", n_queries=50, qps=500.0, sla_s=0.010, seed=1),
            TenantSpec(name="ads", n_queries=50, qps=500.0, sla_s=10.0, seed=2),
        ])

    def test_merged_ordering_and_tags(self):
        scenario = self.two_tenant_scenario()
        arrivals = [q.arrival_s for q in scenario.queries]
        assert arrivals == sorted(arrivals)
        assert [q.index for q in scenario.queries] == list(range(100))
        assert {q.tenant for q in scenario.queries} == {"feed", "ads"}

    def test_sla_for_resolves_tenant(self):
        scenario = self.two_tenant_scenario()
        assert scenario.sla_s == 0.010  # strictest tenant
        feed = next(q for q in scenario.queries if q.tenant == "feed")
        ads = next(q for q in scenario.queries if q.tenant == "ads")
        assert scenario.sla_for(feed) == 0.010
        assert scenario.sla_for(ads) == 10.0

    def test_untagged_query_uses_scenario_sla(self):
        scenario = ServingScenario.paper_default(n_queries=10)
        assert scenario.sla_for(scenario.queries.queries[0]) == scenario.sla_s

    def test_lenient_tenant_survives_shedding(self):
        """Per-tenant SLAs reach the policy: under backlog the strict
        tenant is shed while the lenient one is served."""
        scenario = self.two_tenant_scenario()
        sim = ServingSimulator(
            StaticScheduler([flat_path(base_latency=0.05)]),
            track_energy=False, shed_policy="deadline-aware",
        )
        res = sim.run(scenario)
        by_tenant = {"feed": [], "ads": []}
        for record, query in zip(
            sorted(res.records, key=lambda r: r.index),
            scenario.queries,
        ):
            by_tenant[query.tenant].append(record.dropped)
        assert all(by_tenant["feed"])  # 50 ms service can never meet 10 ms
        assert not any(by_tenant["ads"])

    def test_exact_and_streaming_agree_on_tenant_slas(self):
        """Record-backed metrics honor per-tenant SLAs exactly like the
        streaming mode: a lax tenant's slow-but-compliant queries must not
        be reported as violations of the strict tenant's target."""
        scenario = self.two_tenant_scenario()
        sim = ServingSimulator(
            StaticScheduler([flat_path(base_latency=0.05)]), track_energy=False
        )
        exact = sim.run(scenario)
        stream = sim.run_streaming(scenario)
        assert exact.violation_rate == stream.violation_rate
        assert exact.compliant_correct_throughput == (
            stream.compliant_correct_throughput
        )
        # 50 ms service violates feed's 10 ms SLA on every query but ads'
        # 10 s target on none of them.
        assert 0.0 < exact.violation_rate < 1.0

    def test_single_sla_records_carry_no_override(self):
        """Paper-default runs keep sla_s=None on records, preserving
        bit-for-bit reference equivalence."""
        scenario = ServingScenario.paper_default(n_queries=20)
        sim = ServingSimulator(StaticScheduler([flat_path()]), track_energy=False)
        assert all(r.sla_s is None for r in sim.run(scenario).records)

    def test_default_seeds_give_independent_tenant_streams(self):
        """Tenants left on the default seed must not draw colliding
        arrival streams (identical seeds once made every arrival a
        simultaneous cross-tenant pair)."""
        scenario = ServingScenario.multi_tenant([
            TenantSpec(name="feed", n_queries=50, qps=500.0, sla_s=0.010),
            TenantSpec(name="ads", n_queries=50, qps=500.0, sla_s=0.025),
        ])
        by_tenant = {"feed": [], "ads": []}
        for q in scenario.queries:
            by_tenant[q.tenant].append(q.arrival_s)
        assert set(by_tenant["feed"]).isdisjoint(by_tenant["ads"])

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError):
            ServingScenario.multi_tenant([
                TenantSpec(name="a", n_queries=1, qps=1.0, sla_s=0.1),
                TenantSpec(name="a", n_queries=1, qps=1.0, sla_s=0.2),
            ])

    def test_empty_tenant_list_rejected(self):
        with pytest.raises(ValueError):
            ServingScenario.multi_tenant([])


class TestNonFiniteArrivals:
    """A NaN or infinite arrival has no place in time order: every entry
    point rejects it by name instead of crashing inside P² or returning
    a NaN tail."""

    @pytest.fixture(scope="class")
    def scheduler(self):
        return build_schedulers(KAGGLE)["mp-rec"]

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("entry", [
        "arrays-streaming", "arrays-records", "event-run",
        "event-streaming", "fast-run", "fast-streaming", "cluster-run",
    ])
    def test_rejected_at_entry(self, scheduler, entry, arrival):
        scenario = ServingScenario.paper_default(n_queries=2000, qps=3000,
                                                 seed=5)
        queries = list(scenario.queries)
        queries[1000] = dataclasses.replace(queries[1000], arrival_s=arrival)
        scenario = ServingScenario(queries=QuerySet(queries=queries),
                                   sla_s=scenario.sla_s)
        with pytest.raises(ValueError, match="arrival_s"):
            if entry.startswith("arrays"):
                serve_arrays(scheduler, scenario.queries.as_arrays(),
                             max_batch_size=16, batch_timeout_s=0.002,
                             streaming=entry == "arrays-streaming")
            elif entry == "cluster-run":
                plan = greedy_shard(KAGGLE.cardinalities, 16, 2)
                ClusterSimulator(scheduler, plan).run(scenario)
            else:
                sim = ServingSimulator(scheduler, engine=entry.split("-")[0],
                                       max_batch_size=16,
                                       batch_timeout_s=0.002)
                if entry.endswith("streaming"):
                    sim.run_streaming(scenario)
                else:
                    sim.run(scenario)


class TestDispatchWorkCounts:
    """Counted work of a dispatch, not a wall clock, on the node-kernel
    shape (20,000 queries, deadline-aware shedding, energy on) and the
    geo-failover shape (3 regions of 2 nodes, region 1 failing). The
    kernel routes through the compiled rule, so it never builds a
    per-candidate decision nor rescans the routed device; it prices each
    (path, size) once per run, service time and power alike; and it
    builds no record until ``records`` is read. The price table is per
    run, so a second run of the same simulator does the same work."""

    @staticmethod
    def watch(monkeypatch):
        calls = Counter()
        keys = {"latency": set(), "power": set()}

        def count(owner, name, attr=None, key=None, key_of=None):
            original = getattr(owner, name)

            def counted(self, *args):
                calls[attr or name] += 1
                if key is not None:
                    keys[key].add(key_of(self, *args))
                return original(self, *args)

            monkeypatch.setattr(owner, name, counted)

        count(Scheduler, "_decision")
        count(DeviceTimeline, "earliest")
        count(PathProfile, "latency")
        count(PriceModel, "power")
        count(QueryRecord, "__init__", attr="records")
        # The run's distinct (path, size) keys: every size a path is
        # priced at, and every admitted size a batch commits on a path.
        count(ExecutionPath, "latency", attr="path_latency", key="latency",
              key_of=lambda path, size: (id(path), size))
        count(Scheduler, "on_batch_dispatched", attr="dispatched",
              key="power", key_of=lambda _, path, size, *__: (id(path), size))
        return calls, keys

    def check_twice(self, calls, keys, run, read):
        seen = []
        for _ in range(2):
            calls.clear()
            for distinct in keys.values():
                distinct.clear()
            result = run()
            assert calls["_decision"] == calls["earliest"] == 0
            assert 0 < calls["latency"] <= len(keys["latency"])
            assert 0 < calls["power"] <= len(keys["power"])
            assert calls["records"] == 0
            records, n = read(result)
            assert len(records) == n == calls["records"]
            seen.append(dict(calls))
        assert seen[0] == seen[1]

    def test_node_kernel_shape(self, monkeypatch):
        calls, keys = self.watch(monkeypatch)
        sim = ServingSimulator(
            build_schedulers(KAGGLE)["mp-rec"], **FASTDAY_SERVING
        )
        scenario = ServingScenario(
            queries=generate_query_set(**FASTDAY_STREAM), sla_s=0.010
        )

        def read(result):
            assert 0.0 < result.summary()["drop_rate"]  # shed re-pricing ran
            return result.records, len(scenario.queries)

        self.check_twice(calls, keys, lambda: sim.run(scenario), read)

    def test_geo_failover_shape(self, monkeypatch):
        calls, keys = self.watch(monkeypatch)
        scenario, region_of = follow_the_sun_scenario(
            n_regions=3, n_queries=1500, qps=4500.0, seed=1
        )
        fail_at = scenario.queries[len(scenario.queries) // 4].arrival_s
        sim = build_regions(
            KAGGLE, 3, nodes_per_region=2, geo_router="spill",
            region_replication=2, fail_region=1, fail_at=fail_at,
            region_cache_bytes=1 << 20, cache_bytes=1 << 20,
            max_batch_size=16, batch_timeout_s=0.002,
        )

        def read(res):
            assert res.rehomed > 0 and res.spills > 0
            res.summary()
            return res.result.records, len(scenario.queries)

        self.check_twice(
            calls, keys, lambda: sim.run(scenario, region_of), read
        )
