"""Engine scale checks: kernel batching, the array fast path, a full day.

Three pinned perf floors over one 100k-query production-rate scenario,
plus the headline day-scale run:

- the event kernel with micro-batching simulates >= 5x the reference
  loop's queries per second of wall-clock (routing once per coalesced
  batch instead of once per query);
- the array fast path (:mod:`repro.serving.fastpath`) in streaming mode
  clears >= 50x the reference loop while reproducing the kernel's
  records bit for bit;
- a 10M-query diurnal *production day* (:func:`serve_arrays` over a
  column stream, no Query objects anywhere) finishes inside the
  perf-smoke budget — pinned as >= 50x the reference loop's extrapolated
  wall-clock at the same query count.

Equivalence legs are exact-equality asserts; speed legs are pinned
ratios (both sides measured on the same machine in the same process, so
the ratio is stable where absolute wall-clock is not).
"""

import gc
import time
from collections import Counter

import pytest

from conftest import fmt_row

from repro.core.online import Scheduler
from repro.core.paths import PathProfile
from repro.data.queries import generate_query_arrays
from repro.experiments.setup import build_schedulers
from repro.models.configs import KAGGLE
from repro.serving.engine import EngineCore
from repro.serving.fastpath import serve_arrays
from repro.serving.simulator import ReferenceSimulator, ServingSimulator
from repro.serving.workload import ServingScenario

N_QUERIES = 100_000
QPS = 20_000.0
KERNEL_SPEEDUP_FLOOR = 5.0
FASTPATH_SPEEDUP_FLOOR = 50.0

# The production day: 10M queries through a diurnal arrival process whose
# peaks brush the node's capacity (deadline-aware shedding keeps the tail
# honest instead of letting the queue diverge).
DAY_QUERIES = 10_000_000
DAY_QPS = 24_000.0
DAY_PERIOD_S = 333.0
DAY_AMPLITUDE = 0.6
DAY_SPEEDUP_FLOOR = 50.0

BATCH_KWARGS = dict(max_batch_size=128, batch_timeout_s=0.004)


@pytest.fixture(scope="module")
def scale_scenario():
    return ServingScenario.paper_default(n_queries=N_QUERIES, qps=QPS, seed=7)


@pytest.fixture(scope="module")
def scheduler():
    return build_schedulers(KAGGLE)["mp-rec"]


@pytest.fixture(scope="module")
def t_reference(scale_scenario, scheduler):
    """Reference-loop wall-clock on the 100k scenario, measured once and
    shared by every speedup pin in this module."""
    t0 = time.perf_counter()
    ReferenceSimulator(scheduler, track_energy=False).run(scale_scenario)
    return time.perf_counter() - t0


def test_engine_equivalence_paper_default(record):
    """Batching disabled: the event engine is record-for-record identical
    to the seed loop on the paper's default scenario, shedding included."""
    scenario = ServingScenario.paper_default(n_queries=2000, seed=11)
    scheduler = build_schedulers(KAGGLE)["mp-rec"]
    for shed_policy in ("none", "drop-late"):
        reference = ReferenceSimulator(scheduler, shed_policy=shed_policy)
        engine = ServingSimulator(scheduler, shed_policy=shed_policy)
        assert engine.run(scenario).records == reference.run(scenario).records
    record(
        "Engine equivalence (paper default, 2000 queries)",
        ["event engine == reference loop, policies: none, drop-late"],
    )


def test_engine_scale_speedup(
    benchmark, record, scale_scenario, scheduler, t_reference
):
    def run_scale():
        sim = ServingSimulator(scheduler, track_energy=False, **BATCH_KWARGS)
        t0 = time.perf_counter()
        batched = sim.run(scale_scenario)
        t_batched = time.perf_counter() - t0
        t0 = time.perf_counter()
        streamed = sim.run_streaming(scale_scenario)
        t_streaming = time.perf_counter() - t0
        return t_batched, t_streaming, batched, streamed

    t_batched, t_streaming, batched, streamed = benchmark.pedantic(
        run_scale, rounds=1, iterations=1
    )
    speedup = t_reference / t_batched
    counters_match = (
        streamed.raw_throughput == batched.raw_throughput
        and streamed.violation_rate == batched.violation_rate
    )
    record(
        f"Engine scale: {N_QUERIES} queries @ {QPS:.0f} QPS",
        [],
        volatile=[
            fmt_row("reference", wall_s=t_reference,
                    qps=N_QUERIES / t_reference),
            fmt_row("batched", wall_s=t_batched, qps=N_QUERIES / t_batched,
                    speedup=speedup),
            fmt_row("streaming", wall_s=t_streaming,
                    qps=N_QUERIES / t_streaming,
                    speedup=t_reference / t_streaming),
        ],
        checks=[
            (f"batched engine >= {KERNEL_SPEEDUP_FLOOR:.0f}x reference "
             "wall-clock (pinned floor)", speedup >= KERNEL_SPEEDUP_FLOOR),
            ("streaming counters == record-backed counters", counters_match),
        ],
    )

    assert speedup >= KERNEL_SPEEDUP_FLOOR
    # Streaming mode agrees with the record-backed run on exact counters.
    assert counters_match


def test_fastpath_scale_speedup(
    benchmark, record, scale_scenario, scheduler, t_reference
):
    """The array fast path at engine scale: records bit-equal to the
    kernel, streaming wall-clock pinned at >= 50x the reference loop."""
    kernel = ServingSimulator(
        scheduler, track_energy=False, **BATCH_KWARGS
    ).run(scale_scenario)
    fast_sim = ServingSimulator(
        scheduler, track_energy=False, engine="fast", **BATCH_KWARGS
    )

    def run_fast():
        t0 = time.perf_counter()
        records = fast_sim.run(scale_scenario)
        t_records = time.perf_counter() - t0
        t0 = time.perf_counter()
        streamed = fast_sim.run_streaming(scale_scenario)
        t_streaming = time.perf_counter() - t0
        return t_records, t_streaming, records, streamed

    t_records, t_streaming, records, streamed = benchmark.pedantic(
        run_fast, rounds=1, iterations=1
    )
    speedup = t_reference / t_streaming
    parity = records.records == kernel.records
    counters_match = (
        streamed.raw_throughput == records.raw_throughput
        and streamed.violation_rate == records.violation_rate
        and streamed.drop_rate == records.drop_rate
    )
    record(
        f"Fast path scale: {N_QUERIES} queries @ {QPS:.0f} QPS",
        [],
        volatile=[
            fmt_row("reference", wall_s=t_reference,
                    qps=N_QUERIES / t_reference),
            fmt_row("fast records", wall_s=t_records,
                    qps=N_QUERIES / t_records,
                    speedup=t_reference / t_records),
            fmt_row("fast streaming", wall_s=t_streaming,
                    qps=N_QUERIES / t_streaming, speedup=speedup),
        ],
        checks=[
            ("fast path records == event kernel records (bit-exact)",
             parity),
            ("fast streaming counters == fast record-backed counters",
             counters_match),
            (f"fast streaming >= {FASTPATH_SPEEDUP_FLOOR:.0f}x reference "
             "wall-clock (pinned floor)",
             speedup >= FASTPATH_SPEEDUP_FLOOR),
        ],
    )

    assert parity
    assert counters_match
    assert speedup >= FASTPATH_SPEEDUP_FLOOR


def test_fastpath_production_day(benchmark, record, scheduler, t_reference):
    """The headline: a 10M-query diurnal production day, column stream in,
    streaming metrics out, no per-query objects anywhere — pinned at
    >= 50x the reference loop's extrapolated wall-clock."""
    arrays = generate_query_arrays(
        DAY_QUERIES, qps=DAY_QPS, seed=7, process="diurnal",
        period_s=DAY_PERIOD_S, amplitude=DAY_AMPLITUDE,
    )

    def run_day():
        # Freeze the fixture heap (the 100k-object scenario and records
        # kept alive by the other legs): generational GC scans over those
        # unrelated objects otherwise dominate the measured loop 2-3x.
        gc.collect()
        gc.freeze()
        try:
            t0 = time.perf_counter()
            metrics = serve_arrays(
                scheduler, arrays, sla_s=0.010,
                shed_policy="deadline-aware",
                max_batch_size=256, batch_timeout_s=0.004,
                track_energy=False,
            )
            return time.perf_counter() - t0, metrics
        finally:
            gc.unfreeze()

    t_day, metrics = benchmark.pedantic(run_day, rounds=1, iterations=1)
    # The reference loop cannot hold 10M records; extrapolate its 100k
    # wall-clock linearly (charitable to the reference: its per-query
    # cost only grows with backlog).
    t_reference_day = t_reference * (DAY_QUERIES / N_QUERIES)
    speedup = t_reference_day / t_day
    record(
        f"Production day: {DAY_QUERIES:,} queries, diurnal @ "
        f"{DAY_QPS:.0f} QPS mean",
        [
            fmt_row("served", queries=metrics.n - metrics.n_dropped,
                    samples=metrics.total_samples),
            fmt_row("shed", queries=metrics.n_dropped,
                    drop_rate=metrics.drop_rate),
            fmt_row("latency", p50_ms=metrics.p50_latency_s * 1e3,
                    p99_ms=metrics.p99_latency_s * 1e3),
            fmt_row("day", makespan_s=metrics.makespan_s,
                    violation_rate=metrics.violation_rate),
        ],
        volatile=[
            fmt_row("fast path", wall_s=t_day, qps=DAY_QUERIES / t_day),
            fmt_row("reference (extrapolated)", wall_s=t_reference_day),
            fmt_row("speedup", ratio=speedup),
        ],
        checks=[
            (f"day sim >= {DAY_SPEEDUP_FLOOR:.0f}x extrapolated reference "
             "wall-clock (pinned floor)", speedup >= DAY_SPEEDUP_FLOOR),
            ("diurnal peaks shed work but the day stays healthy "
             "(0 < drop rate < 5%)", 0.0 < metrics.drop_rate < 0.05),
        ],
    )

    assert speedup >= DAY_SPEEDUP_FLOOR
    assert 0.0 < metrics.drop_rate < 0.05
    # Every query is accounted: served + shed == generated.
    assert metrics.n == DAY_QUERIES


def test_engine_scale_counted_work(monkeypatch):
    """The counted twin of the kernel's wall-clock floor, on the module's
    shape at 20,000 queries: the reference loop routes every query
    through ``select``, the kernel routes once per dispatched batch, and
    the reference evaluates at least ``KERNEL_SPEEDUP_FLOOR`` times as
    many candidate paths (``_decision`` calls, each pricing one) as the
    kernel prices (``PathProfile.latency`` calls: the kernel routes
    through the compiled rule, which builds no per-candidate decision)."""
    n_queries = 20_000
    scenario = ServingScenario.paper_default(
        n_queries=n_queries, qps=QPS, seed=7
    )
    scheduler = build_schedulers(KAGGLE)["mp-rec"]
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(Scheduler, "select")
    count(Scheduler, "_decision")
    ReferenceSimulator(scheduler, track_energy=False).run(scenario)
    reference = calls.copy()
    calls.clear()
    count(EngineCore, "dispatch")
    count(Scheduler, "select_batch")
    count(PathProfile, "latency")
    ServingSimulator(scheduler, track_energy=False, **BATCH_KWARGS).run(
        scenario
    )
    assert reference["select"] == n_queries
    assert 0 < calls["select_batch"] == calls["dispatch"]
    assert 0 < calls["latency"]
    assert reference["_decision"] >= KERNEL_SPEEDUP_FLOOR * calls["latency"]
