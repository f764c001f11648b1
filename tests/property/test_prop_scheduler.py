"""Property-based invariants of Algorithm 2 and the serving simulator."""

import numpy as np
from hypothesis import given, strategies as st

from tests.property.budget import prop_settings

from repro.core.online import (
    PREFERENCE_ORDER,
    GreedyLatencyScheduler,
    MultiPathScheduler,
    StaticScheduler,
    TableSwitchScheduler,
)
from repro.data.queries import Query, QuerySet
from repro.hardware.catalog import CPU_BROADWELL, GPU_V100, TPU_V3_BOARD
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import ServingScenario

from tests.unit.test_online import fake_path, idle

latencies = st.floats(min_value=1e-4, max_value=0.05)
slas = st.floats(min_value=1e-3, max_value=0.5)
sizes = st.integers(min_value=1, max_value=4096)


def build_paths(table_lat, dhe_lat, hybrid_lat):
    return [
        fake_path("table", CPU_BROADWELL, 78.79, table_lat, label="T"),
        fake_path("dhe", GPU_V100, 78.94, dhe_lat, label="D"),
        fake_path("hybrid", GPU_V100, 78.98, hybrid_lat, label="H"),
    ]


@prop_settings(80)
@given(t=latencies, d=latencies, h=latencies, sla=slas, size=sizes)
def test_scheduler_always_returns_a_path(t, d, h, sla, size):
    paths = build_paths(t, d, h)
    sched = MultiPathScheduler(paths)
    decision = sched.select(size, sla, 0.0, idle(paths))
    assert decision.path in paths


@prop_settings(80)
@given(t=latencies, d=latencies, h=latencies, sla=slas, size=sizes)
def test_feasible_selection_is_most_preferred_feasible(t, d, h, sla, size):
    """If the chosen path meets the SLA, no more-preferred kind also did."""
    paths = build_paths(t, d, h)
    sched = MultiPathScheduler(paths)
    decision = sched.select(size, sla, 0.0, idle(paths))
    order = ["hybrid", "dhe", "select", "table"]
    if decision.finish_after_arrival_s <= sla:
        chosen_rank = order.index(decision.path.kind)
        for path in paths:
            if order.index(path.kind) < chosen_rank:
                assert path.latency(size) > sla


@prop_settings(50)
@given(
    n_queries=st.integers(min_value=1, max_value=40),
    gap_ms=st.floats(min_value=0.0, max_value=20.0),
    t=latencies,
    seed=st.integers(0, 1000),
)
def test_simulator_conservation_and_ordering(n_queries, gap_ms, t, seed):
    """Every query is served exactly once; service intervals on one device
    never overlap; latency >= service time."""
    rng = np.random.default_rng(seed)
    path = fake_path("table", CPU_BROADWELL, 78.79, t, label="T")
    queries = [
        Query(index=i, size=int(rng.integers(1, 512)), arrival_s=i * gap_ms / 1e3)
        for i in range(n_queries)
    ]
    scenario = ServingScenario(queries=QuerySet(queries=queries), sla_s=0.01)
    result = ServingSimulator(StaticScheduler([path]), track_energy=False).run(scenario)

    assert len(result.records) == n_queries
    assert sorted(r.index for r in result.records) == list(range(n_queries))
    intervals = sorted((r.start_s, r.finish_s) for r in result.records)
    for (s1, f1), (s2, f2) in zip(intervals, intervals[1:]):
        assert s2 >= f1 - 1e-12  # single server: no overlap
    for record in result.records:
        assert record.finish_s >= record.start_s >= record.arrival_s


# ---- one rule, four settings ---------------------------------------------
#
# The four per-class ``select`` bodies that ``Scheduler.select`` replaced,
# kept verbatim as oracles: each built-in scheduler's settings must route
# exactly as its own rule did, ties included.


def multipath_select(self, query_size, sla_s, now, free_at):
    for kind in self.preference:
        candidates = [p for p in self.paths if p.kind == kind]
        feasible = [
            d
            for d in (
                self._decision(p, query_size, now, free_at) for p in candidates
            )
            if d.finish_after_arrival_s <= sla_s
        ]
        if feasible:
            # Highest accuracy first, earliest finish as tie-break.
            return max(
                feasible,
                key=lambda d: (d.path.accuracy, -d.finish_after_arrival_s),
            )
    # Nothing meets the SLA: preserve throughput with the fastest table
    # path (or fastest overall if no table path exists).
    tables = [p for p in self.paths if p.kind == "table"] or self.paths
    decisions = [self._decision(p, query_size, now, free_at) for p in tables]
    return min(decisions, key=lambda d: d.finish_after_arrival_s)


def static_select(self, query_size, sla_s, now, free_at):
    return self._decision(self.paths[0], query_size, now, free_at)


def table_switch_select(self, query_size, sla_s, now, free_at):
    decisions = [self._decision(p, query_size, now, free_at) for p in self.paths]
    return min(decisions, key=lambda d: d.service_s)


def greedy_select(self, query_size, sla_s, now, free_at):
    decisions = [self._decision(p, query_size, now, free_at) for p in self.paths]
    return min(decisions, key=lambda d: d.finish_after_arrival_s)


KINDS = ("table", "dhe", "select", "hybrid")


@st.composite
def routing_states(draw):
    """1-6 paths over one or two devices (one of them a 4-server pool),
    every kind, with tied accuracies and tied latency profiles; and each
    device's slots, at, before and after ``now``, with ties."""
    pair = (CPU_BROADWELL, TPU_V3_BOARD)
    devices = draw(st.sampled_from([pair[:1], pair[1:], pair, pair]))
    now = draw(st.sampled_from([0.0, 0.01]))
    offset = st.sampled_from([-0.002, 0.0, 0.001, 0.003]) | st.floats(-0.01, 0.02)
    free_at = {}
    for d in devices:
        earliest = now + draw(offset)
        free_at[d.name] = [
            earliest + draw(st.sampled_from([0.0, 0.002]))
            for _ in range(d.concurrency)
        ]
    paths = [
        fake_path(
            draw(st.sampled_from(("table",) + KINDS)),  # tables 2 in 5
            draw(st.sampled_from(devices)),
            draw(st.sampled_from([78.79, 78.94, 78.98])),
            draw(st.sampled_from([1e-3, 2e-3, 4e-3]) | latencies),
            label=f"P{i}",
        )
        for i in range(draw(st.integers(min_value=1, max_value=6)))
    ]
    return paths, now, free_at


@prop_settings(200)
@given(
    state=routing_states(),
    preference=st.permutations(KINDS).flatmap(
        lambda kinds: st.integers(0, len(kinds)).map(lambda k: kinds[:k])
    ) | st.just(PREFERENCE_ORDER),
    size=sizes,
    data=st.data(),
)
def test_settings_route_as_each_class_rule(state, preference, size, data):
    """Every built-in scheduler's ``select`` returns the decision its own
    rule returned: the same path object, service time and wait. The SLA
    is drawn at random or exactly at one path's projected finish."""
    paths, now, free_at = state
    finishes = [
        max(0.0, min(free_at[p.device.name]) - now) + p.latency(size)
        for p in paths
    ]
    sla = data.draw(slas | st.sampled_from(finishes), label="sla")
    cases = [
        (MultiPathScheduler(paths, preference), multipath_select),
        (StaticScheduler(paths[:1]), static_select),
        (GreedyLatencyScheduler(paths), greedy_select),
    ]
    if any(p.kind == "table" for p in paths):
        cases.append((TableSwitchScheduler(paths), table_switch_select))
    for sched, oracle in cases:
        got = sched.select(size, sla, now, free_at)
        want = oracle(sched, size, sla, now, free_at)
        assert got.path is want.path, sched.name
        assert (got.service_s, got.wait_s) == (want.service_s, want.wait_s)
