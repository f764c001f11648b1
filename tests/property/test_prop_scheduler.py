"""Property-based invariants of Algorithm 2 and the serving simulator."""

import math

import numpy as np
from hypothesis import given, strategies as st

from tests.property.budget import prop_settings

from repro.core.online import (
    PREFERENCE_ORDER,
    GreedyLatencyScheduler,
    MultiPathScheduler,
    PriceTable,
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


# ---- the compiled rule against ``select`` ----------------------------------
#
# The kernel routes through the compiled rule from ``select_batch``: it must
# return ``select``'s decision, and the slot the kernel used to scan with
# ``DeviceTimeline.earliest`` (its body kept verbatim as the oracle).


def oracle_earliest(pool):
    """``DeviceTimeline.earliest`` as it was: the first minimal slot."""
    free = min(pool)
    return pool.index(free), free


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def check_compiled(sched, size, sla, now, free_at):
    got = sched.select_batch(size, sla, now, free_at)
    want = sched.select(size, sla, now, free_at)
    assert got.path is want.path, sched.name
    assert same_float(got.service_s, want.service_s)
    assert same_float(got.wait_s, want.wait_s)
    server, free = oracle_earliest(free_at[got.path.device.name])
    assert got.slot[0] == server and same_float(got.slot[1], free)


@prop_settings(200)
@given(
    state=routing_states(),
    preference=st.permutations(KINDS).flatmap(
        lambda kinds: st.integers(0, len(kinds)).map(lambda k: kinds[:k])
    ) | st.just(PREFERENCE_ORDER),
    size=sizes,
    zeros=st.lists(st.booleans(), min_size=4, max_size=4),
    swap=st.none() | st.tuples(st.integers(0, 5), latencies),
    data=st.data(),
)
def test_compiled_select_batch_matches_select(
    state, preference, size, zeros, swap, data
):
    """Each built-in scheduler's compiled ``select_batch``, inside a
    kernel run (its prices in a ``PriceTable``) and outside one, returns
    ``select``'s path by identity, service time and wait, and the routed
    device's first earliest-free slot, ties and -0.0 slots included; and
    still does after ``on_switch_started`` swaps a path in mid-run."""
    paths, now, free_at = state
    if now == 0.0:
        for pool in free_at.values():
            for j in range(len(pool)):
                if zeros[j] and pool[j] <= 0.0:
                    pool[j] = -0.0
    finishes = [
        max(0.0, min(free_at[p.device.name]) - now) + p.latency(size)
        for p in paths
    ]
    sla = data.draw(slas | st.sampled_from(finishes), label="sla")
    cases = [
        MultiPathScheduler(paths, preference),
        StaticScheduler(paths[:1]),
        GreedyLatencyScheduler(paths),
    ]
    if any(p.kind == "table" for p in paths):
        cases.append(TableSwitchScheduler(paths))
    for sched in cases:
        check_compiled(sched, size, sla, now, free_at)  # outside a run
        sched._open_run(PriceTable())
        try:
            check_compiled(sched, size, sla, now, free_at)
            if swap is not None:
                k, latency = swap
                old = sched.paths[k % len(sched.paths)]
                new = fake_path(
                    old.kind, old.device, old.accuracy, latency,
                    label=f"{old.label}'",
                )
                sched.on_switch_started(old.device.name, old, new, now)
                check_compiled(sched, size, sla, now, free_at)
        finally:
            sched._close_run()
