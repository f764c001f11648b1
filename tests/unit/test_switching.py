"""Runtime representation switching: controller hysteresis, timeline
blocking, scheduler hooks, and engine/cluster integration."""

import dataclasses
import math

import pytest

from repro.analysis.sharding import greedy_shard
from repro.core.online import MultiPathScheduler, StaticScheduler
from repro.core.switching import (
    SwitchController,
    estimate_load_s,
    estimate_teardown_s,
)
from repro.data.queries import Query, QuerySet
from repro.hardware.catalog import CPU_BROADWELL, GPU_V100
from repro.serving.cluster import ClusterSimulator
from repro.serving.devices import DeviceTimeline
from repro.serving.engine import EngineCore, EventLoop
from repro.serving.policies import NoShed
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import ServingScenario

from tests.unit.test_online import fake_path

NAN = float("nan")


def scenario_of(sizes, gap_s=0.01, sla_s=0.020):
    queries = [
        Query(index=i, size=s, arrival_s=i * gap_s) for i, s in enumerate(sizes)
    ]
    return ServingScenario(queries=QuerySet(queries=queries), sla_s=sla_s)


def slow_accurate():
    return fake_path("hybrid", GPU_V100, 85.0, 0.050, per_sample=0, label="HYB")


def fast_coarse():
    return fake_path("table", GPU_V100, 80.0, 0.004, per_sample=0, label="TBL")


def controller(resident_fast=False, **kwargs):
    paths = [slow_accurate(), fast_coarse()]
    if resident_fast:
        paths.reverse()
    kwargs.setdefault("load_s", 0.010)
    kwargs.setdefault("teardown_s", 0.002)
    return paths[0], SwitchController({GPU_V100.name: paths}, **kwargs)


def make_core(resident, ctrl):
    return EngineCore(StaticScheduler([resident]), NoShed(), switcher=ctrl)


class TestValidation:
    def test_rejects_empty_candidates(self):
        with pytest.raises(ValueError):
            SwitchController({})
        with pytest.raises(ValueError):
            SwitchController({GPU_V100.name: []})

    def test_rejects_candidate_on_wrong_device(self):
        with pytest.raises(ValueError, match="lives on"):
            SwitchController({CPU_BROADWELL.name: [fast_coarse()]})

    def test_rejects_bad_hysteresis(self):
        paths = {GPU_V100.name: [fast_coarse(), slow_accurate()]}
        with pytest.raises(ValueError):
            SwitchController(paths, lo_pressure=0.9, hi_pressure=0.5)
        with pytest.raises(ValueError):
            SwitchController(paths, patience=0)
        with pytest.raises(ValueError):
            SwitchController(paths, cooldown_s=-1.0)
        # NaN fails every check; a bad switch window fails at
        # construction, not inside DeviceTimeline.block at the first swap.
        bad = [
            {"cooldown_s": NAN}, {"headroom": NAN}, {"util_hi": NAN},
            {"load_s": NAN}, {"load_s": -0.5}, {"load_s": math.inf},
            {"teardown_s": NAN}, {"teardown_s": -1.0},
            {"teardown_s": math.inf},
        ]
        for kwargs in bad:
            with pytest.raises(ValueError):
                SwitchController(paths, **kwargs)

    def test_accepts_infinite_cooldown_and_zero_windows(self):
        paths = {GPU_V100.name: [fast_coarse(), slow_accurate()]}
        ctrl = SwitchController(
            paths, cooldown_s=math.inf, load_s=0.0, teardown_s=0.0
        )
        assert ctrl.cooldown_s == math.inf

    def test_attach_requires_single_resident_per_device(self):
        table, hybrid = fast_coarse(), slow_accurate()
        ctrl = SwitchController({GPU_V100.name: [table, hybrid]})
        with pytest.raises(ValueError, match="exactly one resident"):
            EngineCore(
                MultiPathScheduler([table, hybrid]), NoShed(), switcher=ctrl
            )

    def test_attach_requires_known_device(self):
        _, ctrl = controller()
        cpu_only = StaticScheduler([fake_path("table", CPU_BROADWELL, 80.0, 1e-3)])
        with pytest.raises(ValueError, match="not in the scheduler"):
            EngineCore(cpu_only, NoShed(), switcher=ctrl)


class TestHysteresis:
    """Drive observe() directly with synthetic pressures."""

    def surge(self, ctrl, core, loop, scenario, now, n=1):
        resident = core.scheduler.paths[0]
        for _ in range(n):
            ctrl.observe(core, resident, wait_s=1.0, batch_size=1,
                         scenario=scenario, now=now, loop=loop)

    def test_patience_gates_the_switch(self):
        resident, ctrl = controller(patience=3)
        core = make_core(resident, ctrl)
        loop, scenario = EventLoop(), scenario_of([1])
        self.surge(ctrl, core, loop, scenario, now=0.0, n=2)
        assert ctrl.events == []
        self.surge(ctrl, core, loop, scenario, now=0.0, n=1)
        assert len(ctrl.events) == 1
        assert ctrl.events[0].to_label == "TBL"

    def test_mid_band_pressure_resets_the_streak(self):
        resident, ctrl = controller(patience=2, hi_pressure=0.75,
                                    lo_pressure=0.25)
        core = make_core(resident, ctrl)
        loop, scenario = EventLoop(), scenario_of([1], sla_s=1.0)
        path = core.scheduler.paths[0]
        ctrl.observe(core, path, wait_s=0.9, batch_size=1,
                     scenario=scenario, now=0.0, loop=loop)  # surge 1/2
        ctrl.observe(core, path, wait_s=0.5, batch_size=1,
                     scenario=scenario, now=0.0, loop=loop)  # mid band: reset
        ctrl.observe(core, path, wait_s=0.9, batch_size=1,
                     scenario=scenario, now=0.0, loop=loop)  # surge 1/2 again
        assert ctrl.events == []

    def test_no_reevaluation_while_switching_or_cooling(self):
        resident, ctrl = controller(patience=1, cooldown_s=5.0)
        core = make_core(resident, ctrl)
        loop, scenario = EventLoop(), scenario_of([1])
        self.surge(ctrl, core, loop, scenario, now=0.0, n=1)
        assert len(ctrl.events) == 1
        # In-flight switch: pressure is ignored entirely.
        self.surge(ctrl, core, loop, scenario, now=0.01, n=5)
        assert len(ctrl.events) == 1
        ready = ctrl.events[0].ready_s
        ctrl.complete(core, GPU_V100.name, ready)
        # Cooldown window: still frozen.
        self.surge(ctrl, core, loop, scenario, now=ready + 1.0, n=5)
        assert len(ctrl.events) == 1

    def test_fully_shed_batches_still_signal_pressure(self):
        """A device drowning so hard that every batch is shed must still
        feed the controller — otherwise it could never switch away."""
        resident, ctrl = controller(patience=2, cooldown_s=10.0)
        sim = ServingSimulator(
            StaticScheduler([resident]), track_energy=False,
            shed_policy="deadline-aware", switch_controller=ctrl,
        )
        res = sim.run(scenario_of([1] * 8, gap_s=0.0))
        # The 50 ms resident can never meet the 20 ms SLA: every query is
        # shed, yet the controller still swaps in the feasible candidate.
        assert all(r.dropped for r in res.records[:2])
        assert len(ctrl.events) == 1
        assert ctrl.events[0].to_label == "TBL"

    def test_surge_extrapolates_samples_to_full_query_batch(self):
        """Surge judges candidates at the samples a *full query batch*
        would carry — batch_size counts samples, the cap counts queries."""
        table = fake_path("table", GPU_V100, 79.0, 3e-4, per_sample=8e-4,
                          label="TBL2")
        hybrid = fake_path("hybrid", GPU_V100, 81.0, 5.5e-3, per_sample=5e-5,
                           label="HYB2")  # crossover at ~7 samples
        ctrl = SwitchController(
            {GPU_V100.name: [table, hybrid]}, patience=1,
            load_s=0.01, teardown_s=0.0,
        )
        core = EngineCore(
            StaticScheduler([table]), NoShed(), max_batch_size=4,
            switcher=ctrl,
        )
        loop, scenario = EventLoop(), scenario_of([1], sla_s=0.010)
        # 3 queries carrying 6 samples; a full 4-query batch would carry 8
        # samples — past the crossover, so surge must pick the hybrid.
        ctrl.observe(core, table, wait_s=1.0, batch_size=6,
                     scenario=scenario, now=0.0, loop=loop, batch_queries=3)
        assert len(ctrl.events) == 1
        assert ctrl.events[0].to_label == "HYB2"

    def test_switch_posts_completion_event(self):
        resident, ctrl = controller(patience=1)
        core = make_core(resident, ctrl)
        loop, scenario = EventLoop(), scenario_of([1])
        self.surge(ctrl, core, loop, scenario, now=0.0, n=1)
        time, _, kind, payload = loop.pop()
        from repro.serving.engine import SWITCH

        assert kind == SWITCH
        assert payload == (core.node_id, GPU_V100.name)
        assert time == pytest.approx(ctrl.events[0].ready_s)


class TestTimelineCharging:
    def test_block_drains_committed_work_first(self):
        timeline = DeviceTimeline([slow_accurate()])
        timeline.commit(GPU_V100.name, 0, 0.5)
        ready = timeline.block(GPU_V100.name, now=0.1, duration_s=0.2)
        assert ready == pytest.approx(0.7)
        assert timeline.free_at[GPU_V100.name] == [pytest.approx(0.7)]

    def test_block_rejects_nan_and_negative_windows(self):
        timeline = DeviceTimeline([slow_accurate()])
        timeline.commit(GPU_V100.name, 0, 0.5)
        for duration_s in (NAN, -0.1):
            with pytest.raises(ValueError, match="duration_s"):
                timeline.block(GPU_V100.name, now=0.1, duration_s=duration_s)
        # Nothing was written: the device still frees at 0.5.
        assert timeline.free_at[GPU_V100.name] == [0.5]
        assert timeline.earliest_free_delay(0.1) == pytest.approx(0.4)

    def test_block_from_idle_starts_now(self):
        timeline = DeviceTimeline([slow_accurate()])
        ready = timeline.block(GPU_V100.name, now=1.0, duration_s=0.25)
        assert ready == pytest.approx(1.25)

    def test_switch_overhead_delays_next_batch(self):
        """A query dispatched right after the switch starts behind the
        load/teardown window — overhead is visible in its records."""
        resident, ctrl = controller(
            patience=1, cooldown_s=10.0, load_s=0.5, teardown_s=0.1,
        )
        sim = ServingSimulator(
            StaticScheduler([resident]), track_energy=False,
            switch_controller=ctrl,
        )
        # Backlog: queries at t=0 x3 queue on the 50 ms path, pressure
        # spikes, the controller swaps to TBL paying 0.6 s.
        res = sim.run(scenario_of([1] * 4, gap_s=0.0))
        assert len(ctrl.events) == 1
        ready = ctrl.events[0].ready_s
        assert ctrl.events[0].overhead_s == pytest.approx(0.6)
        post = [r for r in res.records if r.start_s >= ready]
        assert post, "some query must serve after the switch window"
        assert {r.path_label for r in post} == {"TBL"}

    def test_total_overhead_accumulates(self):
        resident, ctrl = controller(patience=1, cooldown_s=0.0)
        core = make_core(resident, ctrl)
        loop, scenario = EventLoop(), scenario_of([1])
        TestHysteresis().surge(ctrl, core, loop, scenario, now=0.0, n=1)
        assert ctrl.total_overhead_s == pytest.approx(0.012)


class TestSchedulerHooks:
    def test_default_hook_swaps_resident_path(self):
        table, hybrid = fast_coarse(), slow_accurate()
        sched = StaticScheduler([table])
        sched.on_switch_started(GPU_V100.name, table, hybrid, 0.0)
        assert sched.paths == [hybrid]

    def test_hook_rejects_non_resident_source(self):
        table, hybrid = fast_coarse(), slow_accurate()
        sched = StaticScheduler([table])
        with pytest.raises(ValueError, match="not resident"):
            sched.on_switch_started(GPU_V100.name, hybrid, table, 0.0)

    def test_records_carry_new_label_after_switch(self):
        resident, ctrl = controller(patience=1, cooldown_s=100.0)
        sim = ServingSimulator(
            StaticScheduler([resident]), track_energy=False,
            switch_controller=ctrl,
        )
        res = sim.run(scenario_of([1] * 8, gap_s=0.0))
        labels = {r.path_label for r in res.records}
        assert labels == {"HYB", "TBL"}  # both residencies served traffic


class TestCalmUpswitch:
    def test_drained_queues_switch_to_higher_accuracy(self):
        """The ISSUE's table->hybrid direction: idle pressure swaps in the
        higher-accuracy representation when it still fits the SLA."""
        table = fast_coarse()
        hybrid = fake_path("hybrid", GPU_V100, 85.0, 0.008, per_sample=0,
                           label="HYB-OK")
        ctrl = SwitchController(
            {GPU_V100.name: [table, hybrid]},
            patience=2, cooldown_s=0.0, load_s=0.001, teardown_s=0.0,
        )
        sim = ServingSimulator(
            StaticScheduler([table]), track_energy=False,
            switch_controller=ctrl,
        )
        res = sim.run(scenario_of([1] * 6, gap_s=0.5, sla_s=0.020))
        assert any(e.to_label == "HYB-OK" for e in ctrl.events)
        assert any(r.path_label == "HYB-OK" for r in res.records)

    def test_infeasible_accurate_path_not_chosen_when_calm(self):
        """Calm mode never swaps in a representation that cannot meet the
        SLA headroom (the 50 ms hybrid vs a 20 ms target)."""
        resident, ctrl = controller(resident_fast=True, patience=1,
                                    cooldown_s=0.0)
        sim = ServingSimulator(
            StaticScheduler([resident]), track_energy=False,
            switch_controller=ctrl,
        )
        sim.run(scenario_of([1] * 6, gap_s=0.5))
        assert ctrl.events == []


class TestDeterminism:
    def test_reused_simulator_reproduces_runs(self):
        resident, ctrl = controller(patience=1, cooldown_s=0.05)
        sim = ServingSimulator(
            StaticScheduler([resident]), track_energy=False,
            switch_controller=ctrl,
        )
        scenario = scenario_of([1] * 12, gap_s=0.002)
        first = sim.run(scenario)
        first_events = list(ctrl.events)
        second = sim.run(scenario)
        assert second.records == first.records
        assert ctrl.events == first_events

    def test_clone_is_stateless(self):
        _, ctrl = controller()
        core = make_core(slow_accurate(), ctrl.clone())
        assert ctrl.events == []
        assert core.switcher.events == []
        assert core.switcher is not ctrl

    def test_clone_of_used_controller_keeps_config_drops_state(self):
        resident, ctrl = controller(patience=1, cooldown_s=5.0)
        core = make_core(resident, ctrl)
        ctrl.observe(core, resident, wait_s=1.0, batch_size=1,
                     scenario=scenario_of([1]), now=0.0, loop=EventLoop())
        assert ctrl.events and ctrl.switching(GPU_V100.name, 0.0)
        clone = ctrl.clone()
        for f in dataclasses.fields(SwitchController):
            if f.init:
                assert getattr(clone, f.name) == getattr(ctrl, f.name)
        assert clone.events == [] and clone.total_overhead_s == 0.0
        assert clone._initial is None and clone._resident == {}
        assert not clone.switching(GPU_V100.name, 0.0)
        # The candidate lists are the clone's own.
        assert clone.candidates[GPU_V100.name] is not (
            ctrl.candidates[GPU_V100.name]
        )


class TestClusterIntegration:
    def test_cluster_counts_switches_per_node(self):
        table, hybrid = fast_coarse(), slow_accurate()
        template = SwitchController(
            {GPU_V100.name: [hybrid, table]},
            patience=1, cooldown_s=10.0, load_s=0.010, teardown_s=0.002,
        )
        plan = greedy_shard([1000] * 4, 16, 2)
        sim = ClusterSimulator(
            StaticScheduler([slow_accurate()]), plan,
            router="round-robin", track_energy=False,
            switch_controller=template,
        )
        result = sim.run(scenario_of([1] * 40, gap_s=0.0))
        # Both nodes hit overload and switch independently.
        assert result.switches == 2
        assert result.switch_overhead_s == pytest.approx(0.024)
        # The template itself stays untouched.
        assert template.events == []
        assert "switches" in result.summary()

    def test_cluster_without_switching_reports_none(self):
        plan = greedy_shard([1000] * 4, 16, 2)
        sim = ClusterSimulator(
            StaticScheduler([fast_coarse()]), plan, track_energy=False
        )
        result = sim.run(scenario_of([1] * 10))
        assert result.switches == 0
        assert "switches" not in result.summary()


class TestOverheadEstimates:
    def test_estimates_scale_with_bytes_and_teardown_is_cheaper(self):
        from repro.core.profiler import make_path
        from repro.core.representations import paper_configs
        from repro.models.configs import KAGGLE

        configs = paper_configs(KAGGLE)
        table = make_path(configs["table"], KAGGLE, GPU_V100, 78.8)
        dhe = make_path(configs["dhe"], KAGGLE, GPU_V100, 78.9)
        assert estimate_load_s(table) > estimate_load_s(dhe)  # far more bytes
        assert estimate_teardown_s(table) < estimate_load_s(table)
        ctrl = SwitchController({GPU_V100.name: [table, dhe]})
        assert ctrl.switch_overhead_s(table, dhe) == pytest.approx(
            estimate_load_s(dhe) + estimate_teardown_s(table)
        )
