"""Unified control plane: configuration validation, the cost-based
arbitration rule, the demand-trend drain guard, the decision trace, the
switch/scale race it rules out, and the parity properties that collapse
the autopilot onto per-core switching and the static fleet."""

import numpy as np
import pytest

from repro.analysis.sharding import greedy_shard
from repro.core.online import StaticScheduler
from repro.core.paths import ExecutionPath, PathProfile
from repro.core.representations import RepresentationConfig
from repro.core.switching import SwitchController
from repro.data.queries import Query, QuerySet
from repro.hardware.catalog import GPU_V100
from repro.hardware.topology import ETHERNET_25G
from repro.serving.cluster import ClusterSimulator
from repro.serving.controlplane import (
    ACTION_CLASSES,
    CandidateCost,
    ControlPlane,
    format_decision,
)
from repro.serving.workload import ServingScenario

SLA_S = 0.015
SIZES = np.unique(np.geomspace(1, 4096, 25).astype(int)).astype(float)

# Thresholds no workload reaches: the plane (or a switch controller)
# classifies every tick but never accumulates enough evidence to act.
NEVER = {
    "hi_pressure": 1e9, "lo_pressure": 0.0,
    "patience": 10**9, "patience_down": 10**9,
}
# The switch controller has no separate calm patience.
SW_NEVER = {k: v for k, v in NEVER.items() if k != "patience_down"}


def accurate_path():
    return ExecutionPath(
        rep=RepresentationConfig("table", 16),
        device=GPU_V100,
        accuracy=79.5,
        profile=PathProfile(sizes=SIZES, latencies=0.0003 + 0.0012 * SIZES),
        label="ACCURATE",
    )


def fast_path():
    return ExecutionPath(
        rep=RepresentationConfig("dhe", 16, k=4, dnn=64, h=1),
        device=GPU_V100,
        accuracy=78.0,
        profile=PathProfile(sizes=SIZES, latencies=0.0003 + 0.0004 * SIZES),
        label="FAST",
    )


def burst_scenario(n=1500, qps=3000.0):
    queries = [
        Query(index=i, size=1, arrival_s=i / qps) for i in range(n)
    ]
    return ServingScenario(queries=QuerySet(queries=queries), sla_s=SLA_S)


def make_switcher(**kwargs):
    kwargs.setdefault("load_s", 0.002)
    kwargs.setdefault("teardown_s", 0.0005)
    return SwitchController(
        candidates={GPU_V100.name: [accurate_path(), fast_path()]}, **kwargs
    )


def autopilot_cluster(max_nodes=2, plane=None, switcher=None, **cluster_kwargs):
    plan = greedy_shard([40_000, 30_000, 20_000, 10_000], 16, max_nodes)
    cluster_kwargs.setdefault("max_batch_size", 8)
    cluster_kwargs.setdefault("batch_timeout_s", 0.004)
    return ClusterSimulator(
        StaticScheduler([accurate_path()]), plan,
        switch_controller=switcher, controlplane=plane, **cluster_kwargs,
    )


class TestValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ControlPlane(min_nodes=3, max_nodes=2)
        with pytest.raises(ValueError):
            ControlPlane(min_nodes=0, max_nodes=2)
        with pytest.raises(ValueError):
            ControlPlane(min_nodes=1, max_nodes=4, initial_nodes=5)
        with pytest.raises(ValueError):
            ControlPlane(min_nodes=2, max_nodes=4, initial_nodes=1)

    def test_initial_nodes_defaults_to_floor(self):
        assert ControlPlane(min_nodes=2, max_nodes=4).initial_nodes == 2

    def test_rejects_unknown_action_class(self):
        with pytest.raises(ValueError, match="unknown action classes"):
            ControlPlane(min_nodes=1, max_nodes=2, actions=("switch", "nap"))

    def test_action_subsets_allowed(self):
        plane = ControlPlane(min_nodes=1, max_nodes=2, actions=("scale",))
        assert plane.actions == ("scale",)
        assert ControlPlane(min_nodes=1, max_nodes=2, actions=()).actions == ()

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            ControlPlane(min_nodes=1, max_nodes=2,
                         lo_pressure=0.9, hi_pressure=0.5)
        with pytest.raises(ValueError):
            ControlPlane(min_nodes=1, max_nodes=2, patience=0)
        with pytest.raises(ValueError):
            ControlPlane(min_nodes=1, max_nodes=2, patience_down=0)
        with pytest.raises(ValueError):
            ControlPlane(min_nodes=1, max_nodes=2, cooldown_s=-1.0)
        with pytest.raises(ValueError):
            ControlPlane(min_nodes=1, max_nodes=2, horizon_s=0.0)
        with pytest.raises(ValueError):
            ControlPlane(min_nodes=1, max_nodes=2, node_cost_w=-1.0)

    def test_rejects_bad_schedule(self):
        with pytest.raises(ValueError, match="up/down"):
            ControlPlane(min_nodes=1, max_nodes=2,
                         schedule=((0.1, "sideways"),))
        with pytest.raises(ValueError):
            ControlPlane(min_nodes=1, max_nodes=2, schedule=((-0.1, "up"),))


class TestDemandTrend:
    """The two-horizon arrival-rate EWMA behind the drain guard."""

    def feed(self, plane, rates, dt=0.005, queries_scale=1.0):
        t = 0.0
        for rate in rates:
            plane._observe_demand(t, rate * dt * queries_scale)
            t += dt

    def plane(self):
        return ControlPlane(min_nodes=1, max_nodes=2)

    def test_steady_rate_settles_flat(self):
        plane = self.plane()
        self.feed(plane, [1000.0] * 4000)  # 20 s of steady 1 kq/s
        assert not plane._demand_rising()
        assert plane._demand_fast == pytest.approx(1000.0, rel=0.05)
        assert plane._demand_slow == pytest.approx(1000.0, rel=0.05)

    def test_rising_rate_reads_rising(self):
        plane = self.plane()
        self.feed(plane, [1000.0] * 4000)
        self.feed(plane, list(np.linspace(1000.0, 3000.0, 400)))
        assert plane._demand_rising()

    def test_falling_rate_reads_flat(self):
        plane = self.plane()
        self.feed(plane, [3000.0] * 4000)
        self.feed(plane, list(np.linspace(3000.0, 1000.0, 400)))
        assert not plane._demand_rising()

    def test_cold_start_reads_rising(self):
        # Both estimators warm from zero, the fast one first: early in a
        # run the trend is conservatively "rising" and drains hold off.
        plane = self.plane()
        self.feed(plane, [1000.0] * 20)
        assert plane._demand_rising()


class TestArbitration:
    """_choose and _demote: the rule that picks one action per tick."""

    def test_choose_picks_cheapest_feasible(self):
        best, execute = ControlPlane._choose([
            (CandidateCost("hold", 0.0, True, ""), None),
            (CandidateCost("switch:FAST", 0.01, True, ""), lambda: "sw"),
            (CandidateCost("scale:up", 102.0, True, ""), lambda: "up"),
            (CandidateCost("rewarm", 0.001, False, "blown"), None),
        ])
        assert best.action == "switch:FAST"
        assert execute() == "sw"

    def test_choose_savings_beat_costs(self):
        best, _ = ControlPlane._choose([
            (CandidateCost("hold", 0.0, True, ""), None),
            (CandidateCost("scale:down", -102.0, True, ""), lambda: None),
            (CandidateCost("reroute:x", -0.001, True, ""), lambda: None),
        ])
        assert best.action == "scale:down"

    def test_choose_tie_breaks_by_action_name(self):
        best, _ = ControlPlane._choose([
            (CandidateCost("reroute:b", 0.5, True, ""), lambda: None),
            (CandidateCost("reroute:a", 0.5, True, ""), lambda: None),
        ])
        assert best.action == "reroute:a"

    def test_choose_returns_none_when_nothing_feasible(self):
        best, execute = ControlPlane._choose([
            (CandidateCost("hold", 0.0, True, ""), None),
            (CandidateCost("scale:up", 102.0, False, "at max"), None),
        ])
        assert best is None and execute is None

    def test_demote_marks_cheap_lever_infeasible_under_blown_sla(self):
        pair = (CandidateCost("rewarm", 0.001, True, "fill 1 KiB"),
                lambda: None)
        cand, execute = ControlPlane._demote(pair, True)
        assert not cand.feasible and execute is None
        assert "SLA already blown" in cand.detail
        assert cand.cost_j == 0.001  # still priced for the trace

    def test_demote_leaves_candidates_alone_when_sla_holds(self):
        pair = (CandidateCost("rewarm", 0.001, True, "fill"), lambda: None)
        assert ControlPlane._demote(pair, False) is pair
        assert ControlPlane._demote(None, True) is None


class TestAutopilotRun:
    """Cluster-level behavior: the plane as the single control observer."""

    def run_surge(self, **plane_kwargs):
        plane_kwargs.setdefault("min_nodes", 2)
        plane_kwargs.setdefault("max_nodes", 2)
        plane_kwargs.setdefault("patience", 1)
        plane_kwargs.setdefault("cooldown_s", 0.05)
        plane = ControlPlane(**plane_kwargs)
        cluster = autopilot_cluster(
            max_nodes=2, plane=plane, switcher=make_switcher()
        )
        return cluster.run(burst_scenario())

    def test_surge_commits_fleet_wide_switch(self):
        # ACCURATE saturates the 4 ms window on its own; the cheapest
        # relief is the switch, and one committed decision moves EVERY
        # resident — not just the deciding node.
        res = self.run_surge()
        assert res.control_decisions, "the surge never produced a decision"
        first = res.control_decisions[0]
        assert first.mode == "surge"
        assert first.chosen == "switch:FAST"
        assert "2 node(s)" in next(
            c.detail for c in first.candidates if c.action == "switch:FAST"
        )
        assert res.switches == 2

    def test_decision_chooses_cheapest_feasible_candidate(self):
        res = self.run_surge()
        for decision in res.control_decisions:
            feasible = [c for c in decision.candidates
                        if c.feasible and c.action != "hold"]
            assert decision.chosen_cost_j == min(c.cost_j for c in feasible)

    def test_decision_trace_is_complete(self):
        # Every decision carries the full candidate table — the hold
        # baseline plus every enabled class, rejected ones included,
        # each with a cost and a reason.
        res = self.run_surge()
        for decision in res.control_decisions:
            actions = [c.action for c in decision.candidates]
            assert actions[0] == "hold"
            assert decision.candidates[0].cost_j == 0.0
            assert any(a.startswith("switch") for a in actions)
            assert any(a.startswith("scale") for a in actions)
            assert all(c.detail for c in decision.candidates[1:])

    def test_format_decision_prices_every_candidate(self):
        res = self.run_surge()
        line = format_decision(res.control_decisions[0])
        assert "-> switch:FAST" in line and "J-eq" in line
        for cand in res.control_decisions[0].candidates:
            assert cand.action in line
        # Infeasible candidates are flagged, so the trace alone shows
        # what was priced out vs what was ruled out.
        assert "!" in line

    def test_scale_up_infeasible_at_ceiling(self):
        res = self.run_surge()
        first = res.control_decisions[0]
        scale = next(c for c in first.candidates if c.action == "scale:up")
        assert not scale.feasible and "max_nodes" in scale.detail

    def test_disabled_action_class_never_appears(self):
        res = self.run_surge(actions=("scale", "reroute", "rewarm"))
        for decision in res.control_decisions:
            assert not any(
                c.action.startswith("switch") for c in decision.candidates
            )
        assert res.switches == 0


class TestRaceInterlock:
    """The switch/scale race: one fleet hysteresis serializes both."""

    def test_switch_waits_out_join_warm_window(self):
        # A scheduled join opens a long warm window (big shard slice over
        # a 25G link) before the saturated ACCURATE fleet accumulates
        # switch patience.  The forced join holds the plane's fleet
        # hysteresis, so no switch fires INTO the warm window — reacting
        # to the queue spike the join itself induced.
        plan = greedy_shard([4_000_000, 3_000_000, 2_000_000], 16, 3)
        plane = ControlPlane(
            min_nodes=2, max_nodes=3, actions=("switch",), patience=2,
            cooldown_s=0.05, schedule=((0.001, "up"),),
        )
        cluster = ClusterSimulator(
            StaticScheduler([accurate_path()]), plan,
            link=ETHERNET_25G, max_batch_size=8, batch_timeout_s=0.004,
            switch_controller=make_switcher(), controlplane=plane,
        )
        res = cluster.run(burst_scenario())
        joins = [e for e in res.scale_events if e.kind == "up"]
        assert joins and res.switch_events, "scenario must exercise both"
        assert res.switch_events[0].time_s >= joins[0].ready_s
        for event in joins:
            for sw in res.switch_events:
                assert not (event.time_s < sw.time_s < event.ready_s)


class TestParity:
    """The property levers: with its actions stripped, the autopilot IS
    per-core switching; with unreachable thresholds, the static fleet."""

    def records_of(self, cluster):
        res = cluster.run(burst_scenario(n=800))
        return res, res.result.records

    def test_no_actions_matches_stacked_never_firing(self):
        # Same fleet, same switcher template, two wirings of the control
        # tick: the plane with every action class disabled vs per-core
        # switchers running their own rule, whose thresholds never
        # accumulate evidence.  Record-for-record the same serving history.
        plane = ControlPlane(min_nodes=2, max_nodes=2, actions=())
        res_a, records_a = self.records_of(autopilot_cluster(
            max_nodes=2, plane=plane, switcher=make_switcher()
        ))
        res_b, records_b = self.records_of(autopilot_cluster(
            max_nodes=2, switcher=make_switcher(**SW_NEVER)
        ))
        assert records_a == records_b
        assert res_a.control_decisions == []
        assert res_a.node_seconds == pytest.approx(res_b.node_seconds)

    def test_never_firing_autopilot_matches_static_fleet(self):
        plane = ControlPlane(
            min_nodes=2, max_nodes=2, actions=ACTION_CLASSES, **NEVER
        )
        res_a, records_a = self.records_of(autopilot_cluster(
            max_nodes=2, plane=plane, switcher=make_switcher()
        ))
        _, records_b = self.records_of(autopilot_cluster(max_nodes=2))
        assert records_a == records_b
        assert res_a.control_decisions == []
        assert res_a.switches == 0
