"""Unit tests for elastic autoscaling — the control plane's scale action:
its configuration checks, its decision rule and hysteresis, the
shard-slice warm pricing, and the cluster's scale mechanics (membership,
handoff, zero-loss drain, node-seconds accounting)."""

import dataclasses

import pytest

from repro.analysis.sharding import greedy_shard
from repro.core.online import StaticScheduler
from repro.data.queries import Query, QuerySet
from repro.hardware.catalog import CPU_BROADWELL
from repro.hardware.topology import ETHERNET_100G
from repro.serving.autoscale import shard_slice_bytes
from repro.serving.cluster import ClusterSimulator
from repro.serving.controlplane import AutopilotOps, ControlPlane
from repro.serving.engine import ControlTick
from repro.serving.workload import ServingScenario

from tests.unit.test_online import fake_path

SLA_S = 0.010


def scheduler():
    return StaticScheduler(
        [fake_path("table", CPU_BROADWELL, 78.79, 2e-3, label="T")]
    )


def steady_scenario(n=400, qps=4000.0, sla_s=SLA_S):
    queries = [
        Query(index=i, size=1, arrival_s=i / qps) for i in range(n)
    ]
    return ServingScenario(queries=QuerySet(queries=queries), sla_s=sla_s)


def elastic_cluster(max_nodes=4, schedule=(), replication=1):
    # No action class enabled: the forced schedule alone drives membership.
    plane = ControlPlane(
        min_nodes=max(2, replication), max_nodes=max_nodes, actions=(),
        schedule=schedule,
    )
    plan = greedy_shard([4000, 3000, 2000, 1000], 16, max_nodes)
    return ClusterSimulator(
        scheduler(), plan, replication=replication,
        max_batch_size=4, batch_timeout_s=0.001, controlplane=plane,
    )


def scaler(min_nodes, max_nodes, **kwargs):
    """The autoscaler: a plane with only its scale action enabled."""
    return ControlPlane(
        min_nodes=min_nodes, max_nodes=max_nodes, actions=("scale",), **kwargs
    )


class TestControllerValidation:
    def test_bounds(self):
        with pytest.raises(ValueError, match="min_nodes <= max_nodes"):
            scaler(3, 2)
        with pytest.raises(ValueError, match="min_nodes <= max_nodes"):
            scaler(0, 2)
        with pytest.raises(ValueError, match="initial_nodes"):
            scaler(1, 4, initial_nodes=5)

    def test_thresholds_and_patience(self):
        with pytest.raises(ValueError, match="lo_pressure < hi_pressure"):
            scaler(1, 2, hi_pressure=0.2, lo_pressure=0.5)
        with pytest.raises(ValueError, match="patience"):
            scaler(1, 2, patience=0)
        with pytest.raises(ValueError, match="cooldown_s"):
            scaler(1, 2, cooldown_s=-1.0)

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="up/down"):
            scaler(1, 2, schedule=((0.1, "sideways"),))
        with pytest.raises(ValueError, match="non-negative"):
            scaler(1, 2, schedule=((-0.1, "up"),))

    def test_initial_defaults_to_min(self):
        assert scaler(2, 5).initial_nodes == 2


class FakeCore:
    """Just enough of an EngineCore for the plane's scale rule."""

    class _Batcher:
        timeout_s = 0.002
        max_batch_size = 8

    batcher = _Batcher()
    node_id = 0
    switcher = None
    cache = None


class TestControllerDecision:
    """The plane's scale rule (``actions=("scale",)``), tick by tick."""

    PATH = fake_path("table", CPU_BROADWELL, 78.79, 1e-5, per_sample=1e-7)
    DT = 0.005  # one tick, one query, every 5 ms

    def plane(self, n_members=2, **kwargs):
        defaults = dict(
            min_nodes=1, max_nodes=4, actions=("scale",), hi_pressure=0.75,
            lo_pressure=0.25, util_hi=0.95, patience=3, patience_down=4,
            cooldown_s=1.0,
        )
        defaults.update(kwargs)
        plane = ControlPlane(**defaults)
        self.members = n_members
        self.fired = []
        plane.begin_run(AutopilotOps(
            sla_s=SLA_S,
            n_members=lambda: self.members,
            idle_w=lambda: 100.0,
            predict_join_warm_s=lambda: 0.01,
            start_scale_up=lambda now, loop: self.fired.append("up"),
            scale_down=lambda now, loop: self.fired.append("down"),
        ))
        # Twenty seconds of the demand the ticks keep up: the drain
        # guard reads the arrival-rate trend as flat, not rising.
        self.now = 0.0
        for _ in range(4000):
            self.now += self.DT
            plane._observe_demand(self.now, 1)
        return plane

    def tick(self, plane, wait_s, queue_s, batch=1):
        """One dispatched batch: the scale action it fired, if any."""
        self.now += self.DT
        before = len(self.fired)
        plane.on_tick(FakeCore(), ControlTick(
            self.PATH, wait_s, queue_s, 0.0, batch, 1, self.now, None, None,
        ))
        return self.fired[-1] if len(self.fired) > before else None

    def test_surge_after_patience(self):
        plane = self.plane()
        hot = 0.9 * SLA_S
        assert self.tick(plane, hot, hot) is None
        assert self.tick(plane, hot, hot) is None
        assert self.tick(plane, hot, hot) == "up"

    def test_surge_streak_resets_in_band(self):
        plane = self.plane()
        hot, mid = 0.9 * SLA_S, 0.5 * SLA_S
        self.tick(plane, hot, hot)
        self.tick(plane, hot, hot)
        self.tick(plane, mid, mid)  # band: resets the streak
        assert self.tick(plane, hot, hot) is None

    def test_calm_uses_queue_component_not_fill_wait(self):
        # A trough batch waits out the flush window (large wait_s) but has
        # an empty device queue: that is calm, not band.
        plane = self.plane()
        fill = 0.6 * SLA_S
        for _ in range(3):
            assert self.tick(plane, fill, 0.0) is None
        assert self.tick(plane, fill, 0.0) == "down"

    def test_calm_blocked_by_postdrain_projection(self):
        # Large batches (high window utilization) forbid draining even
        # with an empty queue: the survivors could not absorb the load.
        plane = self.plane(util_lo=0.1)
        for _ in range(10):
            assert self.tick(plane, 0.0, 0.0, batch=4096) is None

    def test_bounds_gate_firing(self):
        # At a fleet bound the action is infeasible, but the evidence is
        # kept: the first tick after the bound moves fires at once.
        plane = self.plane(n_members=4)
        hot = 0.9 * SLA_S
        for _ in range(5):
            assert self.tick(plane, hot, hot) is None
        self.members = 3
        assert self.tick(plane, hot, hot) == "up"
        plane = self.plane(n_members=1)
        for _ in range(6):
            assert self.tick(plane, 0.0, 0.0) is None
        self.members = 2
        assert self.tick(plane, 0.0, 0.0) == "down"

    def test_in_progress_and_cooldown_gate(self):
        plane = self.plane()
        hot = 0.9 * SLA_S
        for _ in range(2):
            self.tick(plane, hot, hot)
        assert self.tick(plane, hot, hot) == "up"
        # In progress: frozen.
        assert self.tick(plane, hot, hot) is None
        plane.on_scale_complete(self.now)
        # Cooldown (1 s): still frozen...
        for _ in range(5):
            assert self.tick(plane, hot, hot) is None
        # ...then live again, on fresh evidence.
        self.now += 1.0
        for _ in range(2):
            assert self.tick(plane, hot, hot) is None
        assert self.tick(plane, hot, hot) == "up"

    def test_clone_copies_config_not_state(self):
        plane = self.plane(initial_nodes=2, schedule=((0.5, "up"),))
        hot = 0.9 * SLA_S
        for _ in range(3):
            self.tick(plane, hot, hot)
        plane.on_scale_complete(self.now)
        assert plane.decisions
        clone = plane.clone()
        for f in dataclasses.fields(ControlPlane):
            if f.init:
                assert getattr(clone, f.name) == getattr(plane, f.name)
        assert clone.decisions == []
        assert clone._ops is None and clone._demand_t is None
        assert clone._demand_fast == clone._demand_slow == 0.0
        assert clone._inflight_switches == 0
        assert not clone._hysteresis.blocked("fleet", self.now)
        assert not clone._hysteresis._streaks


class TestShardSliceBytes:
    def test_single_replica_matches_plan_bytes(self):
        plan = greedy_shard([1000, 2000, 500], 16, 2)
        per_node = plan.node_bytes()
        for node in range(2):
            assert shard_slice_bytes(plan, node) == int(per_node[node])

    def test_replication_chains_slices(self):
        plan = greedy_shard([1000, 2000, 500], 16, 2)
        total = sum(int(b) for b in plan.node_bytes())
        # Replication 2 on 2 nodes: every node hosts everything.
        for node in range(2):
            assert shard_slice_bytes(plan, node, replication=2) == total

    def test_validation(self):
        plan = greedy_shard([1000], 16, 2)
        with pytest.raises(ValueError):
            shard_slice_bytes(plan, 5)
        with pytest.raises(ValueError):
            shard_slice_bytes(plan, 0, replication=3)


class TestClusterScaling:
    def test_forced_join_prices_warm_window(self):
        sim = elastic_cluster(max_nodes=3, schedule=((0.02, "up"),))
        result = sim.run(steady_scenario())
        assert result.scale_ups == 1
        [event] = result.scale_events
        assert event.kind == "up" and event.node_id == 2
        assert event.warm_bytes == shard_slice_bytes(
            sim._epoch(3)[0], 2, 1
        )
        assert event.warm_s == ETHERNET_100G.transfer_time(event.warm_bytes)
        assert event.ready_s - event.time_s >= event.warm_s - 1e-12
        # The joining node served traffic only after its warm.
        assert result.per_node_served[2] > 0
        assert result.handoff_overhead_s == event.warm_s

    def test_forced_drain_is_zero_loss(self):
        sim = elastic_cluster(max_nodes=3, schedule=((0.0, "up"), (0.05, "down")))
        scenario = steady_scenario()
        result = sim.run(scenario)
        assert result.scale_downs == 1
        down = [e for e in result.scale_events if e.kind == "down"][0]
        assert down.node_id == 2 and down.n_members == 2
        assert result.lost == 0 and result.edge_drops == 0
        # Every query accounted exactly once, none dropped.
        indices = sorted(r.index for r in result.result.records)
        assert indices == [q.index for q in scenario.queries]
        assert all(not r.dropped for r in result.result.records)
        # Handed-back queries count as rerouted once re-admitted.
        assert result.rerouted == down.reinjected

    def test_scale_ops_serialize_behind_warm(self):
        # Two forced ups at the same instant: the second queues behind the
        # first join's warm window and lands on the next node id.
        sim = elastic_cluster(max_nodes=4, schedule=((0.01, "up"), (0.01, "up")))
        result = sim.run(steady_scenario())
        assert result.scale_ups == 2
        ups = [e for e in result.scale_events if e.kind == "up"]
        assert [e.node_id for e in ups] == [2, 3]
        assert ups[1].time_s >= ups[0].ready_s

    def test_ops_at_bounds_are_skipped(self):
        sim = elastic_cluster(
            max_nodes=2, schedule=((0.01, "up"), (0.02, "down"))
        )
        result = sim.run(steady_scenario())
        # min == max == membership: neither op can apply.
        assert result.scale_ups == 0 and result.scale_downs == 0

    def test_node_seconds_static_is_full_fleet(self):
        plan = greedy_shard([4000, 3000], 16, 2)
        sim = ClusterSimulator(scheduler(), plan, max_batch_size=4)
        result = sim.run(steady_scenario())
        makespan = result.result.makespan_s
        assert result.node_seconds == pytest.approx(2 * makespan)
        assert result.idle_energy_j > 0

    def test_node_seconds_elastic_is_less_than_ceiling(self):
        sim = elastic_cluster(max_nodes=4, schedule=((0.05, "up"),))
        result = sim.run(steady_scenario())
        makespan = result.result.makespan_s
        assert result.node_seconds < 4 * makespan
        # Two members all run + one member for the post-join remainder.
        assert result.node_seconds == pytest.approx(
            2 * makespan + (makespan - result.scale_events[0].ready_s),
            rel=1e-6,
        )

    def test_repeated_runs_are_deterministic(self):
        sim = elastic_cluster(max_nodes=3, schedule=((0.0, "up"), (0.05, "down")))
        scenario = steady_scenario()
        first = sim.run(scenario)
        second = sim.run(scenario)
        assert first.summary() == second.summary()
        assert first.result.records == second.result.records

    def test_pressure_driven_scale_up_and_down(self):
        # A saturating burst then a trickle: the fleet grows under
        # pressure, and every query is accounted exactly once.
        result = self.burst_then_trickle(80)
        assert result.scale_ups >= 1
        assert result.lost == 0
        indices = sorted(r.index for r in result.result.records)
        assert indices == list(range(200))
        # The plane drains only once its 0.5 s demand average stops
        # running ahead of its 2 s one; an 8 s trickle outlasts the
        # burst's echo and drains back toward the floor.
        result = self.burst_then_trickle(800)
        assert result.scale_ups >= 1
        assert result.scale_downs >= 1
        assert result.lost == 0
        indices = sorted(r.index for r in result.result.records)
        assert indices == list(range(920))

    def burst_then_trickle(self, n_tail):
        plane = ControlPlane(
            min_nodes=1, max_nodes=3, actions=("scale",), hi_pressure=0.75,
            lo_pressure=0.25, patience=2, patience_down=4, cooldown_s=0.0,
        )
        plan = greedy_shard([4000, 3000, 2000], 16, 3)
        sim = ClusterSimulator(
            scheduler(), plan, max_batch_size=4, batch_timeout_s=0.001,
            controlplane=plane,
        )
        burst = [Query(index=i, size=64, arrival_s=i * 1e-4) for i in range(120)]
        tail = [
            Query(index=120 + i, size=1, arrival_s=0.5 + i * 0.01)
            for i in range(n_tail)
        ]
        scenario = ServingScenario(
            queries=QuerySet(queries=burst + tail), sla_s=SLA_S
        )
        return sim.run(scenario)


class TestClusterValidation:
    def test_plan_must_match_ceiling(self):
        plan = greedy_shard([4000], 16, 3)
        with pytest.raises(ValueError, match="max_nodes"):
            ClusterSimulator(
                scheduler(), plan,
                controlplane=ControlPlane(min_nodes=1, max_nodes=4),
            )

    def test_no_failure_injection_with_autoscale(self):
        plan = greedy_shard([4000], 16, 3)
        with pytest.raises(ValueError, match="failure"):
            ClusterSimulator(
                scheduler(), plan, fail_at=0.1,
                controlplane=ControlPlane(min_nodes=1, max_nodes=3),
            )

    def test_replication_bounded_by_floor(self):
        plan = greedy_shard([4000], 16, 3)
        with pytest.raises(ValueError, match="replication"):
            ClusterSimulator(
                scheduler(), plan, replication=2,
                controlplane=ControlPlane(min_nodes=1, max_nodes=3),
            )
