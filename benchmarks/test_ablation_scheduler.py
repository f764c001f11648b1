"""Ablation: MP-Rec's scheduler design choices (DESIGN.md).

1. Preference order (hybrid > DHE > table) vs. a greedy-latency scheduler:
   greedy matches raw throughput but forfeits the accuracy gains.
2. MP-Cache on vs. off: without the cache, compute paths are rarely
   feasible, so served accuracy falls (Insight 4).
3. The control-plane Pareto frontier: on diurnal + flash-crowd load the
   unified autopilot must dominate — no more SLA violations at no more
   fleet cost (energy + node-seconds) — every single-mechanism baseline.
"""

import numpy as np
from conftest import RAW_DIR, fmt_row

from repro.analysis.sharding import greedy_shard
from repro.core.online import (
    GreedyLatencyScheduler,
    MultiPathScheduler,
    StaticScheduler,
)
from repro.core.paths import ExecutionPath, PathProfile
from repro.core.switching import SwitchController
from repro.data.queries import Query, QuerySet, arrival_times
from repro.experiments.setup import (
    build_plan,
    default_cache_effect,
    run_serving_comparison,
)
from repro.core.representations import RepresentationConfig, paper_configs
from repro.hardware.catalog import GPU_V100
from repro.hardware.topology import ETHERNET_25G
from repro.models.configs import KAGGLE
from repro.serving.cluster import ClusterSimulator
from repro.serving.controlplane import ControlPlane, format_decision
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import ServingScenario


def run_ablation():
    scenario = ServingScenario.paper_default(n_queries=1500, seed=91)
    plan = build_plan(KAGGLE)
    effect = default_cache_effect(KAGGLE, paper_configs(KAGGLE)["dhe"])
    cached_paths = plan.build_paths(
        encoder_hit_rate=effect.encoder_hit_rate,
        decoder_speedup=effect.decoder_speedup,
    )
    uncached_paths = plan.build_paths()

    runs = {
        "mp-rec (cache)": MultiPathScheduler(cached_paths),
        "mp-rec (no cache)": MultiPathScheduler(uncached_paths),
        "greedy-latency (cache)": GreedyLatencyScheduler(cached_paths),
    }
    return {
        name: ServingSimulator(sched, track_energy=False).run(scenario)
        for name, sched in runs.items()
    }


def test_ablation_scheduler(benchmark, record):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    lines = []
    for name, res in results.items():
        lines.append(
            fmt_row(
                name,
                ctput=res.correct_prediction_throughput,
                accuracy=res.mean_accuracy,
                viol_pct=res.violation_rate * 100,
            )
        )
    record("Ablation: scheduler preference order and MP-Cache", lines)

    with_cache = results["mp-rec (cache)"]
    no_cache = results["mp-rec (no cache)"]
    greedy = results["greedy-latency (cache)"]

    # Accuracy-preference beats greedy-latency on served accuracy.
    assert with_cache.mean_accuracy > greedy.mean_accuracy
    # MP-Cache lifts accuracy or correct-prediction throughput.
    assert (
        with_cache.mean_accuracy > no_cache.mean_accuracy
        or with_cache.correct_prediction_throughput
        > no_cache.correct_prediction_throughput
    )


# ---- 3. the control-plane Pareto frontier --------------------------------
#
# One scenario, four fleets.  Each baseline is missing a lever the
# workload punishes: the static switch-only fleet pays the ceiling's
# energy all run; autoscale-only (the plane's scale action alone) and
# cache-only keep the slow ACCURATE representation and drown.  The
# autopilot prices all four action classes against one cost function and
# must land on the frontier: no more violations than any leg, at no more
# cost than any leg.

PARETO_SLA_S = 0.015
PARETO_MIN, PARETO_MAX = 2, 6
PARETO_SIZES = np.unique(np.geomspace(1, 4096, 33).astype(int)).astype(float)
PARETO_TABLES = [1_000_000, 800_000, 700_000, 600_000, 500_000, 400_000]


def pareto_paths():
    accurate = ExecutionPath(
        rep=RepresentationConfig("table", 16),
        device=GPU_V100,
        accuracy=79.5,
        profile=PathProfile(
            sizes=PARETO_SIZES, latencies=0.0003 + 0.0012 * PARETO_SIZES
        ),
        label="ACCURATE",
    )
    fast = ExecutionPath(
        rep=RepresentationConfig("dhe", 16, k=4, dnn=64, h=1),
        device=GPU_V100,
        accuracy=78.0,
        profile=PathProfile(
            sizes=PARETO_SIZES, latencies=0.0003 + 0.0004 * PARETO_SIZES
        ),
        label="FAST",
    )
    return accurate, fast


def pareto_scenario():
    """A compressed diurnal cycle with a flash crowd on the rising edge."""
    rng = np.random.default_rng(7)
    base = arrival_times(
        36_000, 3_000.0, rng=rng, process="diurnal",
        period_s=12.0, amplitude=0.75,
    )
    spike = 2.5 + arrival_times(18_000, 6_000.0, rng=rng, process="poisson")
    merged = np.sort(np.concatenate([base, spike]))
    queries = [
        Query(index=i, size=1, arrival_s=float(t))
        for i, t in enumerate(merged)
    ]
    return ServingScenario(queries=QuerySet(queries=queries), sla_s=PARETO_SLA_S)


def pareto_switcher():
    accurate, fast = pareto_paths()
    return SwitchController(
        candidates={GPU_V100.name: [accurate, fast]},
        load_s=0.002, teardown_s=0.0005, cooldown_s=0.25,
    )


def pareto_fleet(switcher=None, plane=None, cache=False,
                 router="least-loaded"):
    accurate, _ = pareto_paths()
    plan = greedy_shard(PARETO_TABLES, 16, PARETO_MAX)
    kwargs = dict(cache_bytes=4 << 20) if cache else {}
    return ClusterSimulator(
        StaticScheduler([accurate]), plan, router=router, replication=2,
        max_batch_size=16, batch_timeout_s=0.008, link=ETHERNET_25G,
        switch_controller=switcher, controlplane=plane,
        **kwargs,
    )


def run_pareto():
    scenario = pareto_scenario()
    legs = {
        "switch-only @6": pareto_fleet(switcher=pareto_switcher()),
        "autoscale-only 2..6": pareto_fleet(plane=ControlPlane(
            min_nodes=PARETO_MIN, max_nodes=PARETO_MAX, actions=("scale",),
            hi_pressure=0.75, lo_pressure=0.1, util_hi=0.9,
            patience=4, patience_down=48, cooldown_s=0.25,
            initial_nodes=PARETO_MAX,
        )),
        "cache-only @6": pareto_fleet(cache=True, router="cache-affinity"),
        "autopilot 2..6": pareto_fleet(
            switcher=pareto_switcher(), cache=True,
            plane=ControlPlane(
                min_nodes=PARETO_MIN, max_nodes=PARETO_MAX,
                hi_pressure=0.75, lo_pressure=0.1, initial_nodes=5,
                patience=2, patience_down=48, cooldown_s=0.05,
            ),
        ),
    }
    return {name: cluster.run(scenario) for name, cluster in legs.items()}


def write_pareto_traces(results):
    """Per-leg control-timeline artifacts (CI uploads results/ whole)."""
    RAW_DIR.mkdir(parents=True, exist_ok=True)
    for name, res in results.items():
        slug = name.replace(" ", "_").replace(".", "").replace("@", "at")
        lines = [f"== control timeline: {name} =="]
        timeline = sorted(
            [(e.time_s, f"switch node={e.node_id} {e.from_label}->"
                        f"{e.to_label} ready={e.ready_s:.6f}")
             for e in res.switch_events]
            + [(e.time_s, f"scale:{e.kind} node={e.node_id} "
                          f"n={e.n_members} ready={e.ready_s:.6f}")
               for e in res.scale_events]
        )
        lines += [f"t={t:.6f} {desc}" for t, desc in timeline]
        lines += [format_decision(d) for d in res.control_decisions]
        (RAW_DIR / f"pareto_{slug}.trace.txt").write_text(
            "\n".join(lines) + "\n"
        )


def leg_cost(res):
    """The fleet cost axis: energy (served + idle) plus node-seconds."""
    return res.fleet_energy_j + res.node_seconds


def leg_violations(res):
    return res.result.violation_rate


def test_pareto_unified_control_plane(benchmark, record):
    results = benchmark.pedantic(run_pareto, rounds=1, iterations=1)
    write_pareto_traces(results)

    autopilot = results["autopilot 2..6"]
    lines = [
        fmt_row(
            name,
            viol_pct=leg_violations(res) * 100,
            node_s=res.node_seconds,
            energy_j=res.fleet_energy_j,
            cost=leg_cost(res),
            decisions=len(res.control_decisions),
        )
        for name, res in results.items()
    ]
    lines += ["-- autopilot decision trace (every candidate priced) --"]
    lines += [f"  {format_decision(d)}" for d in autopilot.control_decisions]

    checks = []
    for name, res in results.items():
        if name == "autopilot 2..6":
            continue
        checks.append((
            f"violations: autopilot <= {name}",
            leg_violations(autopilot) <= leg_violations(res),
        ))
        checks.append((
            f"cost: autopilot <= {name}",
            leg_cost(autopilot) <= leg_cost(res),
        ))
    record(
        "Pareto frontier: unified control plane vs every baseline",
        lines, checks=checks,
    )

    # The frontier pin: the unified plane dominates every leg on BOTH
    # axes (ties allowed) — fewer-or-equal violations at lower-or-equal
    # fleet cost.
    for label, ok in checks:
        assert ok, label
    # The trace must show real arbitration: decisions were committed and
    # each carries the full candidate table, rejected actions priced.
    assert autopilot.control_decisions
    for decision in autopilot.control_decisions:
        assert len(decision.candidates) >= 2
        assert any(not c.feasible for c in decision.candidates) or all(
            c.cost_j is not None for c in decision.candidates
        )
