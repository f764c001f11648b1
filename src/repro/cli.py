"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main entry points:

- ``train``        — train a DLRM variant on synthetic Criteo-shaped data.
- ``plan``         — run the MP-Rec offline stage (Algorithm 1) and print
                     the representation-hardware mappings.
- ``serve``        — simulate query serving under a chosen scheduler.
- ``characterize`` — operator breakdowns across representations/devices.
- ``generate-data``— write a Criteo-format TSV from the synthetic model.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

DATASETS = {}


def _datasets():
    from repro.data.internal_like import INTERNAL_LIKE
    from repro.models.configs import KAGGLE, KAGGLE_MINI, TERABYTE, TERABYTE_MINI

    return {
        "kaggle": KAGGLE,
        "terabyte": TERABYTE,
        "kaggle-mini": KAGGLE_MINI,
        "terabyte-mini": TERABYTE_MINI,
        "internal-like": INTERNAL_LIKE,
    }


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return parsed


def _non_negative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return parsed


def _positive_float(value: str) -> float:
    parsed = float(value)
    if not parsed > 0:  # also rejects nan
        raise argparse.ArgumentTypeError("must be > 0")
    return parsed


def _non_negative_float(value: str) -> float:
    parsed = float(value)
    if not parsed >= 0:  # also rejects nan
        raise argparse.ArgumentTypeError("must be >= 0")
    return parsed


def _finite_non_negative_float(value: str) -> float:
    parsed = float(value)
    if not 0 <= parsed < math.inf:  # also rejects nan
        raise argparse.ArgumentTypeError("must be finite and >= 0")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="MP-Rec reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a DLRM variant")
    train.add_argument("--dataset", default="kaggle-mini", choices=sorted(_datasets()))
    train.add_argument(
        "--representation", default="table",
        choices=["table", "dhe", "select", "hybrid", "ttrec"],
    )
    train.add_argument("--steps", type=int, default=100)
    train.add_argument("--batch-size", type=int, default=128)
    train.add_argument("--lr", type=float, default=0.1)
    train.add_argument("--k", type=int, default=32)
    train.add_argument("--dnn", type=int, default=32)
    train.add_argument("--height", type=int, default=1)
    train.add_argument("--seed", type=int, default=0)

    plan = sub.add_parser("plan", help="run the offline stage (Algorithm 1)")
    plan.add_argument("--dataset", default="kaggle", choices=["kaggle", "terabyte"])
    plan.add_argument("--hw", default="hw1", choices=["hw1", "hw2"])

    serve = sub.add_parser("serve", help="simulate query serving")
    serve.add_argument("--dataset", default="kaggle", choices=["kaggle", "terabyte"])
    serve.add_argument(
        "--scheduler", default="mp-rec",
        choices=["mp-rec", "table-cpu", "table-gpu", "dhe-gpu", "hybrid-gpu",
                 "table-switch"],
    )
    serve.add_argument("--queries", type=_non_negative_int, default=1000)
    serve.add_argument("--qps", type=_positive_float, default=1000.0)
    serve.add_argument("--sla-ms", type=_positive_float, default=10.0)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--arrivals", default="poisson",
        choices=["poisson", "uniform", "diurnal", "mmpp", "flash-crowd"],
    )
    serve.add_argument(
        "--shed-policy", default="none",
        choices=["none", "drop-late", "deadline-aware"],
    )
    serve.add_argument("--max-batch", type=_positive_int, default=1)
    serve.add_argument("--batch-timeout-ms", type=_finite_non_negative_float,
                       default=0.0)
    serve.add_argument(
        "--streaming", action="store_true",
        help="constant-memory metrics (for very large --queries)",
    )
    serve.add_argument(
        "--fastpath", action="store_true",
        help="vectorized array engine: record-identical to the event "
             "kernel, an order of magnitude faster (single-node only; "
             "pairs well with --streaming for 10M+ query days)",
    )
    serve.add_argument(
        "--switching", action="store_true",
        help="runtime representation switching: one resident representation "
             "per device, swapped as load shifts (Fig 15 overhead charged)",
    )
    serve.add_argument(
        "--switch-cooldown", type=_non_negative_float, default=None, metavar="MS",
        help="freeze a device for this long after each switch "
             "(hysteresis; default 250 ms, requires --switching)",
    )
    serve.add_argument(
        "--nodes", type=_positive_int, default=None,
        help="cluster size; >1 serves through the multi-node simulator "
             "(with --regions: nodes per region; default 1)",
    )
    serve.add_argument(
        "--router", default="round-robin",
        choices=["round-robin", "least-loaded", "locality", "cache-affinity"],
        help="cluster query router (--nodes > 1; cache-affinity requires "
             "--cache-mb)",
    )
    serve.add_argument(
        "--replication", type=_positive_int, default=1,
        help="shard replicas per group; >= 2 survives a node failure",
    )
    serve.add_argument(
        "--fail-at", type=_non_negative_float, default=None, metavar="SECONDS",
        help="kill --fail-node at this simulation time (failover drill)",
    )
    serve.add_argument("--fail-node", type=int, default=0)
    serve.add_argument(
        "--max-queue", type=_non_negative_int, default=0,
        help="per-node backpressure bound on outstanding queries (0 = off)",
    )
    serve.add_argument(
        "--link", default="eth-100g", choices=["eth-25g", "eth-100g", "rdma-100g"],
        help="inter-node fabric pricing the embedding all-to-all",
    )
    serve.add_argument(
        "--cache-mb", type=float, default=None, metavar="MB",
        help="per-node MP-Cache tier budget in MB (cluster only: hot "
             "embedding rows cached in front of the fabric)",
    )
    serve.add_argument(
        "--cache-policy", default=None, choices=["lru", "static"],
        help="cache residency policy: lru demand-fills on misses, static "
             "preloads profiled hot rows (default lru; requires --cache-mb)",
    )
    serve.add_argument(
        "--autoscale", action="store_true",
        help="elastic fleet: grow/drain nodes with load (live shard "
             "handoff priced over --link); --nodes is the fleet ceiling",
    )
    serve.add_argument(
        "--min-nodes", type=_positive_int, default=1,
        help="autoscaling floor (requires --autoscale)",
    )
    serve.add_argument(
        "--max-nodes", type=_positive_int, default=None,
        help="autoscaling ceiling (defaults to --nodes; requires --autoscale)",
    )
    serve.add_argument(
        "--scale-cooldown", type=_non_negative_float, default=None, metavar="MS",
        help="freeze membership for this long after each scale operation "
             "(hysteresis; default 500 ms, requires --autoscale)",
    )
    serve.add_argument(
        "--autopilot", action="store_true",
        help="unified SLO autopilot: one control plane arbitrates "
             "representation switches, scale up/down, cache re-warm, and "
             "router swaps against one fleet cost function (subsumes "
             "--switching and --autoscale; --nodes/--max-nodes is the "
             "fleet ceiling, --min-nodes the floor)",
    )
    serve.add_argument(
        "--trace-decisions", type=_non_negative_int, default=None,
        metavar="N",
        help="print the first N autopilot decisions with every candidate "
             "action's predicted cost (default 8; requires --autopilot)",
    )
    serve.add_argument(
        "--regions", type=_positive_int, default=None,
        help="geo-distributed serving: this many regions of --nodes "
             "nodes each over a WAN, driven by a follow-the-sun "
             "phase-offset diurnal day (requires --nodes)",
    )
    serve.add_argument(
        "--wan-link", default=None,
        choices=["wan-metro", "wan-transcon", "wan-intercont"],
        help="WAN link class joining the regions (default wan-metro; "
             "requires --regions)",
    )
    serve.add_argument(
        "--geo-router", default=None, choices=["pinned", "spill"],
        help="cross-region routing: pinned keeps queries home, spill "
             "offloads SLA-risk peaks to the cheapest remote region "
             "(default spill; requires --regions)",
    )
    serve.add_argument(
        "--region-replication", type=_positive_int, default=None,
        help="regions replicating each region's shards; >= 2 survives a "
             "region failure (default 1; requires --regions)",
    )
    serve.add_argument(
        "--region-fail-at", type=float, default=None, metavar="SECONDS",
        help="kill --fail-region at this simulation time (region "
             "failover drill; requires --regions)",
    )
    serve.add_argument(
        "--fail-region", type=int, default=None,
        help="region id for --region-fail-at (requires --regions)",
    )

    char = sub.add_parser("characterize", help="operator breakdowns")
    char.add_argument("--dataset", default="kaggle", choices=["kaggle", "terabyte"])
    char.add_argument("--batch", type=int, default=2048)

    gen = sub.add_parser("generate-data", help="write a Criteo-format TSV")
    gen.add_argument("--out", required=True)
    gen.add_argument("--dataset", default="kaggle-mini", choices=sorted(_datasets()))
    gen.add_argument("--rows", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=0)
    return parser


def cmd_train(args) -> int:
    from repro.data.synthetic import SyntheticCTRDataset
    from repro.models.dlrm import build_dlrm
    from repro.training.trainer import Trainer

    config = _datasets()[args.dataset]
    rng = np.random.default_rng(args.seed)
    model = build_dlrm(
        config, args.representation, rng, k=args.k, dnn=args.dnn, h=args.height
    )
    dataset = SyntheticCTRDataset(config, seed=args.seed)
    trainer = Trainer(model, dataset, lr=args.lr)
    result = trainer.train(n_steps=args.steps, batch_size=args.batch_size)
    print(f"representation : {args.representation}")
    print(f"parameters     : {model.num_parameters():,}")
    print(f"loss           : {result.losses[0]:.4f} -> {result.final_loss:.4f}")
    print(f"accuracy       : {result.eval_accuracy:.4f}")
    print(f"auc            : {result.eval_auc:.4f}")
    return 0


def cmd_plan(args) -> int:
    from repro.core.offline import OfflinePlanner
    from repro.experiments.setup import hw1_devices, hw2_devices
    from repro.quality.estimator import QualityEstimator

    config = _datasets()[args.dataset]
    devices = hw1_devices() if args.hw == "hw1" else hw2_devices()
    plan = OfflinePlanner(config, QualityEstimator(args.dataset)).plan(devices)
    for device_name, reps in plan.mappings.items():
        print(f"{device_name} ({plan.device_bytes(device_name) / 1e9:.3f} GB used):")
        for rep in reps:
            print(
                f"  {rep.display:24s} {rep.total_bytes(config) / 1e9:8.3f} GB"
                f"   acc {plan.accuracies[rep.display]:.3f}%"
            )
    return 0


def _given(flags) -> str:
    """The names in ``(flag, set?)`` pairs whose flag is set, joined."""
    return ", ".join(flag for flag, used in flags if used)


def _serve_facts(args) -> argparse.Namespace:
    """``args`` plus the derived facts the ``serve`` rules read."""
    f = argparse.Namespace(**vars(args))
    f.geo = args.regions is not None
    f.n_nodes = args.nodes or 1
    f.fleet = args.autoscale or args.autopilot
    f.mode = "--autopilot" if args.autopilot else "--autoscale"
    f.ceiling = args.max_nodes if args.max_nodes is not None else f.n_nodes
    # Neither geo, switching nor a fleet: a plain cluster or one node.
    f.plain = not (f.geo or args.switching or f.fleet)
    f.fail_drill = args.fail_at is not None or args.fail_node != 0
    f.geo_flags = _given([
        ("--wan-link", args.wan_link is not None),
        ("--geo-router", args.geo_router is not None),
        ("--region-replication", args.region_replication is not None),
        ("--region-fail-at", args.region_fail_at is not None),
        ("--fail-region", args.fail_region is not None),
    ])
    f.cluster_modes = _given([
        ("--fastpath", args.fastpath),
        ("--switching", args.switching),
        ("--autoscale", args.autoscale),
        ("--autopilot", args.autopilot),
        ("--fail-at/--fail-node", f.fail_drill),
    ])
    f.kernel_modes = _given([
        ("--switching", args.switching),
        ("--autoscale", args.autoscale),
        ("--autopilot", args.autopilot),
        ("--nodes > 1", f.n_nodes > 1),
    ])
    f.fleet_flags = _given([
        ("--min-nodes", args.min_nodes != 1),
        ("--max-nodes", args.max_nodes is not None),
        ("--scale-cooldown", args.scale_cooldown is not None),
    ])
    f.cluster_flags = _given([
        ("--fail-at", args.fail_at is not None),
        ("--fail-node", args.fail_node != 0),
        ("--replication", args.replication > 1),
        ("--max-queue", args.max_queue > 0),
        ("--router", args.router != "round-robin"),
        ("--link", args.link != "eth-100g"),
        ("--cache-mb", args.cache_mb is not None),
        ("--cache-policy", args.cache_policy is not None),
    ])
    return f


# Every flag combination ``serve`` rejects: (predicate over the facts,
# message formatted with them), checked in order; the first that holds
# is the error.  Geo rules come first: --regions redefines --nodes as
# the per-region cluster size.
_SERVE_RULES = (
    (lambda f: not f.geo and f.geo_flags,
     "{geo_flags} require(s) --regions"),
    (lambda f: f.geo and f.nodes is None,
     "--regions needs --nodes (the per-region cluster size)"),
    (lambda f: f.geo and f.cluster_modes,
     "{cluster_modes} cannot combine with --regions (the region tier owns "
     "failure drills; per-cluster controllers are not composed)"),
    (lambda f: f.geo and f.arrivals != "poisson",
     "--regions builds its own follow-the-sun phase-offset diurnal day; "
     "drop --arrivals"),
    (lambda f: f.geo and f.region_fail_at is not None
     and not f.region_fail_at >= 0,  # also rejects nan
     "--region-fail-at must be non-negative, got {region_fail_at:g}"),
    (lambda f: f.geo and (f.region_fail_at is None) != (f.fail_region is None),
     "--region-fail-at and --fail-region go together"),
    (lambda f: f.geo and f.fail_region is not None
     and not 0 <= f.fail_region < f.regions,
     "--fail-region {fail_region} out of range for --regions {regions}"),
    (lambda f: f.geo and f.region_replication is not None
     and f.region_replication > f.regions,
     "--region-replication {region_replication} exceeds --regions "
     "{regions}"),
    (lambda f: f.geo and f.replication > f.nodes,
     "--replication {replication} exceeds --nodes {nodes} (shards "
     "replicate within a region; across regions use --region-replication)"),
    (lambda f: f.fastpath and f.kernel_modes,
     "--fastpath is the single-node array engine; {kernel_modes} "
     "require(s) the event kernel"),
    (lambda f: f.autopilot and f.switching,
     "--autopilot subsumes --switching (representation switches are one "
     "of its action classes); pass one"),
    (lambda f: f.autopilot and f.autoscale,
     "--autopilot subsumes --autoscale (scale is one of its action "
     "classes); pass one"),
    (lambda f: f.autopilot and f.scheduler != "mp-rec",
     "--autopilot builds its own one-representation-per-device "
     "deployment; leave --scheduler at its default"),
    (lambda f: f.autopilot and (f.switch_cooldown is not None
                                or f.scale_cooldown is not None),
     "--switch-cooldown/--scale-cooldown tune the stand-alone "
     "controllers; the autopilot shares one cooldown across all action "
     "classes (ControlPlane.cooldown_s)"),
    (lambda f: not f.autopilot and f.trace_decisions is not None,
     "--trace-decisions requires --autopilot"),
    (lambda f: f.switch_cooldown is not None and not f.switching,
     "--switch-cooldown requires --switching"),
    (lambda f: f.switching and (f.n_nodes > 1 or f.autoscale),
     "--switching is a single-node mode (use the ClusterSimulator API for "
     "switching fleets)"),
    (lambda f: f.switching and f.scheduler != "mp-rec",
     "--switching builds its own one-representation-per-device "
     "deployment; leave --scheduler at its default"),
    (lambda f: f.switching and (f.cache_mb is not None
                                or f.cache_policy is not None),
     "--cache-mb/--cache-policy build the cluster cache tier (--nodes > "
     "1); --switching is single-node"),
    (lambda f: f.cache_mb is not None and not f.cache_mb > 0,
     "--cache-mb must be positive, got {cache_mb:g}"),
    (lambda f: f.cache_mb == float("inf"), "--cache-mb must be finite"),
    (lambda f: f.cache_mb is not None and int(f.cache_mb * 2**20) < 1,
     "--cache-mb must hold at least one byte, got {cache_mb:g}"),
    (lambda f: f.cache_policy is not None and f.cache_mb is None,
     "--cache-policy requires --cache-mb (no cache to govern)"),
    (lambda f: f.router == "cache-affinity" and f.cache_mb is None,
     "--router cache-affinity scores nodes by cache residency; give the "
     "tier a budget with --cache-mb"),
    (lambda f: not f.fleet and f.fleet_flags,
     "{fleet_flags} require(s) --autoscale or --autopilot"),
    (lambda f: f.fleet and f.max_nodes is not None and f.n_nodes > 1
     and f.max_nodes != f.n_nodes,
     "--nodes {n_nodes} conflicts with --max-nodes {max_nodes}; give the "
     "fleet ceiling once"),
    (lambda f: f.fleet and f.ceiling < 2,
     "{mode} with --nodes 1 is not a fleet; give the ceiling via --nodes "
     "or --max-nodes (> 1)"),
    (lambda f: f.fleet and f.min_nodes > f.ceiling,
     "--min-nodes {min_nodes} exceeds the fleet ceiling {ceiling}"),
    (lambda f: f.fleet and f.fail_drill,
     "{mode} and --fail-at/--fail-node cannot be combined (elastic "
     "membership has no failure drill yet)"),
    (lambda f: f.fleet and f.replication > f.min_nodes,
     "--replication {replication} exceeds --min-nodes {min_nodes}; every "
     "epoch must fit its replication chains"),
    (lambda f: f.plain and f.n_nodes > 1 and f.replication > f.n_nodes,
     "--replication {replication} exceeds --nodes {n_nodes}"),
    (lambda f: f.plain and f.n_nodes > 1 and f.fail_at is not None
     and not 0 <= f.fail_node < f.n_nodes,
     "--fail-node {fail_node} out of range for --nodes {n_nodes}"),
    (lambda f: f.plain and f.n_nodes > 1 and f.fail_at is None
     and f.fail_node != 0,
     "--fail-node requires --fail-at (no failure is simulated otherwise)"),
    # Cluster-only flags must not be silently ignored on a 1-node run.
    (lambda f: f.plain and f.n_nodes == 1 and f.cluster_flags,
     "{cluster_flags} require(s) --nodes > 1"),
)


def cmd_serve(args) -> int:
    # Pure flag checks run before the (potentially huge) workload is built.
    facts = _serve_facts(args)
    for broken, message in _SERVE_RULES:
        if broken(facts):
            print(f"error: {message.format_map(vars(facts))}",
                  file=sys.stderr)
            return 2
    sim, run_args = _serve_build(args, facts, _datasets()[args.dataset])
    res = sim.run_streaming(*run_args) if args.streaming else sim.run(*run_args)
    print("\n".join(_serve_report(args, facts, sim, res)))
    return 0


def _serve_build(args, facts, config):
    """The one façade a ``serve`` run drives, and its ``run`` arguments."""
    from repro.experiments.setup import (
        build_cluster,
        build_regions,
        build_schedulers,
        build_switching,
        follow_the_sun_scenario,
    )
    from repro.hardware.topology import CLUSTER_LINKS
    from repro.serving.controlplane import ControlPlane
    from repro.serving.simulator import ServingSimulator
    from repro.serving.workload import ServingScenario

    batching = dict(
        shed_policy=args.shed_policy, max_batch_size=args.max_batch,
        batch_timeout_s=args.batch_timeout_ms / 1e3,
    )
    fleet = dict(
        batching, router=args.router, replication=args.replication,
        link=CLUSTER_LINKS[args.link], max_queue=args.max_queue,
    )
    if args.cache_mb is not None:
        fleet.update(cache_bytes=int(args.cache_mb * 2**20),
                     cache_policy=args.cache_policy or "lru")
    if facts.geo:
        scenario, region_of = follow_the_sun_scenario(
            n_regions=args.regions, n_queries=args.queries, qps=args.qps,
            sla_s=args.sla_ms / 1e3, seed=args.seed,
        )
        drill = {} if args.region_fail_at is None else dict(
            fail_at=args.region_fail_at, fail_region=args.fail_region
        )
        return build_regions(
            config, args.regions, nodes_per_region=args.nodes,
            wan=args.wan_link or "wan-metro",
            geo_router=args.geo_router or "spill",
            region_replication=args.region_replication or 1,
            scheduler=args.scheduler, **fleet, **drill,
        ), (scenario, region_of)
    scenario = ServingScenario.with_process(
        args.arrivals, n_queries=args.queries, qps=args.qps,
        sla_s=args.sla_ms / 1e3, seed=args.seed,
    )
    if args.switching:
        cooldown_ms = 250.0 if args.switch_cooldown is None else args.switch_cooldown
        scheduler, controller = build_switching(
            config, cooldown_s=cooldown_ms / 1e3
        )
        sim = ServingSimulator(scheduler, switch_controller=controller, **batching)
    elif args.autopilot:
        scheduler, switcher = build_switching(config)
        plane = ControlPlane(min_nodes=args.min_nodes, max_nodes=facts.ceiling)
        sim = build_cluster(
            config, facts.ceiling, scheduler, switch_controller=switcher,
            controlplane=plane, **fleet,
        )
    elif args.autoscale:
        cooldown_ms = 500.0 if args.scale_cooldown is None else args.scale_cooldown
        plane = ControlPlane(
            min_nodes=args.min_nodes, max_nodes=facts.ceiling,
            actions=("scale",), patience=8, cooldown_s=cooldown_ms / 1e3,
        )
        sim = build_cluster(
            config, facts.ceiling, args.scheduler, controlplane=plane, **fleet
        )
    elif facts.n_nodes > 1:
        sim = build_cluster(
            config, facts.n_nodes, args.scheduler, fail_at=args.fail_at,
            fail_node=args.fail_node, **fleet,
        )
    else:
        sim = ServingSimulator(
            build_schedulers(config)[args.scheduler],
            engine="fast" if args.fastpath else "event", **batching,
        )
    return sim, (scenario,)


def _serve_report(args, facts, sim, res) -> list[str]:
    """A ``serve`` run's report: the mode's head, the headline, the mode's
    body, the fleet tail (cache, failures, edge drops), the mode's trace."""
    from repro.serving.controlplane import format_decision

    served = getattr(res, "result", res)  # a fleet result wraps its metrics
    scheduler = f"scheduler              : {args.scheduler}"
    shape = (f"{args.router} router, replication {args.replication}, "
             f"{args.link}")
    fleet = f"{args.min_nodes}..{facts.ceiling} nodes, {shape}"
    body, trace = [], []
    if facts.geo:
        head = [f"geo fleet              : {args.regions} regions x "
                f"{args.nodes} node(s), {res.router} geo-router, "
                f"{res.wan.name}, region replication "
                f"{res.region_replication}", scheduler]
        body = [
            f"spilled / re-homed     : {res.spills} / {res.rehomed}",
            f"WAN traffic            : {res.wan_bytes / 1e6:.2f} MB "
            f"({res.wan_cost_j:.2f} J-eq)",
            f"total cost             : {res.total_cost_j:.2f} J-eq",
        ] + [f"  {name:8s} violations {metrics.violation_rate * 100:6.2f}%  "
             f"p99 {metrics.p99_latency_s * 1e3:8.2f} ms"
             for name, metrics in zip(res.regions, res.per_region)]
        crossed = res.cross_region
        if crossed is not None and crossed.n:
            body.append(f"  {'x-region':8s} violations "
                        f"{crossed.violation_rate * 100:6.2f}%  "
                        f"p99 {crossed.p99_latency_s * 1e3:8.2f} ms "
                        f"({crossed.n} crossed)")
    elif args.switching:
        events = sim.switch_controller.events
        head = ["mode                   : runtime representation switching"]
        body = [
            f"switches               : {len(events)}",
            f"switch overhead        : "
            f"{sim.switch_controller.total_overhead_s * 1e3:.2f} ms",
        ] + [f"  t={event.time_s * 1e3:8.1f} ms  {event.device}: "
             f"{event.from_label} -> {event.to_label} "
             f"(+{event.overhead_s * 1e3:.1f} ms)" for event in events[:8]]
    elif args.autopilot:
        head = [f"autopilot fleet        : {fleet}"]
        body = [
            f"control decisions      : {len(res.control_decisions)}",
            f"scale ups / downs      : {res.scale_ups} / {res.scale_downs}",
            f"node-seconds           : {res.node_seconds:.3f}",
            f"final router           : {res.router}",
        ]
        shown = 8 if args.trace_decisions is None else args.trace_decisions
        trace = [f"  {format_decision(decision)}"
                 for decision in res.control_decisions[:shown]]
    elif args.autoscale:
        head = [f"elastic cluster        : {fleet}", scheduler]
        body = [
            f"scale ups / downs      : {res.scale_ups} / {res.scale_downs}",
            f"node-seconds           : {res.node_seconds:.3f}",
            f"handoff overhead       : {res.handoff_overhead_s * 1e3:.2f} ms",
            f"rerouted by drains     : {res.rerouted}",
        ]
        trace = [_scale_line(event) for event in res.scale_events[:10]]
    elif facts.n_nodes > 1:
        head = [f"cluster                : {facts.n_nodes} nodes, {shape}",
                scheduler]
        served_by = ", ".join(str(n) for n in res.per_node_served)
        body = [f"per-node served        : [{served_by}]"]
    else:
        engine = "fast (array path)" if args.fastpath else "event kernel"
        head = [scheduler, f"engine                 : {engine}"]
    tail = []
    if served is res:  # one node: the share of queries each path served
        body = [f"  {label:16s} {share * 100:5.1f}%"
                for label, share in res.switching_breakdown().items()] + body
    else:
        tail = _cache_lines(res.cache)
        failed = ([res.regions[r] for r in res.failed_regions] if facts.geo
                  else res.failed_nodes)
        if failed:
            tail += [
                f"failed {'regions' if facts.geo else 'nodes':16s}: {failed}",
                f"rerouted / lost        : {res.rerouted} / {res.lost}",
                f"wasted energy          : {res.wasted_energy_j:.2f} J",
            ]
        if res.edge_drops:
            tail.append(f"edge drops             : {res.edge_drops}")
    return head + _headline(served) + body + tail + trace


def _headline(result) -> list[str]:
    """The six headline serving metrics every ``serve`` mode prints."""
    return [
        f"correct predictions/s  : {result.correct_prediction_throughput:,.0f}",
        f"raw samples/s          : {result.raw_throughput:,.0f}",
        f"served accuracy        : {result.mean_accuracy:.3f}%",
        f"SLA violations         : {result.violation_rate * 100:.2f}%",
        f"shed (dropped)         : {result.drop_rate * 100:.2f}%",
        f"p99 latency            : {result.p99_latency_s * 1e3:.2f} ms",
    ]


def _cache_lines(cache) -> list[str]:
    """The cache tier's headline counters (one block, cluster modes)."""
    if cache is None:
        return []
    lines = [
        f"cache hit rate         : {cache.hit_rate * 100:.2f}% "
        f"({cache.hits}/{cache.lookups} row lookups)",
        f"cache fill bytes       : {cache.fill_bytes / 1e6:.2f} MB"
        + (f" (+{cache.warm_bytes / 1e6:.2f} MB warmed)"
           if cache.warm_bytes else ""),
    ]
    if cache.rewarm_bytes:
        lines.append(f"cache re-warm          : {cache.rewarm_bytes / 1e6:.2f}"
                     f" MB in {cache.rewarm_s * 1e3:.2f} ms (switch "
                     "invalidations)")
    return lines


def _scale_line(event) -> str:
    """One scale event of the autoscale trace."""
    if event.kind == "up":
        detail = (f"warm {event.warm_bytes / 1e6:.1f} MB in "
                  f"{event.warm_s * 1e3:.2f} ms")
        if event.cache_warm_bytes:
            detail += f" (+{event.cache_warm_bytes / 1e6:.1f} MB cache)"
    else:
        detail = f"re-injected {event.reinjected}"
        if event.cache_donated_bytes:
            detail += f", donated {event.cache_donated_bytes / 1e6:.1f} MB cache"
    return (f"  t={event.time_s * 1e3:8.1f} ms  {event.kind:4s} node "
            f"{event.node_id} -> {event.n_members} members ({detail})")


def cmd_characterize(args) -> int:
    from repro.analysis.breakdown import breakdown_table, slowdown_vs
    from repro.core.representations import paper_configs
    from repro.hardware.catalog import CPU_BROADWELL, GPU_V100

    config = _datasets()[args.dataset]
    reps = {
        name: rep
        for name, rep in paper_configs(config).items()
        if name != "dhe_compact"
    }
    for device in (CPU_BROADWELL, GPU_V100):
        breakdowns = breakdown_table(reps, config, device, args.batch)
        slowdowns = slowdown_vs(breakdowns, "table")
        print(f"{device.name} (batch {args.batch}):")
        for name, bd in breakdowns.items():
            print(
                f"  {name:8s} {bd.total * 1e3:10.3f} ms ({slowdowns[name]:6.2f}x)"
            )
    return 0


def cmd_generate_data(args) -> int:
    from repro.data.criteo import write_criteo_file

    config = _datasets()[args.dataset]
    path = write_criteo_file(args.out, config, n_rows=args.rows, seed=args.seed)
    print(f"wrote {args.rows} rows to {path}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "plan": cmd_plan,
    "serve": cmd_serve,
    "characterize": cmd_characterize,
    "generate-data": cmd_generate_data,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
