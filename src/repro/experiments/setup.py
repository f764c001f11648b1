"""Assembly of the paper's evaluation design points (Section 5.1).

HW-1: CPU (32 GB DRAM) + GPU (32 GB HBM2) — the main evaluation platform.
HW-2: CPU (1 GB) + GPU (200 MB) — the memory-constrained case study.
HW-3: CPU (32 GB) + IPU board/pod — the custom-accelerator case study
(assembled per-bench via ``repro.hardware.topology``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.sharding import greedy_shard
from repro.core.mp_cache import (
    CacheEffect,
    DecoderCentroidCache,
    row_entry_bytes,
    zipf_static_hit_rates,
)
from repro.core.offline import MappingPlan, OfflinePlanner
from repro.core.online import (
    MultiPathScheduler,
    Scheduler,
    StaticScheduler,
    TableSwitchScheduler,
)
from repro.core.paths import ExecutionPath
from repro.core.profiler import make_path
from repro.core.representations import RepresentationConfig, paper_configs
from repro.core.switching import SwitchController
from repro.hardware.catalog import CPU_BROADWELL, GPU_V100
from repro.hardware.device import GB, MB, DeviceSpec
from repro.hardware.latency import PriceModel
from repro.hardware.topology import ETHERNET_100G, LinkSpec
from repro.models.configs import KAGGLE, TERABYTE, ModelConfig
from repro.quality.estimator import QualityEstimator
import numpy as np

from repro.data.queries import generate_query_arrays, merge_query_arrays
from repro.serving.cluster import ClusterResult, ClusterSimulator
from repro.serving.region import GeoRouter, RegionResult, RegionSimulator
from repro.serving.wan import WanLink
from repro.serving.controlplane import ACTION_CLASSES, ControlPlane
from repro.serving.metrics import ServingResult
from repro.serving.routing import Router
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import ServingScenario


@dataclass(frozen=True)
class HardwareConfig:
    name: str
    cpu_dram: int
    gpu_dram: int


HW1 = HardwareConfig(name="HW-1", cpu_dram=32 * GB, gpu_dram=32 * GB)
HW2 = HardwareConfig(name="HW-2", cpu_dram=1 * GB, gpu_dram=200 * MB)

_DATASETS = {"kaggle": KAGGLE, "terabyte": TERABYTE}


def dataset_for(model: ModelConfig) -> str:
    """Quality-estimator dataset key for a model config."""
    name = model.name.split("-")[0]
    return name if name in ("kaggle", "terabyte") else "internal"


def hw1_devices() -> list[DeviceSpec]:
    return [
        CPU_BROADWELL.with_memory_budget(HW1.cpu_dram),
        GPU_V100.with_memory_budget(HW1.gpu_dram),
    ]


def hw2_devices() -> list[DeviceSpec]:
    return [
        CPU_BROADWELL.with_memory_budget(HW2.cpu_dram),
        GPU_V100.with_memory_budget(HW2.gpu_dram),
    ]


def default_cache_effect(
    model: ModelConfig,
    rep: RepresentationConfig,
    capacity_bytes: int = 2 * MB,
    n_centroids: int = 256,
    zipf_alpha: float = 1.05,
) -> CacheEffect:
    """MP-Cache effect with the paper's default sizing (2 MB encoder cache,
    centroid kNN decoder), computed analytically from the traffic model."""
    return _cache_effects(
        model, [rep], capacity_bytes, n_centroids, zipf_alpha
    )[rep]


_NO_CACHE = CacheEffect(
    encoder_hit_rate=0.0, decoder_speedup=1.0, accuracy_penalty=0.0
)


def _cache_effects(
    model: ModelConfig,
    reps: list[RepresentationConfig],
    capacity_bytes: int = 2 * MB,
    n_centroids: int = 256,
    zipf_alpha: float = 1.05,
) -> dict[RepresentationConfig, CacheEffect]:
    """:func:`default_cache_effect` for several representations at once:
    the tables' Zipf normalisers are computed once and every distinct
    representation is priced off them (see ``zipf_static_hit_rates``)."""
    reps = list(dict.fromkeys(reps))
    hit_rates = zipf_static_hit_rates(
        model.cardinalities,
        [capacity_bytes // row_entry_bytes(rep.embedding_dim) for rep in reps],
        zipf_alpha,
    )
    decoder = DecoderCentroidCache(n_centroids)
    return {
        rep: CacheEffect(
            encoder_hit_rate=hit_rate,
            decoder_speedup=decoder.speedup(rep),
            accuracy_penalty=0.002,
        )
        for rep, hit_rate in zip(reps, hit_rates)
    }


def _priced_path(
    rep: RepresentationConfig,
    model: ModelConfig,
    device: DeviceSpec,
    accuracy: float,
    label: str,
    effect: CacheEffect = _NO_CACHE,
) -> ExecutionPath:
    """:func:`~repro.core.profiler.make_path` with the roofline price model
    attached, so the serving engines charge the path's energy by
    utilization instead of at half TDP."""
    path = make_path(
        rep, model, device, accuracy,
        encoder_hit_rate=effect.encoder_hit_rate,
        decoder_speedup=effect.decoder_speedup,
        label=label,
    )
    path.price = PriceModel(
        rep, model, device, effect.encoder_hit_rate, effect.decoder_speedup
    )
    return path


def build_plan(
    model: ModelConfig,
    devices: list[DeviceSpec] | None = None,
) -> MappingPlan:
    """Run the offline stage (Algorithm 1) on the given platform."""
    estimator = QualityEstimator(dataset_for(model))
    planner = OfflinePlanner(model, estimator)
    return planner.plan(devices if devices is not None else hw1_devices())


def _mp_paths(
    model: ModelConfig, devices: list[DeviceSpec], with_cache: bool
) -> dict[str, list[ExecutionPath]]:
    """MP-Rec's execution paths by device: the offline plan's mappings,
    DHE-bearing ones carrying the MP-Cache effect (each distinct
    representation priced once) unless ``with_cache`` is off."""
    plan = build_plan(model, devices)
    effects = _cache_effects(model, [
        rep for reps in plan.mappings.values() for rep in reps
        if rep.uses_dhe and with_cache
    ])
    paths: dict[str, list[ExecutionPath]] = {}
    for device_name, reps in plan.mappings.items():
        device = plan.devices[device_name]
        for rep in reps:
            effect = effects.get(rep, _NO_CACHE)
            path = _priced_path(
                rep, model, device,
                plan.accuracies[rep.display] - effect.accuracy_penalty,
                f"{rep.kind.upper()}({device.kind.upper()})",
                effect,
            )
            paths.setdefault(device_name, []).append(path)
    return paths


def build_schedulers(
    model: ModelConfig,
    devices: list[DeviceSpec] | None = None,
    with_cache: bool = True,
) -> dict[str, Scheduler]:
    """All Figure 10 contenders: static deployments, table CPU-GPU
    switching, and MP-Rec (with MP-Cache unless disabled)."""
    devices = devices if devices is not None else hw1_devices()
    cpu, gpu = devices[0], devices[1]
    estimator = QualityEstimator(dataset_for(model))
    configs = paper_configs(model)

    schedulers: dict[str, Scheduler] = {}
    table_paths = []
    for rep_name in ("table", "dhe", "hybrid"):
        rep = configs[rep_name]
        for device in (cpu, gpu):
            if rep.total_bytes(model) > device.total_memory:
                continue
            path = _priced_path(
                rep, model, device, estimator.accuracy(rep),
                f"{rep_name.upper()}({device.kind.upper()})",
            )
            schedulers[f"{rep_name}-{device.kind}"] = StaticScheduler([path])
            if rep_name == "table":
                table_paths.append(path)
    # Table-only CPU<->GPU switching baseline.
    if table_paths:
        schedulers["table-switch"] = TableSwitchScheduler(table_paths)

    # MP-Rec: offline plan -> cached execution paths -> Algorithm 2.
    schedulers["mp-rec"] = MultiPathScheduler([
        path
        for paths in _mp_paths(model, devices, with_cache).values()
        for path in paths
    ])
    return schedulers


def build_switching(
    model: ModelConfig,
    devices: list[DeviceSpec] | None = None,
    with_cache: bool = True,
    initial: str = "table",
    cooldown_s: float = 0.25,
    hi_pressure: float = 0.75,
    lo_pressure: float = 0.25,
    patience: int = 4,
    headroom: float = 0.8,
) -> tuple[Scheduler, SwitchController]:
    """A runtime-switching deployment: one resident representation per
    device (``initial`` kind where mapped, else the device's fastest) and
    a :class:`~repro.core.switching.SwitchController` holding the offline
    plan's other representations as swap candidates.

    This is MP-Rec's memory-frugal sibling: instead of keeping every
    planned representation resident (the multi-path scheduler), each
    device hosts exactly one and pays the Figure-15 load/teardown window
    to change it as load shifts. Pass the returned pair to
    :class:`~repro.serving.simulator.ServingSimulator` /
    :class:`~repro.serving.cluster.ClusterSimulator`.
    """
    devices = devices if devices is not None else hw1_devices()
    candidates = _mp_paths(model, devices, with_cache)
    residents = []
    for device_name, paths in candidates.items():
        preferred = [p for p in paths if p.kind == initial]
        residents.append(
            preferred[0] if preferred else min(paths, key=lambda p: p.latency(1))
        )
    controller = SwitchController(
        candidates,
        hi_pressure=hi_pressure,
        lo_pressure=lo_pressure,
        patience=patience,
        cooldown_s=cooldown_s,
        headroom=headroom,
    )
    return MultiPathScheduler(residents), controller


def run_serving_comparison(
    model: ModelConfig,
    scenario: ServingScenario | None = None,
    devices: list[DeviceSpec] | None = None,
    with_cache: bool = True,
    subset: tuple[str, ...] = (),
    shed_policy: str = "none",
    max_batch_size: int = 1,
    batch_timeout_s: float = 0.0,
    streaming: bool = False,
    engine: str = "event",
) -> dict[str, ServingResult]:
    """Run every scheduler through the scenario; returns results by name.

    ``shed_policy`` / ``max_batch_size`` / ``batch_timeout_s`` forward to
    the engine; defaults reproduce the per-query reference behavior.
    ``streaming=True`` swaps exact record-backed results for constant-memory
    :class:`~repro.serving.metrics.StreamingMetrics` (same metric API).
    ``engine="fast"`` swaps the event kernel for the array fast path
    (:mod:`repro.serving.fastpath`) — identical records, far faster at
    scale."""
    scenario = scenario or ServingScenario.paper_default()
    schedulers = build_schedulers(model, devices, with_cache=with_cache)
    if subset:
        schedulers = {k: v for k, v in schedulers.items() if k in subset}
    results = {}
    for name, sched in schedulers.items():
        sim = ServingSimulator(
            sched, shed_policy=shed_policy, max_batch_size=max_batch_size,
            batch_timeout_s=batch_timeout_s, engine=engine,
        )
        results[name] = (
            sim.run_streaming(scenario) if streaming else sim.run(scenario)
        )
    return results


def run_switching_serving(
    model: ModelConfig,
    scenario: ServingScenario | None = None,
    devices: list[DeviceSpec] | None = None,
    shed_policy: str = "none",
    max_batch_size: int = 1,
    batch_timeout_s: float = 0.0,
    streaming: bool = False,
    **switching_kwargs,
):
    """Run one scenario through the runtime-switching deployment.

    Returns ``(result, controller)`` — the controller's ``events`` carry
    the run's residency trace. ``switching_kwargs`` forward to
    :func:`build_switching` (``cooldown_s``, ``patience``, thresholds...).
    """
    scenario = scenario or ServingScenario.paper_default()
    scheduler, controller = build_switching(
        model, devices, **switching_kwargs
    )
    sim = ServingSimulator(
        scheduler, shed_policy=shed_policy, max_batch_size=max_batch_size,
        batch_timeout_s=batch_timeout_s, switch_controller=controller,
    )
    result = sim.run_streaming(scenario) if streaming else sim.run(scenario)
    return result, controller


def build_cluster(
    model: ModelConfig,
    n_nodes: int,
    scheduler: str = "mp-rec",
    router: str | Router = "round-robin",
    replication: int = 1,
    link: LinkSpec = ETHERNET_100G,
    devices: list[DeviceSpec] | None = None,
    with_cache: bool = True,
    cache_bytes: int = 0,
    cache_policy: str = "lru",
    **cluster_kwargs,
) -> ClusterSimulator:
    """Assemble a serving cluster: every node runs the named scheduler's
    paths on its own HW-1 replica, and the model's tables are greedy-LPT
    sharded (:func:`~repro.analysis.sharding.greedy_shard`) across nodes.

    ``cache_bytes`` / ``cache_policy`` size the per-node MP-Cache tier
    (:mod:`repro.serving.cache`; 0 = off) — ``with_cache`` is the older,
    unrelated knob for the *single-node* analytic MP-Cache effect baked
    into each path's latency model.  ``cluster_kwargs`` forward to
    :class:`~repro.serving.cluster.ClusterSimulator` (``shed_policy``,
    ``max_batch_size``, ``max_queue``, ``fail_at``, ``fail_node``,
    ``hot_fraction``, ``cache_alpha``, ``cache_hot_rows``, ...).
    """
    return _assemble_cluster(
        model, build_schedulers(model, devices, with_cache=with_cache),
        n_nodes, scheduler, router=router, replication=replication,
        link=link, cache_bytes=cache_bytes, cache_policy=cache_policy,
        **cluster_kwargs,
    )


def _assemble_cluster(
    model: ModelConfig,
    schedulers: dict[str, Scheduler],
    n_nodes: int,
    scheduler: str = "mp-rec",
    **cluster_kwargs,
) -> ClusterSimulator:
    """A cluster running ``schedulers[scheduler]`` on every node over the
    model's greedy-LPT sharding plan; the scheduler object is shared, as
    :class:`~repro.serving.cluster.ClusterSimulator` shares it across
    its nodes."""
    if scheduler not in schedulers:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; have {sorted(schedulers)}"
        )
    plan = greedy_shard(model.cardinalities, model.embedding_dim, n_nodes)
    return ClusterSimulator(schedulers[scheduler], plan, **cluster_kwargs)


def run_cluster_serving(
    model: ModelConfig,
    scenario: ServingScenario | None = None,
    n_nodes: int = 2,
    scheduler: str = "mp-rec",
    router: str | Router = "round-robin",
    replication: int = 1,
    streaming: bool = False,
    **kwargs,
) -> ClusterResult:
    """Run one scenario through a multi-node cluster; the cluster analogue
    of :func:`run_serving_comparison` for a single scheduler."""
    scenario = scenario or ServingScenario.paper_default()
    cluster = build_cluster(
        model, n_nodes, scheduler=scheduler, router=router,
        replication=replication, **kwargs,
    )
    return cluster.run_streaming(scenario) if streaming else cluster.run(scenario)


def build_autoscaled_cluster(
    model: ModelConfig,
    min_nodes: int,
    max_nodes: int,
    scheduler: str = "mp-rec",
    router: str | Router = "least-loaded",
    replication: int = 1,
    link: LinkSpec = ETHERNET_100G,
    devices: list[DeviceSpec] | None = None,
    with_cache: bool = True,
    initial_nodes: int | None = None,
    hi_pressure: float = 0.75,
    lo_pressure: float = 0.25,
    patience: int = 8,
    patience_down: int = 32,
    cooldown_s: float = 0.5,
    **cluster_kwargs,
) -> ClusterSimulator:
    """Assemble an *elastic* serving cluster: the sharding plan is sized
    for the ``max_nodes`` ceiling, membership starts at ``initial_nodes``
    (default ``min_nodes``), and a :class:`~repro.serving.controlplane.
    ControlPlane` with only its ``"scale"`` action enabled adds or drains
    nodes as the fleet's pressure signals say — joins warm their shard
    slice over ``link``, drains hand queued queries back through the
    failover path (zero-loss).

    ``cluster_kwargs`` forward through :func:`build_cluster`
    (``shed_policy``, ``max_batch_size``, ``batch_timeout_s``,
    ``max_queue``, ``hot_fraction``, ``cache_bytes``, ``cache_policy``,
    ...) — with the cache tier on, joins warm their cache alongside the
    shard slice and drains donate their hot set.
    """
    plane = ControlPlane(
        min_nodes=min_nodes,
        max_nodes=max_nodes,
        initial_nodes=initial_nodes,
        actions=("scale",),
        hi_pressure=hi_pressure,
        lo_pressure=lo_pressure,
        patience=patience,
        patience_down=patience_down,
        cooldown_s=cooldown_s,
    )
    return build_cluster(
        model, max_nodes, scheduler=scheduler, router=router,
        replication=replication, link=link, devices=devices,
        with_cache=with_cache, controlplane=plane, **cluster_kwargs,
    )


def build_autopilot_cluster(
    model: ModelConfig,
    min_nodes: int,
    max_nodes: int,
    router: str | Router = "least-loaded",
    replication: int = 1,
    link: LinkSpec = ETHERNET_100G,
    devices: list[DeviceSpec] | None = None,
    with_cache: bool = True,
    initial: str = "table",
    actions: tuple = ACTION_CLASSES,
    initial_nodes: int | None = None,
    hi_pressure: float = 0.75,
    lo_pressure: float = 0.25,
    patience: int = 4,
    patience_down: int = 32,
    cooldown_s: float = 0.25,
    horizon_s: float = 2.0,
    node_cost_w: float = 1.0,
    **cluster_kwargs,
) -> ClusterSimulator:
    """Assemble the *autopilot* fleet: every node runs the runtime-
    switching deployment (:func:`build_switching` — one resident
    representation per device, the offline plan's others as swap
    candidates), the plan is sized for the ``max_nodes`` ceiling, and a
    single :class:`~repro.serving.controlplane.ControlPlane` arbitrates
    representation switches, membership changes, cache re-warms, and
    router swaps against one cost function (docs/controlplane.md).

    ``actions`` selects the enabled action classes (default: all four);
    ``cluster_kwargs`` forward to :class:`~repro.serving.cluster.
    ClusterSimulator` (``shed_policy``, ``max_batch_size``,
    ``batch_timeout_s``, ``max_queue``, ``hot_fraction``,
    ``cache_bytes``, ``cache_policy``, ...) — with the cache tier on,
    re-warm and cache-affinity re-routing become live candidates.
    """
    scheduler, switcher = build_switching(
        model, devices, with_cache=with_cache, initial=initial
    )
    plane = ControlPlane(
        min_nodes=min_nodes,
        max_nodes=max_nodes,
        initial_nodes=initial_nodes,
        actions=actions,
        hi_pressure=hi_pressure,
        lo_pressure=lo_pressure,
        patience=patience,
        patience_down=patience_down,
        cooldown_s=cooldown_s,
        horizon_s=horizon_s,
        node_cost_w=node_cost_w,
    )
    plan = greedy_shard(model.cardinalities, model.embedding_dim, max_nodes)
    return ClusterSimulator(
        scheduler, plan, router=router, replication=replication, link=link,
        switch_controller=switcher, controlplane=plane, **cluster_kwargs,
    )


def run_autopilot_serving(
    model: ModelConfig,
    scenario: ServingScenario | None = None,
    min_nodes: int = 1,
    max_nodes: int = 4,
    streaming: bool = False,
    **kwargs,
) -> ClusterResult:
    """Run one scenario under the unified autopilot; the control-plane
    analogue of :func:`run_autoscaled_serving`.  The returned
    :class:`~repro.serving.cluster.ClusterResult` carries the full
    decision trace (``control_decisions`` — every committed action with
    the predicted costs of everything it rejected) alongside the scaling
    trace and fleet accounting."""
    scenario = scenario or ServingScenario.paper_default()
    cluster = build_autopilot_cluster(model, min_nodes, max_nodes, **kwargs)
    return cluster.run_streaming(scenario) if streaming else cluster.run(scenario)


def run_autoscaled_serving(
    model: ModelConfig,
    scenario: ServingScenario | None = None,
    min_nodes: int = 1,
    max_nodes: int = 4,
    streaming: bool = False,
    **kwargs,
) -> ClusterResult:
    """Run one scenario through an elastic cluster; the autoscaling
    analogue of :func:`run_cluster_serving`.  The returned
    :class:`~repro.serving.cluster.ClusterResult` carries the scaling
    trace (``scale_events``), ``node_seconds``, and handoff overhead."""
    scenario = scenario or ServingScenario.paper_default()
    cluster = build_autoscaled_cluster(model, min_nodes, max_nodes, **kwargs)
    return cluster.run_streaming(scenario) if streaming else cluster.run(scenario)


def follow_the_sun_scenario(
    n_regions: int = 3,
    n_queries: int = 3000,
    qps: float = 1000.0,
    mean_size: float = 128.0,
    sla_s: float = 0.05,
    period_s: float = 60.0,
    amplitude: float = 0.8,
    seed: int = 0,
) -> tuple[ServingScenario, np.ndarray]:
    """One global day of traffic with each region's peak chasing the sun.

    Every region gets its own diurnal stream (``n_queries`` each, same
    rate curve) phase-offset by ``period_s / n_regions`` from its
    neighbor, so exactly one region is near peak at any instant while
    another sits in its trough — the scenario where cross-region
    spilling has capacity to borrow.  Returns the merged arrival-ordered
    scenario plus the parallel home-region array
    :class:`~repro.serving.region.RegionSimulator` routes by.  The
    default SLA is 50 ms — geo-scale, room for a WAN round trip — not
    the single-cluster 10 ms.
    """
    if n_regions < 1:
        raise ValueError("n_regions must be >= 1")
    streams = [
        generate_query_arrays(
            n_queries=n_queries,
            mean_size=mean_size,
            qps=qps,
            seed=seed + region,
            process="diurnal",
            period_s=period_s,
            amplitude=amplitude,
            phase_s=region * period_s / n_regions,
        )
        for region in range(n_regions)
    ]
    merged, region_of = merge_query_arrays(streams)
    return ServingScenario(queries=merged.to_queries(), sla_s=sla_s), region_of


def build_regions(
    model: ModelConfig,
    n_regions: int,
    nodes_per_region: int = 1,
    region_names: list[str] | None = None,
    wan: str | WanLink = "wan-metro",
    geo_router: str | GeoRouter = "spill",
    region_replication: int = 1,
    **kwargs,
) -> RegionSimulator:
    """Assemble a geo fleet: ``n_regions`` identical serving clusters
    (each as :func:`build_cluster` would build it, with the contiguous
    ``node_base`` offsets region composition requires) behind one WAN
    link and one geo router.  The scheduler set is built once and every
    member cluster runs the same scheduler object.  ``kwargs`` split by
    destination: region-tier knobs (``spill_margin``, ``fail_region``,
    ``fail_at``, ``bytes_per_query``, ``region_cache_bytes``) go to the
    :class:`~repro.serving.region.RegionSimulator`; the rest are
    :func:`build_cluster` arguments for every member."""
    if n_regions < 1:
        raise ValueError("n_regions must be >= 1")
    if nodes_per_region < 1:
        raise ValueError("nodes_per_region must be >= 1")
    if region_names is None:
        region_names = [f"r{i}" for i in range(n_regions)]
    if len(region_names) != n_regions:
        raise ValueError("need one name per region")
    region_keys = (
        "spill_margin", "fail_region", "fail_at", "bytes_per_query",
        "region_cache_bytes",
    )
    region_kwargs = {k: kwargs.pop(k) for k in region_keys if k in kwargs}
    schedulers = build_schedulers(
        model, kwargs.pop("devices", None),
        with_cache=kwargs.pop("with_cache", True),
    )
    regions = [
        (
            region_names[i],
            _assemble_cluster(
                model, schedulers, nodes_per_region,
                node_base=i * nodes_per_region, **kwargs,
            ),
        )
        for i in range(n_regions)
    ]
    return RegionSimulator(
        regions, wan=wan, geo_router=geo_router,
        region_replication=region_replication, **region_kwargs,
    )


def run_geo_serving(
    model: ModelConfig,
    n_regions: int = 3,
    nodes_per_region: int = 1,
    scenario: ServingScenario | None = None,
    region_of: np.ndarray | None = None,
    streaming: bool = False,
    seed: int = 0,
    **kwargs,
) -> RegionResult:
    """Run a follow-the-sun day through a geo fleet; the region-tier
    analogue of :func:`run_cluster_serving`.  Builds the default
    :func:`follow_the_sun_scenario` (keyed to ``n_regions`` and
    ``seed``) unless a scenario + home array pair is passed."""
    if (scenario is None) != (region_of is None):
        raise ValueError("scenario and region_of go together")
    if scenario is None:
        scenario, region_of = follow_the_sun_scenario(
            n_regions=n_regions, seed=seed
        )
    sim = build_regions(
        model, n_regions, nodes_per_region=nodes_per_region, **kwargs
    )
    if streaming:
        return sim.run_streaming(scenario, region_of)
    return sim.run(scenario, region_of)
