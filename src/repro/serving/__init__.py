"""Event-driven query-serving simulation, single-node and clustered
(Sections 5.3-6.9).

One serving kernel (:mod:`repro.serving.engine`: :class:`EventLoop` +
:class:`Batcher` + :class:`EngineCore` over a :class:`~repro.serving.
devices.DeviceTimeline`) backs every engine in the repo.  Entry points
and the knobs they share:

- :class:`ServingSimulator` — a thin 1-node façade over the kernel.
  ``shed_policy`` (``"none"`` / ``"drop-late"`` / ``"deadline-aware"`` or
  a :class:`ShedPolicy`) governs admission at dispatch; ``max_batch_size``
  / ``batch_timeout_s`` govern micro-batch coalescing (1 / 0.0 reproduces
  the per-query reference loop).
- :class:`ClusterSimulator` — N kernel cores behind a :mod:`~repro.
  serving.routing` router, with shard replication, link-priced all-to-all
  exchange, backpressure (``max_queue``) and failover (``fail_at`` /
  ``fail_node``).
- Both accept a :class:`~repro.core.switching.SwitchController` for
  runtime representation switching (load/teardown charged on the device
  timelines — docs/switching.md).
- The cluster additionally accepts a :class:`~repro.serving.controlplane.
  ControlPlane` — the unified SLO autopilot that arbitrates switching,
  scaling, cache re-warm, and re-routing against one cost function, one
  action per tick, with the full decision trace in
  :attr:`ClusterResult.control_decisions` (docs/controlplane.md).  Its
  ``"scale"`` action makes the fleet elastic: membership grows and
  shrinks mid-run with live shard handoff (docs/autoscaling.md).
- ``cache_bytes > 0`` turns on the cluster MP-Cache tier: every node
  runs a :class:`~repro.serving.cache.NodeCache` of hot embedding rows
  in front of the fabric, with hit/miss/fill accounting merged into
  :attr:`ClusterResult.cache` and a ``"cache-affinity"`` router that
  scores nodes by shard locality x cache residency (docs/caching.md).
- Both report through either exact record-backed :class:`ServingResult`
  (``run``) or constant-memory :class:`StreamingMetrics`
  (``run_streaming``); the two share one metric vocabulary.
- The single-node façade also hosts the **array fast path**
  (``ServingSimulator(engine="fast")`` / :func:`serve_arrays`): batch
  formation, shedding, pricing and metrics evaluated as numpy array
  passes over a :class:`~repro.data.queries.QueryArrays` stream —
  record-for-record equal to the event kernel, an order of magnitude
  faster at day scale (docs/serving.md).

See docs/serving.md, docs/cluster.md, and docs/switching.md for the
guided tour.
"""

from repro.serving.autoscale import ScaleEvent, shard_slice_bytes
from repro.serving.cache import CacheConfig, NodeCache
from repro.serving.controlplane import (
    ACTION_CLASSES,
    AutopilotOps,
    CandidateCost,
    ControlDecision,
    ControlPlane,
    format_decision,
)
from repro.serving.cluster import (
    ClusterNode,
    ClusterResult,
    ClusterSimulator,
    ShardMap,
)
from repro.serving.devices import DeviceTimeline
from repro.serving.engine import (
    Batcher,
    EngineCore,
    EventLoop,
    RecordSink,
    StreamingSink,
    run_kernel,
)
from repro.serving.fastpath import plan_batches, run_fastpath, serve_arrays
from repro.serving.metrics import (
    CacheStats,
    P2Quantile,
    QueryRecord,
    ReservoirSampler,
    ServingResult,
    StreamingMetrics,
)
from repro.serving.policies import (
    DeadlineAware,
    DropLate,
    NoShed,
    ShedPolicy,
    make_policy,
)
from repro.serving.routing import (
    CacheAffinityRouter,
    LeastLoadedRouter,
    Router,
    RoundRobinRouter,
    ShardLocalityRouter,
    make_router,
)
from repro.serving.simulator import ReferenceSimulator, ServingSimulator
from repro.serving.workload import ServingScenario, TenantSpec

__all__ = [
    "ACTION_CLASSES",
    "AutopilotOps",
    "Batcher",
    "CacheAffinityRouter",
    "CacheConfig",
    "CacheStats",
    "CandidateCost",
    "ClusterNode",
    "ClusterResult",
    "ClusterSimulator",
    "ControlDecision",
    "ControlPlane",
    "DeadlineAware",
    "DeviceTimeline",
    "DropLate",
    "EngineCore",
    "EventLoop",
    "LeastLoadedRouter",
    "NoShed",
    "NodeCache",
    "P2Quantile",
    "QueryRecord",
    "RecordSink",
    "ReferenceSimulator",
    "ReservoirSampler",
    "Router",
    "RoundRobinRouter",
    "ScaleEvent",
    "ServingResult",
    "ServingScenario",
    "ServingSimulator",
    "ShardLocalityRouter",
    "ShardMap",
    "ShedPolicy",
    "StreamingMetrics",
    "StreamingSink",
    "TenantSpec",
    "format_decision",
    "make_policy",
    "make_router",
    "plan_batches",
    "run_fastpath",
    "run_kernel",
    "serve_arrays",
    "shard_slice_bytes",
]
