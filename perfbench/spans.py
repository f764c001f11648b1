"""Per-layer tracing from outside the program: wrap public callables.

:func:`install` replaces each traced callable with a wrapper that opens
a span for the call, and returns the list of patches so :func:`remove`
can put every original back. Each name is patched where it is looked
up, so a function imported into two modules is patched in both. Nothing
under ``src/`` changes.

Spans nest on one stack (the simulator is single-threaded). A span's
self time is its duration minus the time its children cover. In the
event-kernel workloads every popped event opens a root span whose id is
the event's sequence number; on the array fast path the root span is
the ``serve_arrays`` call. Aggregates are kept for every span; the raw
spans of one repetition are kept in memory and written once at the end.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict

from repro.core import online, paths, switching
from repro.data import queries, zipf
from repro.experiments import setup
from repro.serving import (
    cache,
    cluster,
    controlplane,
    engine,
    fastpath,
    metrics,
    region,
    routing,
    simulator,
)

EVENT = "serving.engine.event"
DISPATCH = "serving.engine.dispatch"
SELECT_BATCH = "core.online.select_batch"
SHED = "serving.policies.shed"
BREAKDOWN = "hardware.latency.breakdown"
SINK = "serving.metrics.sink"
OBSERVE_MANY = "serving.metrics.observe_many"
SUMMARY = "serving.metrics.summary"
FAST = "serving.fastpath.serve_arrays"
PLAN = "serving.fastpath.plan_batches"
LATENCY_MANY = "serving.fastpath.latency_many"
SELECT_NODE = "serving.routing.select_node"
EXCHANGE = "serving.cluster.exchange"
PREVIEW = "serving.cache.preview"
COMMIT = "serving.cache.commit"
LOOKUP = "serving.cache.lookup"
PROVISION = "serving.cache.provision"
PLANE = "serving.controlplane.on_tick"
SWITCH = "core.switching.controller"
SELECT_REGION = "serving.region.select_region"
GENERATE = "data.queries.generate"
AS_ARRAYS = "data.queries.as_arrays"
ZIPF = "data.zipf.init"
BUILD = "experiments.setup.build"

KIND_NAMES = {
    engine.ARRIVAL: "arrival", engine.FLUSH: "flush", engine.FINISH: "finish",
    engine.CONTROL: "control", engine.SWITCH: "switch",
}

# Frame layout on the span stack.
NAME, T0, CHILD, ID, PARENT, ROOT, KIND = range(7)


class Tracer:
    """Span stack plus per-name aggregates for one traced stretch.

    ``record_spans`` keeps every closed span in ``spans`` (for the dump);
    aggregates are kept either way.
    """

    def __init__(self, record_spans: bool = False) -> None:
        self.stack: list[list] = []
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.breakdown_keys: set = set()
        self.root_s = 0.0
        self.spans: list[tuple] | None = [] if record_spans else None
        self._next_id = 0

    def open(self, name: str, t0: float) -> list:
        stack = self.stack
        span_id = self._next_id
        self._next_id = span_id + 1
        if stack:
            frame = [name, t0, 0.0, span_id, stack[-1][ID], stack[0][ROOT], None]
        else:
            frame = [name, t0, 0.0, span_id, -1, span_id, None]
        stack.append(frame)
        return frame

    def close(self, t1: float) -> None:
        frame = self.stack.pop()
        name = frame[NAME]
        duration = t1 - frame[T0]
        self.inclusive[name] += duration
        self.self_s[name] += duration - frame[CHILD]
        self.calls[name] += 1
        if name in (DISPATCH, SELECT_NODE):
            self.durations[name].append(duration)
        if self.stack:
            self.stack[-1][CHILD] += duration
        else:
            self.root_s += duration
        if self.spans is not None:
            self.spans.append((
                frame[ID], frame[PARENT], frame[ROOT], name,
                KIND_NAMES.get(frame[KIND]), frame[T0], t1,
            ))

    def close_root(self, t1: float) -> None:
        """Close the open event root span, if the loop left one open."""
        if self.stack and self.stack[0][NAME] == EVENT:
            while self.stack:
                self.close(t1)

    def root_kind(self):
        return self.stack[0][KIND] if self.stack else None


def write_spans(spans: list[tuple], path) -> None:
    """Write recorded spans as gzipped JSON lines, one span a line."""
    keys = ("id", "parent", "root", "name", "kind", "t0", "t1")
    with gzip.open(path, "wt", compresslevel=1) as out:
        for span in spans:
            out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _span(tracer: Tracer, fn, name: str, skip_under=(), before=None,
          after=None):
    """Wrap ``fn`` so each call is one ``name`` span.

    A call made from inside a span named in ``skip_under`` (or inside
    another ``name`` span) is internal to that layer and opens none.
    ``before(args)`` / ``after(args, result)`` record counts at the
    boundary, where the work happens.
    """
    stack = tracer.stack
    skip = frozenset(skip_under) | {name}
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        if stack and stack[-1][NAME] in skip:
            return fn(*args, **kwargs)
        if before is not None:
            before(args)
        tracer.open(name, clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(clock())
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _facade(tracer: Tracer, fn):
    """A façade entry point: closes the kernel's last event root on return."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close_root(time.perf_counter())

    wrapper.__wrapped__ = fn
    return wrapper


def _pop(tracer: Tracer, fn):
    """``EventLoop.pop``: each popped event opens a root span.

    The event's sequence number is the ``root`` id every span it causes
    shares; ``id`` stays the tracer's own counter so ids are unique.
    """
    clock = time.perf_counter
    counts = tracer.counts

    def pop(loop):
        t = clock()
        tracer.close_root(t)
        frame = tracer.open(EVENT, t)
        event = fn(loop)
        frame[ROOT] = event[1]
        frame[KIND] = event[2]
        counts[f"event.{KIND_NAMES.get(event[2], 'other')}"] += 1
        return event

    pop.__wrapped__ = fn
    return pop


def _counter(tracer: Tracer, fn, key: str):
    """Count calls without opening spans (too fine-grained for a span)."""
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _plan(tracer: Tracer, workload_module) -> list[tuple]:
    """Every (owner, attribute, replacement) the traced run installs."""
    counts = tracer.counts

    def dispatch_before(args):
        counts["dispatch.queries"] += len(args[0].batcher.pending)
        if tracer.root_kind() == engine.FLUSH:
            counts["dispatch.on_flush"] += 1

    def shed_after(args, admitted):
        if admitted and len(admitted) != len(args[1]):
            counts["dispatch.repriced"] += 1

    def breakdown_before(args):
        rep, _, device, size = args[:4]
        tracer.breakdown_keys.add((id(rep), id(device), size))

    def select_batch_before(args):
        if tracer.stack and tracer.stack[0][NAME] == FAST:
            counts["fastpath.fallback_batches"] += 1

    def plan_after(args, result):
        counts["fastpath.batches"] += len(result[0])

    def span(fn, name, **kw):
        return _span(tracer, fn, name, **kw)

    patches = [
        (engine.EventLoop, "pop", _pop(tracer, engine.EventLoop.pop)),
        (engine.EngineCore, "dispatch",
         span(engine.EngineCore.dispatch, DISPATCH, before=dispatch_before)),
        (online.Scheduler, "select_batch",
         span(online.Scheduler.select_batch, SELECT_BATCH,
              before=select_batch_before)),
        (engine, "shed_batch", span(engine.shed_batch, SHED, after=shed_after)),
        (engine, "estimate_breakdown",
         span(engine.estimate_breakdown, BREAKDOWN, before=breakdown_before)),
        (fastpath, "plan_batches",
         span(fastpath.plan_batches, PLAN, after=plan_after)),
        (paths.ExecutionPath, "latency_many",
         span(paths.ExecutionPath.latency_many, LATENCY_MANY)),
        (workload_module, "serve_arrays", span(fastpath.serve_arrays, FAST)),
        (metrics.StreamingMetrics, "observe_many",
         span(metrics.StreamingMetrics.observe_many, OBSERVE_MANY)),
        (cluster, "alltoall_exchange_time",
         span(cluster.alltoall_exchange_time, EXCHANGE)),
        (cluster.ShardMap, "group_of",
         _counter(tracer, cluster.ShardMap.group_of, "cluster.group_of")),
        (cache.NodeCache, "preview_batch",
         span(cache.NodeCache.preview_batch, PREVIEW, skip_under=[LOOKUP])),
        (cache.NodeCache, "commit_batch",
         span(cache.NodeCache.commit_batch, COMMIT, skip_under=[LOOKUP])),
        (cache.NodeCache, "lookup", span(cache.NodeCache.lookup, LOOKUP)),
        (controlplane.ControlPlane, "on_tick",
         span(controlplane.ControlPlane.on_tick, PLANE)),
        (queries.QuerySet, "as_arrays",
         span(queries.QuerySet.as_arrays, AS_ARRAYS)),
        (zipf.ZipfSampler, "__init__", span(zipf.ZipfSampler.__init__, ZIPF)),
    ]
    for cls in (metrics.ServingResult, metrics.StreamingMetrics):
        patches.append((cls, "summary", span(cls.summary, SUMMARY)))
    for cls in (engine.RecordSink, engine.StreamingSink):
        for attr in ("observe", "observe_all"):
            patches.append((cls, attr, span(getattr(cls, attr), SINK)))
    for attr in ("warm", "rewarm", "donate", "receive", "rekey"):
        fn = getattr(cache.NodeCache, attr)
        patches.append((cache.NodeCache, attr, span(fn, PROVISION)))
    for attr in ("on_tick", "observe", "desired", "start_switch", "complete",
                 "switch_overhead_s"):
        fn = getattr(switching.SwitchController, attr)
        patches.append((switching.SwitchController, attr, span(fn, SWITCH)))
    for cls in _subclasses(routing.Router):
        if "select_node" in vars(cls):
            patches.append((cls, "select_node",
                            span(cls.select_node, SELECT_NODE)))
    for cls in _subclasses(region.GeoRouter):
        if "select_region" in vars(cls):
            patches.append((cls, "select_region",
                            span(cls.select_region, SELECT_REGION)))
    for cls in (simulator.ServingSimulator, cluster.ClusterSimulator,
                region.RegionSimulator):
        for attr in ("run", "run_streaming"):
            patches.append((cls, attr, _facade(tracer, getattr(cls, attr))))
    for owner in (workload_module, setup):
        for attr in ("generate_query_set", "generate_query_arrays",
                     "arrival_times", "merge_query_arrays",
                     "follow_the_sun_scenario"):
            if hasattr(owner, attr):
                patches.append(
                    (owner, attr, span(getattr(owner, attr), GENERATE))
                )
        for attr in ("build_schedulers", "build_regions", "build_cluster"):
            if hasattr(owner, attr):
                patches.append((owner, attr, span(getattr(owner, attr), BUILD)))
    return patches


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install(tracer: Tracer, workload_module) -> list[tuple]:
    """Install every wrapper; returns ``(owner, attr, original)`` triples."""
    installed = []
    for owner, attr, wrapper in _plan(tracer, workload_module):
        installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)
    return installed


def remove(installed: list[tuple]) -> list[str]:
    """Restore every original; returns the attributes left wrapped."""
    for owner, attr, original in reversed(installed):
        setattr(owner, attr, original)
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in installed
        if vars(owner)[attr] is not original
    ]


# ---- per-layer metrics ---------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tail(durations: list[float]) -> float:
    """p99 over p50 of one span name's durations (0 when never called)."""
    xs = sorted(durations)
    if not xs:
        return 0.0
    return _ratio(xs[min(len(xs) - 1, int(0.99 * len(xs)))], xs[len(xs) // 2])


def layer_metrics(tracer: Tracer, reps: int, wall: float) -> dict:
    """The timed repetitions' per-layer split: times as shares of the
    traced wall time, counts per repetition."""
    inc, own, calls, counts = (
        tracer.inclusive, tracer.self_s, tracer.calls, tracer.counts
    )

    def share(seconds):
        return (_ratio(seconds, wall), "share")

    def per_rep(count):
        return (count / reps, "count")

    flushes = counts["event.flush"]
    dispatches = calls[DISPATCH]
    breakdowns = calls[BREAKDOWN]
    return {
        "serving.engine.events": per_rep(
            sum(v for k, v in counts.items() if k.startswith("event."))
        ),
        "serving.engine.events.arrival": per_rep(counts["event.arrival"]),
        "serving.engine.events.flush": per_rep(flushes),
        "serving.engine.events.finish": per_rep(counts["event.finish"]),
        "serving.engine.loop_self_share": share(own[EVENT]),
        "serving.engine.dispatch_self_share": share(own[DISPATCH]),
        "serving.engine.dispatch_tail_ratio": (
            _tail(tracer.durations[DISPATCH]), "ratio"
        ),
        "serving.engine.batch_queries_mean": (
            _ratio(counts["dispatch.queries"], dispatches), "queries"
        ),
        "serving.engine.flush_useful_ratio": (
            _ratio(counts["dispatch.on_flush"], flushes), "ratio"
        ),
        "core.online.select_batch_share": share(inc[SELECT_BATCH]),
        "core.online.select_batch_calls": per_rep(calls[SELECT_BATCH]),
        "serving.policies.shed_share": share(inc[SHED]),
        "serving.policies.reprice_ratio": (
            _ratio(counts["dispatch.repriced"], dispatches), "ratio"
        ),
        "hardware.latency.breakdown_share": share(inc[BREAKDOWN]),
        "hardware.latency.breakdown_calls": per_rep(breakdowns),
        # Distinct keys repeat every repetition; calls accumulate.
        "hardware.latency.breakdown_distinct_ratio": (
            _ratio(len(tracer.breakdown_keys) * reps, breakdowns), "ratio"
        ),
        "serving.metrics.sink_share": share(own[SINK]),
        "serving.metrics.observe_many_share": share(inc[OBSERVE_MANY]),
        "serving.metrics.summary_share": share(inc[SUMMARY]),
        "serving.fastpath.plan_batches_share": share(inc[PLAN]),
        "serving.fastpath.latency_many_share": share(inc[LATENCY_MANY]),
        "serving.fastpath.self_share": share(own[FAST]),
        "serving.fastpath.batches": per_rep(counts["fastpath.batches"]),
        "serving.fastpath.fallback_batches": per_rep(
            counts["fastpath.fallback_batches"]
        ),
        "serving.routing.select_node_share": share(inc[SELECT_NODE]),
        "serving.routing.select_node_calls": per_rep(calls[SELECT_NODE]),
        "serving.routing.select_node_tail_ratio": (
            _tail(tracer.durations[SELECT_NODE]), "ratio"
        ),
        "serving.cluster.exchange_share": share(inc[EXCHANGE]),
        "serving.cluster.group_of_calls": per_rep(counts["cluster.group_of"]),
        "serving.cache.preview_share": share(inc[PREVIEW]),
        "serving.cache.commit_share": share(inc[COMMIT]),
        "serving.cache.lookup_share": share(inc[LOOKUP]),
        "serving.cache.provision_share": share(inc[PROVISION]),
        "serving.controlplane.on_tick_share": share(inc[PLANE]),
        "serving.controlplane.ticks": per_rep(calls[PLANE]),
        "core.switching.controller_share": share(inc[SWITCH]),
        "serving.region.select_region_share": share(inc[SELECT_REGION]),
        "trace.unattributed_share": share(wall - tracer.root_s),
    }


def setup_metrics(tracer: Tracer, wall: float) -> dict:
    """The traced set-up's split, as shares of its wall time."""
    inc = tracer.inclusive
    return {
        "data.queries.gen_share": (_ratio(inc[GENERATE], wall), "share"),
        "data.queries.as_arrays_share": (_ratio(inc[AS_ARRAYS], wall), "share"),
        "data.zipf.init_share": (_ratio(inc[ZIPF], wall), "share"),
        "data.zipf.samplers": (tracer.calls[ZIPF], "count"),
        "experiments.setup.build_share": (_ratio(inc[BUILD], wall), "share"),
    }
