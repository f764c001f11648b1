"""Cluster-level query routers: pick the node that serves each query.

A router sees the candidate nodes the cluster offers it — alive and not
backpressured — and returns exactly one of them.  All routers are
deterministic: given the same arrival sequence and node states they pick
the same nodes, and ties always break toward the lowest node id, so
cluster runs are reproducible and the tie-breaking is testable.

``"round-robin"``
    Cycle over nodes in id order, skipping dead/full ones.  The stateless
    frontend default: perfectly fair under uniform load, oblivious to
    queue depth and shard placement.
``"least-loaded"``
    Pick the node with the fewest queries in flight (admission queue +
    dispatched batches), breaking ties by earliest-free server and then
    node id — the power-of-all-choices load balancer.
``"locality"``
    Shard-locality-aware: route to a replica that holds the query's hot
    shard group locally (cheapest all-to-all exchange), choosing the
    least-loaded owner; fall back to least-loaded overall when no owner
    is available.  Requires the cluster's :class:`~repro.serving.cluster.
    ShardMap`.
``"cache-affinity"``
    Cache-aware cost routing for clusters running the MP-Cache tier
    (:mod:`repro.serving.cache`): score every candidate by its expected
    cost for *this* query — device queue delay plus the fabric time of
    the hot bytes the node would actually miss, ``(1 - affinity) x hot
    bytes / link bandwidth``, where affinity is shard locality (1.0 for
    an owner) or the node's cache residency for the query's group.  At a
    quiet fleet this reduces to locality routing (owners win at zero
    penalty); under a skewed hot spot it spills to the cache-warmest
    non-owners instead of piling onto the group's few owners — the
    behavior pinned in ``benchmarks/test_cluster_cache.py``.  Requires
    the cluster's :class:`~repro.serving.cluster.ShardMap` and
    :class:`~repro.hardware.topology.LinkSpec`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.serving.signals import miss_penalty_s

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports us)
    from repro.data.queries import Query
    from repro.hardware.topology import LinkSpec
    from repro.serving.cluster import ClusterNode, ShardMap

ROUTER_NAMES = ("round-robin", "least-loaded", "locality", "cache-affinity")


class Router:
    """Interface: map (query, time, candidate nodes) -> one node."""

    name = "router"

    def select_node(
        self, query: "Query", now: float, candidates: Sequence["ClusterNode"]
    ) -> "ClusterNode":
        """Pick exactly one of the offered (alive, non-full) nodes."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any routing state; the cluster calls this at the start of
        every run so repeated runs of one simulator stay deterministic."""

    def update_shard_map(self, shard_map: "ShardMap") -> None:
        """Membership changed (autoscaling rebuilt the shard map for the
        new epoch); placement-aware routers must re-key on the new map.
        Placement-oblivious routers ignore it."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _load_key(node: "ClusterNode", now: float) -> tuple:
    """Deterministic load ordering: queue depth, earliest-free, node id."""
    delay = node.timeline.earliest_free_delay(now)
    return (node.inflight_queries, delay, node.node_id)


class RoundRobinRouter(Router):
    """Cycle over nodes in id order, skipping unavailable ones."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        """Rewind the cursor to node 0."""
        self._next = 0

    def select_node(
        self, query: "Query", now: float, candidates: Sequence["ClusterNode"]
    ) -> "ClusterNode":
        """The next candidate at or after the cursor, wrapping."""
        # One pass, in any candidate order: the lowest id at or after the
        # cursor, else the lowest id (dead/full nodes are simply absent).
        # Strict comparisons keep the first of equal ids, as ``min`` does.
        cursor = self._next
        ahead = wrapped = None
        for node in candidates:
            node_id = node.node_id
            if node_id >= cursor:
                if ahead is None or node_id < ahead.node_id:
                    ahead = node
            elif wrapped is None or node_id < wrapped.node_id:
                wrapped = node
        chosen = wrapped if ahead is None else ahead
        self._next = chosen.node_id + 1
        return chosen


class LeastLoadedRouter(Router):
    """Fewest in-flight queries; ties to earliest-free, then lowest id."""

    name = "least-loaded"

    def select_node(
        self, query: "Query", now: float, candidates: Sequence["ClusterNode"]
    ) -> "ClusterNode":
        """The candidate with the smallest deterministic load key."""
        return min(candidates, key=lambda n: _load_key(n, now))


class ShardLocalityRouter(Router):
    """Prefer replicas owning the query's hot shard group.

    Serving on an owner keeps the hot fraction of the sample's embedding
    gather local, shrinking the per-batch all-to-all payload; among owners
    the least-loaded wins so locality never creates a hot spot by itself.
    """

    name = "locality"

    def __init__(self, shard_map: "ShardMap") -> None:
        self.shard_map = shard_map

    def update_shard_map(self, shard_map: "ShardMap") -> None:
        """Re-key locality decisions on the new epoch's ownership."""
        self.shard_map = shard_map

    def select_node(
        self, query: "Query", now: float, candidates: Sequence["ClusterNode"]
    ) -> "ClusterNode":
        """The least-loaded owner of the query's hot shard group
        (least-loaded of all candidates when no owner is offered)."""
        group = self.shard_map.group_of(query)
        owners = [
            n for n in candidates if n.node_id in self.shard_map.owners[group]
        ]
        return min(owners or candidates, key=lambda n: _load_key(n, now))


class CacheAffinityRouter(Router):
    """Route by expected per-query cost: queue delay + missed hot bytes.

    The miss penalty prices what routing *away* from affinity costs: the
    query's hot embedding bytes, scaled by how much of them the node
    would actually pull over the fabric (``1 - affinity``), at the link's
    bandwidth.  An owner's affinity is 1.0 (the shard is local); a
    non-owner's is its cache residency for the group
    (:meth:`~repro.serving.cache.NodeCache.affinity`).  Ties break by
    in-flight load, then lowest node id, as everywhere else.
    """

    name = "cache-affinity"

    def __init__(self, shard_map: "ShardMap", link: "LinkSpec") -> None:
        self.shard_map = shard_map
        self.link = link

    def update_shard_map(self, shard_map: "ShardMap") -> None:
        """Re-key ownership (and the hot-byte model) on the new epoch."""
        self.shard_map = shard_map

    def select_node(
        self, query: "Query", now: float, candidates: Sequence["ClusterNode"]
    ) -> "ClusterNode":
        """The candidate with the lowest expected cost for this query."""
        shard_map = self.shard_map
        group = shard_map.group_of(query)
        owners = shard_map.owners[group]
        hot_bytes = (
            query.size * shard_map.hot_fraction * shard_map.bytes_per_sample
        )
        link = self.link
        # One pass, first winner on ties (as ``min`` breaks them).  The
        # key is queue delay + fabric miss penalty — the shared signal
        # vocabulary (repro.serving.signals), also what the control
        # plane's reroute predictions price — then load, then node id.
        # An owner's penalty is exactly 0.0 (affinity 1.0), so it scores
        # its queue delay alone.
        best = best_key = None
        for node in candidates:
            cost = node.timeline.earliest_free_delay(now)
            if node.node_id not in owners:
                cache = node.cache
                cost += miss_penalty_s(
                    0.0 if cache is None else cache.affinity(group),
                    hot_bytes, link,
                )
            key = (cost, node.inflight_queries, node.node_id)
            if best is None or key < best_key:
                best, best_key = node, key
        return best


def make_router(
    router: str | Router,
    shard_map: "ShardMap" = None,
    link: "LinkSpec" = None,
) -> Router:
    """Resolve a router name (or pass an instance through)."""
    if isinstance(router, Router):
        return router
    if router == "round-robin":
        return RoundRobinRouter()
    if router == "least-loaded":
        return LeastLoadedRouter()
    if router == "locality":
        if shard_map is None:
            raise ValueError("locality routing needs the cluster's ShardMap")
        return ShardLocalityRouter(shard_map)
    if router == "cache-affinity":
        if shard_map is None or link is None:
            raise ValueError(
                "cache-affinity routing needs the cluster's ShardMap and "
                "LinkSpec"
            )
        return CacheAffinityRouter(shard_map, link)
    raise ValueError(
        f"unknown router {router!r}; expected one of {ROUTER_NAMES}"
    )
