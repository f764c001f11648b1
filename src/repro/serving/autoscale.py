"""Elastic autoscaling: the priced scale operations of a growing fleet.

The cluster built in PR 2 is a fixed-size fleet: a flash crowd can only
be shed, never absorbed, and the night-time trough burns a full fleet's
idle power serving a trickle.  Autoscaling is the
:class:`~repro.serving.controlplane.ControlPlane`'s ``"scale"`` action:
``ControlPlane(actions=("scale",), ...)`` is the autoscaler on its own,
and ``actions=()`` with a ``schedule`` forces membership changes at
fixed times.  The plane decides when to join or drain a node; the
cluster executes the operation; this module prices it and records it.

Scale operations are priced, never free:

- **Scale-up (live shard handoff in)** — the joining node must warm its
  slice of the next epoch's :class:`~repro.serving.cluster.ShardMap`
  over the cluster fabric before it can serve.  The warm window is
  ``link.transfer_time(slice bytes)`` (:func:`shard_slice_bytes`) and is
  charged as a :meth:`~repro.serving.devices.DeviceTimeline.block` on
  every one of the joining node's devices — the same mechanism that
  prices the Fig-15 representation-switch window.  The node joins the
  routable set only when the warm completes.
  When the cluster runs the MP-Cache tier (:mod:`repro.serving.cache`),
  the join's cache warm — the hottest rows of the shard groups it will
  serve *remotely* (its shard slice already covers the owned ones) —
  streams inside the same charged window
  (``ScaleEvent.cache_warm_bytes``), so the node is not just routable
  but *warm* when it starts serving.
- **Scale-down (live shard handoff out)** — the draining node stops
  admitting, hands its queued-but-undispatched queries back through the
  cluster's existing failover re-injection path (they re-enter the event
  heap at the drain instant and are re-routed to the surviving members),
  and lets its already-dispatched batches run to completion.  Nothing is
  displaced, so — unlike a node *failure* — scale-down wastes zero
  energy and loses zero queries: the **zero-loss drain invariant**,
  property-tested in ``tests/property/test_prop_engine_parity.py``.
  Under the cache tier the drain also donates its hot set to the
  surviving replicas (``ScaleEvent.cache_donated_bytes``), so the rows
  the fleet worked to cache outlive the node that cached them.

Membership is always a prefix ``{0..k-1}`` of the node ids (joins take
the lowest inactive id, drains retire the highest active id), and every
membership change starts a new *epoch*: the cluster re-shards the same
tables onto the new member count (:meth:`~repro.analysis.sharding.
ShardingPlan.cardinalities` + :func:`~repro.analysis.sharding.
greedy_shard`) and rebuilds the :class:`~repro.serving.cluster.ShardMap`
the routers and the exchange pricing consult.  Scale operations are
strictly serialized — a join's warm window must complete before the
next operation may start — which is what keeps the prefix invariant
(and therefore the shard-map indexing) sound.

See docs/autoscaling.md for the guided tour and
``benchmarks/test_autoscaling.py`` for the headline result: under a
diurnal flash-crowd scenario the elastic fleet matches a statically
max-provisioned fleet's SLA-violation rate at materially fewer
node-seconds (and therefore less idle energy), with every handoff
charged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.sharding import ShardingPlan, replica_nodes


def shard_slice_bytes(
    plan: ShardingPlan, node_id: int, replication: int = 1
) -> int:
    """Embedding-table bytes node ``node_id`` hosts under ``plan``.

    This is the payload a joining node must pull over the cluster fabric
    before it can serve its shard slice: every feature slice whose
    replication chain (:func:`~repro.analysis.sharding.replica_nodes` —
    the same placement rule :meth:`~repro.serving.cluster.ShardMap.
    from_plan` chains ownership by) lands on the node, at
    ``rows x dim x 4`` bytes.
    """
    if not 0 <= node_id < plan.n_nodes:
        raise ValueError("node_id out of range for the plan")
    if not 1 <= replication <= plan.n_nodes:
        raise ValueError("replication must be in [1, n_nodes]")
    total = 0
    for slices in plan.assignment:
        for anchor, rows in slices:
            if node_id in replica_nodes(anchor, replication, plan.n_nodes):
                total += rows * plan.dim * 4
    return total


@dataclass(frozen=True)
class ScaleEvent:
    """One fleet membership change, fully priced."""

    time_s: float  # when the decision fired
    ready_s: float  # when the new membership serves (== time_s for "down")
    kind: str  # "up" | "down"
    node_id: int  # the node joining or draining
    n_members: int  # fleet size after the operation
    warm_bytes: int = 0  # shard slice streamed to a joining node
    warm_s: float = 0.0  # its fabric transfer window (charged as a block)
    reinjected: int = 0  # queries a draining node handed back
    # Hot rows streamed alongside the shard slice so the join starts warm
    # (cluster cache tier only; included in warm_s's charged window).
    cache_warm_bytes: int = 0
    # Hot-set bytes a drain donated to the surviving replicas' caches.
    cache_donated_bytes: int = 0
