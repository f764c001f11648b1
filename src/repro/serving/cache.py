"""The cluster MP-Cache tier: per-node hot-row caches under real routing.

The paper's MP-Cache (Section 4.3, :mod:`repro.core.mp_cache`) prices a
*single node's* encoder/decoder caches analytically.  A sharded fleet has
a second, bigger cache problem: the hot (user-partitioned) embedding rows
a node does **not** own must cross the cluster fabric on every batch —
PR 2 priced every one of those gathers as a cold fetch.  This module puts
a cache in front of that fabric: each :class:`~repro.serving.engine.
EngineCore` owns a :class:`NodeCache` holding the hottest rows of the
shard groups it keeps serving, so a node routed traffic for a group it
does not own gets cheaper at it with every batch.

The model, kept deliberately analytic (no per-row bookkeeping):

- The hot-row universe of each shard group is ``hot_rows`` ids under
  Zipf(``alpha``) popularity; a cache resident on the ``k`` hottest rows
  of a group serves ``zipf_popularity_cdf(hot_rows, alpha)[k]`` of that
  group's lookups (:func:`~repro.core.mp_cache.zipf_popularity_cdf` —
  the same curve the single-node :class:`~repro.core.mp_cache.
  EncoderCache` residency analysis uses).
- Entries are keyed per **representation path label** per **shard
  group**: different representations materialize different embedding
  vectors, so a runtime representation switch makes the outgoing path's
  entries garbage (see :meth:`NodeCache.rewarm`).
- Hit/miss splits are **carry-exact**: each lookup of ``n`` rows splits
  into ``hits + misses == n`` integers deterministically, with the
  fractional expectation carried to the next lookup — over a run the
  split converges to the analytic rate and the counters sum exactly,
  which is what lets the cluster benchmark pin every fill byte.
- ``policy="lru"`` demand-fills: missed rows are fetched over the fabric
  (the fill is priced by the caller) and admitted, growing residency
  toward the group's hot head — the standard approximation that LRU
  under power-law traffic converges to top-k residency.  When the cache
  is full, the least-recently-used (label, group) set is evicted first.
  ``policy="static"`` is the paper's profiled-residency variant: the
  resident set is provisioned up front (:meth:`NodeCache.warm`) and
  misses never mutate it.

Capacity is sized in bytes off :func:`~repro.core.mp_cache.
row_entry_bytes`, so ``--cache-mb`` means the same row count as the
single-node tier.  All accounting lands in one
:class:`~repro.serving.metrics.CacheStats` per node; the cluster merges
them into :attr:`~repro.serving.cluster.ClusterResult.cache`.

See docs/caching.md for the guided tour and
``benchmarks/test_cluster_cache.py`` for the headline result (cache-
affinity routing beats shard-locality routing on Zipf-skewed traffic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mp_cache import row_entry_bytes, zipf_popularity_cdf
from repro.serving.metrics import CacheStats

CACHE_POLICIES = ("lru", "static")


@dataclass(frozen=True)
class CacheConfig:
    """Sizing and policy of the per-node cache tier (one per cluster).

    ``capacity_bytes`` bounds each node's cache; ``embedding_dim`` fixes
    the row payload (``dim x 4`` bytes on the wire) and the per-entry
    budget (payload + key); ``alpha`` shapes the per-group popularity
    curve; ``policy`` picks demand-fill (``"lru"``) or provisioned
    residency (``"static"``).
    """

    capacity_bytes: int
    embedding_dim: int
    alpha: float = 1.05
    policy: str = "lru"

    def __post_init__(self) -> None:
        if not 0 < self.capacity_bytes < float("inf"):
            raise ValueError("capacity_bytes must be positive and finite")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be positive")
        if not self.alpha >= 0:
            raise ValueError("alpha must be non-negative")
        if self.policy not in CACHE_POLICIES:
            raise ValueError(
                f"policy must be one of {CACHE_POLICIES}, got {self.policy!r}"
            )

    @property
    def row_bytes(self) -> int:
        """Wire payload of one embedding row (what fills/warms transfer)."""
        return self.embedding_dim * 4

    @property
    def entry_bytes(self) -> int:
        """Resident footprint of one row (payload + key)."""
        return row_entry_bytes(self.embedding_dim)

    @property
    def capacity_entries(self) -> int:
        """How many rows the byte budget holds."""
        return self.capacity_bytes // self.entry_bytes

    def build(self, n_groups: int, hot_rows: int) -> "NodeCache":
        """One node's cache over ``n_groups`` shard groups whose hot-row
        universes hold ``hot_rows`` ids each."""
        return NodeCache(self, n_groups, hot_rows)


class _LabelState:
    """Residency of one representation path's rows, per shard group."""

    __slots__ = ("resident", "carry", "last_used")

    def __init__(self, n_groups: int) -> None:
        self.resident = [0] * n_groups
        self.carry = [0.0] * n_groups
        self.last_used = [0] * n_groups


class NodeCache:
    """One node's hot-row cache: per-(path label, shard group) residency.

    All mutation goes through :meth:`commit_batch` (which
    :meth:`lookup` and eviction run under), :meth:`warm` (provisioning),
    :meth:`rewarm` (post-switch re-fetch), :meth:`donate` and
    :meth:`receive` (drain hand-off), and :meth:`rekey` (membership epoch
    change); :meth:`preview` prices a lookup without touching state,
    which is how the cluster keeps shed-policy re-pricing from
    double-counting.  Each mutator drops the per-group :meth:`affinity`
    memo, so routers read it without rescanning the labels.
    """

    def __init__(self, config: CacheConfig, n_groups: int, hot_rows: int) -> None:
        if n_groups < 1:
            raise ValueError("n_groups must be positive")
        if hot_rows < 1:
            raise ValueError("hot_rows must be positive")
        self.config = config
        self.n_groups = n_groups
        self.hot_rows = hot_rows
        self._cdf = _cdf_for(hot_rows, config.alpha)
        self._labels: dict[str, _LabelState] = {}
        self._total = 0
        self._clock = 0
        self._affinity: dict[int, float] = {}
        self.stats = CacheStats()

    # ---- read side -------------------------------------------------------

    @property
    def resident_entries(self) -> int:
        """Rows currently resident across all labels and groups."""
        return self._total

    def hit_rate(self, label: str, group: int) -> float:
        """Analytic hit probability of one (path, group) residency."""
        state = self._labels.get(label)
        if state is None:
            return 0.0
        return float(self._cdf[min(state.resident[group], self.hot_rows)])

    def affinity(self, group: int) -> float:
        """The best hit rate any resident path offers for ``group`` —
        what a cache-aware router scores candidate nodes by (memoised
        until the next mutation)."""
        value = self._affinity.get(group)
        if value is None:
            value = self._affinity[group] = max(
                (
                    float(self._cdf[min(state.resident[group], self.hot_rows)])
                    for state in self._labels.values()
                ),
                default=0.0,
            )
        return value

    def preview(self, label: str, group: int, n_rows: int) -> tuple[int, int]:
        """The ``(hits, misses)`` split :meth:`lookup` would commit for
        this lookup, without mutating any state (pricing-only)."""
        splits, _ = self.preview_batch([(label, group, n_rows)])
        return splits[0]

    # ---- the lookup path -------------------------------------------------

    def preview_batch(
        self, items: list[tuple[str, int, int]]
    ) -> tuple[list[tuple[int, int]], dict]:
        """Price a batch of ``(label, group, n_rows)`` lookups without
        mutating anything: the carry-exact splits are computed
        *sequentially* (each item sees the residency and carry growth
        the ones before it produced, exactly as the commit will apply
        them), tracked in an overlay.  Returns ``(splits, overlay)``;
        hand both to :meth:`commit_batch` and the committed counters
        equal the priced ones by construction — which is what keeps the
        charged service time and the recorded stats in lockstep even
        when the shed policy re-prices a batch."""
        overlay: dict[tuple[str, int], tuple[int, float]] = {}
        splits = []
        lru = self.config.policy == "lru"
        for label, group, n_rows in items:
            if n_rows <= 0:
                splits.append((0, 0))
                continue
            key = (label, group)
            if key in overlay:
                resident, carry = overlay[key]
            else:
                state = self._labels.get(label)
                resident = state.resident[group] if state else 0
                carry = state.carry[group] if state else 0.0
            rate = float(self._cdf[min(resident, self.hot_rows)])
            expected = n_rows * rate + carry
            hits = min(n_rows, int(expected))
            # The fractional remainder rides to the next lookup, so the
            # integer split tracks the analytic rate exactly over a run.
            carry = min(expected - hits, 1.0 - 1e-12)
            misses = n_rows - hits
            if lru and misses:
                resident = min(self.hot_rows, resident + misses)
            overlay[key] = (resident, carry)
            splits.append((hits, misses))
        return splits, overlay

    def commit_batch(
        self,
        items: list[tuple[str, int, int]],
        splits: list[tuple[int, int]],
        overlay: dict,
    ) -> None:
        """Apply a previewed batch: fold the exact previewed splits into
        the counters, install the overlay's residency/carry, bump
        recency, and evict down to capacity (eviction only shapes
        *future* batches — this one was priced and is recorded as
        previewed)."""
        self._affinity.clear()
        row_bytes = self.config.row_bytes
        for (label, group, n_rows), (hits, misses) in zip(items, splits):
            if n_rows <= 0:
                continue
            state = self._labels.get(label)
            if state is None:
                state = self._labels[label] = _LabelState(self.n_groups)
            self._clock += 1
            state.last_used[group] = self._clock
            self.stats.lookups += n_rows
            self.stats.hits += hits
            self.stats.misses += misses
            self.stats.hit_bytes += hits * row_bytes
            self.stats.fill_bytes += misses * row_bytes
        for (label, group), (resident, carry) in overlay.items():
            state = self._labels.get(label)
            if state is None:
                state = self._labels[label] = _LabelState(self.n_groups)
            grown = resident - state.resident[group]
            if grown > 0:
                state.resident[group] = resident
                self._total += grown
            state.carry[group] = carry
        self._evict_to_capacity()

    def lookup(self, label: str, group: int, n_rows: int) -> tuple[int, int]:
        """Offer ``n_rows`` hot-row gathers for one (path, group): split
        them carry-exactly into hits and misses, update the counters, and
        (under LRU) admit the missed rows."""
        items = [(label, group, n_rows)]
        splits, overlay = self.preview_batch(items)
        self.commit_batch(items, splits, overlay)
        return splits[0]

    def _evict_to_capacity(self) -> None:
        capacity = self.config.capacity_entries
        while self._total > capacity:
            # Least-recently-used (label, group) residency goes first;
            # the set just filled carries the newest clock, so it is
            # only trimmed when nothing older remains.
            _, lbl, g = min(
                (state.last_used[g], lbl, g)
                for lbl, state in self._labels.items()
                for g in range(self.n_groups)
                if state.resident[g] > 0
            )
            state = self._labels[lbl]
            drop = min(state.resident[g], self._total - capacity)
            state.resident[g] -= drop
            self._total -= drop
            self.stats.invalidated_entries += drop

    # ---- provisioning / lifecycle ----------------------------------------

    def warm(self, label: str, groups: list[int] | None = None) -> int:
        """Provision top-row residency for ``groups`` (an even capacity
        share each, fit-static style): the join warm and the static
        policy's preload.  Returns the bytes transferred."""
        self._affinity.clear()
        groups = list(range(self.n_groups)) if groups is None else groups
        if not groups:
            return 0
        state = self._labels.get(label)
        if state is None:
            state = self._labels[label] = _LabelState(self.n_groups)
        quota = min(self.config.capacity_entries // len(groups), self.hot_rows)
        warmed = 0
        for group in groups:
            free = self.config.capacity_entries - self._total
            grown = min(max(0, quota - state.resident[group]), free)
            if grown:
                state.resident[group] += grown
                self._total += grown
                warmed += grown
            self._clock += 1
            state.last_used[group] = self._clock
        warmed_bytes = warmed * self.config.row_bytes
        self.stats.warm_bytes += warmed_bytes
        return warmed_bytes

    def predict_warm(
        self, label: str, groups: list[int]
    ) -> tuple[int, float]:
        """What :meth:`warm` *would* provision, without mutating anything:
        ``(bytes, affinity_gain)``, where affinity_gain is the mean
        hit-rate increase across ``groups``.  The control plane prices its
        re-warm candidate from this preview — the fabric window from the
        bytes, predicted miss relief from the gain — and only commits
        the mutation when the candidate wins arbitration."""
        if not groups:
            return 0, 0.0
        state = self._labels.get(label)
        quota = min(self.config.capacity_entries // len(groups), self.hot_rows)
        total = self._total
        warmed = 0
        gain = 0.0
        for group in groups:
            resident = state.resident[group] if state else 0
            free = self.config.capacity_entries - total
            grown = min(max(0, quota - resident), free)
            total += grown
            warmed += grown
            gain += float(
                self._cdf[min(resident + grown, self.hot_rows)]
                - self._cdf[min(resident, self.hot_rows)]
            )
        return warmed * self.config.row_bytes, gain / len(groups)

    def rewarm(self, old_label: str, new_label: str) -> int:
        """A representation switch retired ``old_label``: its entries are
        stale (they hold the old representation's vectors) and the same
        hot rows must be re-fetched for ``new_label``.  Returns the bytes
        that re-fetch moves — the caller prices them as a Fig-15-style
        blocking window on the device timeline."""
        self._affinity.clear()
        state = self._labels.pop(old_label, None)
        if state is None:
            return 0
        stale = sum(state.resident)
        self._total -= stale
        self.stats.invalidations += 1
        self.stats.invalidated_entries += stale
        if stale == 0:
            return 0
        target = self._labels.get(new_label)
        if target is None:
            target = self._labels[new_label] = _LabelState(self.n_groups)
        refetched = 0
        for group in range(self.n_groups):
            free = self.config.capacity_entries - self._total
            grown = min(
                max(0, state.resident[group] - target.resident[group]), free
            )
            if grown:
                target.resident[group] += grown
                self._total += grown
                refetched += grown
            self._clock += 1
            target.last_used[group] = self._clock
        rewarm_bytes = refetched * self.config.row_bytes
        self.stats.rewarm_bytes += rewarm_bytes
        return rewarm_bytes

    def donate(self) -> int:
        """A draining node hands off: return the resident row count and
        empty the cache (the node is leaving the fleet)."""
        self._affinity.clear()
        donated = self._total
        for state in self._labels.values():
            state.resident = [0] * self.n_groups
            state.carry = [0.0] * self.n_groups
        self._total = 0
        return donated

    def receive(self, label: str, entries: int, groups: list[int]) -> int:
        """Absorb a draining peer's donated hot set into ``groups`` (an
        even spread), capped by free capacity — donation must never evict
        rows this node earned from its own traffic.  Returns the bytes
        actually absorbed."""
        self._affinity.clear()
        if entries <= 0 or not groups:
            return 0
        state = self._labels.get(label)
        if state is None:
            state = self._labels[label] = _LabelState(self.n_groups)
        share = max(1, entries // len(groups))
        received = 0
        for group in groups:
            free = self.config.capacity_entries - self._total
            grown = min(
                share, max(0, self.hot_rows - state.resident[group]),
                free, entries - received,
            )
            if grown:
                state.resident[group] += grown
                self._total += grown
                received += grown
            self._clock += 1
            state.last_used[group] = self._clock
        received_bytes = received * self.config.row_bytes
        self.stats.donated_bytes += received_bytes
        return received_bytes

    def rekey(self, n_groups: int, hot_rows: int) -> int:
        """A membership epoch change re-sharded the tables: the shard-
        group space this cache is keyed by no longer exists, so all
        entries are dropped and the group arrays resize.  Returns the
        number of invalidated entries."""
        self._affinity.clear()
        if n_groups < 1:
            raise ValueError("n_groups must be positive")
        if hot_rows < 1:
            raise ValueError("hot_rows must be positive")
        dropped = self._total
        self.n_groups = n_groups
        self.hot_rows = hot_rows
        self._cdf = _cdf_for(hot_rows, self.config.alpha)
        self._labels = {}
        self._total = 0
        self.stats.invalidations += 1
        self.stats.invalidated_entries += dropped
        return dropped


# Popularity curves depend only on (universe size, alpha); share them
# across nodes, runs, and epochs — at production table sizes each curve
# is megabytes of float64.
_CDF_CACHE: dict[tuple[int, float], np.ndarray] = {}


def _cdf_for(hot_rows: int, alpha: float) -> np.ndarray:
    key = (hot_rows, alpha)
    cdf = _CDF_CACHE.get(key)
    if cdf is None:
        cdf = _CDF_CACHE[key] = zipf_popularity_cdf(hot_rows, alpha)
    return cdf
