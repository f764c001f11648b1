"""Serving metrics: throughput of correct predictions, SLA violations,
switching breakdowns, and energy (Section 5.4).

Two aggregation modes share one metric vocabulary by construction: both
are a tally of exact counters, and every metric is defined once over it.

:class:`ServingResult`
    Exact, record-backed — holds every outcome (as the kernel's
    :class:`OutcomeBlock` per batch until :attr:`ServingResult.records`
    is first read, as :class:`QueryRecord` objects from then on), folds its
    tally from them, and computes percentiles from the full latency
    distribution. The right tool for paper-figure reproductions
    (thousands of queries).
:class:`StreamingMetrics`
    Constant-memory — the tally plus P² (Jain & Chlamtac 1985)
    percentile estimators and a bounded latency reservoir, so
    million-query scenarios never materialize per-query records.
    Served latencies reach the estimators in blocks: small folds wait
    in one pending block of at most 4096 floats, folded in arrival
    order when it fills, before a chunked fold and on every percentile
    read, so every read sees every outcome observed so far, bit-equal
    to folding each latency as it arrives.

The tally's counters are integers (queries, shed and late queries,
samples per accuracy value, queries per path) and the correct-prediction
throughputs and mean accuracy are summed exactly from them, so the two
modes, and the per-outcome and bulk folds, agree bit for bit on every
counter metric whatever the fold order. Energy is the one float sum that
depends on fold order; it agrees to rounding.

Dropped (shed) queries count toward ``violation_rate`` and ``drop_rate``
but are **excluded from latency percentiles** in both modes: a shed query
was never answered, so it has no latency — folding its ``finish == arrival``
record in would inject 0 s samples and make overloaded runs look *faster*
the more they drop. For the same reason they are excluded from
``total_samples`` (and therefore ``raw_throughput`` and
``mean_accuracy``): a dropped query's samples were never served, and
counting them while the makespan shrinks would make a failing,
drop-heavy cluster report *higher* samples/s than a healthy one.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Samples per sorted chunk of the chunked P² fold, and the most served
# latencies a StreamingMetrics holds before folding them.
_FOLD_BLOCK = 4096


def _finish_error(finish_s, arrival_s, dropped) -> ValueError:
    what = (
        "a dropped outcome's finish_s" if dropped
        else "served latency finish_s - arrival_s"
    )
    return ValueError(
        f"{what} must be finite; got "
        f"finish_s={float(finish_s)!r}, arrival_s={float(arrival_s)!r}"
    )


@dataclass
class CacheStats:
    """Hit/miss/fill accounting for one cache (or a merged fleet view).

    The cluster's MP-Cache tier (:mod:`repro.serving.cache`) counts row
    lookups, not queries: every hot-row gather a node cannot serve from
    shard-local memory either **hits** its cache (a DRAM read, priced in
    ``hit_s``) or **misses** and fills over the cluster fabric
    (``fill_bytes``).  The identities every run must satisfy — pinned in
    the cache benchmark — are ``hits + misses == lookups`` and
    ``fill_bytes == misses * row_bytes``; warm, re-warm, and donation
    traffic is tallied separately so every byte that moved is visible.
    """

    lookups: int = 0  # hot-row gathers offered to the cache
    hits: int = 0
    misses: int = 0
    hit_bytes: int = 0  # payload served from cache (DRAM reads)
    fill_bytes: int = 0  # demand fills pulled over the fabric on misses
    warm_bytes: int = 0  # provisioning fills (static preload, join warm)
    rewarm_bytes: int = 0  # re-fetches after a representation switch
    donated_bytes: int = 0  # hot-set bytes received from a draining peer
    invalidated_entries: int = 0  # entries dropped by switch/re-key/eviction
    invalidations: int = 0  # invalidation events (switches + re-keys)
    hit_s: float = 0.0  # device time charged for cache reads
    rewarm_s: float = 0.0  # device time blocked by post-switch re-warms

    @property
    def hit_rate(self) -> float:
        """Fraction of offered lookups served from cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Fold another cache's counters into this one (fleet roll-up)."""
        self.lookups += other.lookups
        self.hits += other.hits
        self.misses += other.misses
        self.hit_bytes += other.hit_bytes
        self.fill_bytes += other.fill_bytes
        self.warm_bytes += other.warm_bytes
        self.rewarm_bytes += other.rewarm_bytes
        self.donated_bytes += other.donated_bytes
        self.invalidated_entries += other.invalidated_entries
        self.invalidations += other.invalidations
        self.hit_s += other.hit_s
        self.rewarm_s += other.rewarm_s

    def summary(self) -> dict[str, float]:
        """The cache metric vocabulary as one printable dict."""
        return {
            "cache_lookups": self.lookups,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_hit_rate": self.hit_rate,
            "cache_fill_bytes": self.fill_bytes,
            "cache_warm_bytes": self.warm_bytes,
            "cache_rewarm_bytes": self.rewarm_bytes,
        }


@dataclass(frozen=True)
class QueryRecord:
    """One served query's outcome."""

    index: int
    size: int
    arrival_s: float
    start_s: float
    finish_s: float
    path_label: str
    accuracy: float  # percent
    energy_j: float = 0.0
    dropped: bool = False  # shed by an overload policy before execution
    # Per-query SLA override (multi-tenant); None means the run-level target.
    sla_s: float | None = None

    @property
    def latency_s(self) -> float:
        """Arrival-to-finish latency — what the SLA target judges."""
        return self.finish_s - self.arrival_s

    @property
    def correct_samples(self) -> float:
        """Expected correct predictions this query contributed (0 if shed)."""
        if self.dropped:
            return 0.0
        return self.size * self.accuracy / 100.0


class OutcomeBlock(NamedTuple):
    """One dispatched batch's served outcomes, built once per batch.

    ``queries`` are the admitted queries in commit (arrival) order; their
    ``index``, ``size`` and ``arrival_s`` are the block's per-query
    columns, and ``slas`` holds each one's SLA target when the scenario
    has tenant targets (None: every member is judged by ``sla_s``). The
    rest are the batch's scalars: start and finish, path label and
    accuracy, the batch's energy, and the admitted query ``count`` and
    sample ``size`` that split the energy by size across the members (a
    lone member keeps it exactly, as the kernel's ``apportion_energy``
    does). A sub-block (one home region's members: the block with its
    ``queries`` and ``slas`` replaced) keeps the batch's scalars, so its
    members' energies are the ones they have in the whole block.
    """

    queries: list
    slas: list[float] | None
    sla_s: float
    start_s: float
    finish_s: float
    path_label: str
    accuracy: float
    energy_j: float
    count: int
    size: int

    def sla_column(self) -> list[float]:
        """Each member's SLA target."""
        if self.slas is None:
            return [self.sla_s] * len(self.queries)
        return self.slas

    def energies(self) -> list[float]:
        """Each member's share of the batch's energy, by sample count."""
        energy = self.energy_j
        if self.count == 1:
            return [energy] * len(self.queries)
        size = self.size
        return [energy * q.size / size for q in self.queries]

    def outcomes(self) -> list[tuple]:
        """The members as sink outcome rows: ``(index, size, arrival_s,
        start_s, finish_s, path_label, accuracy, energy_j, dropped,
        sla_s)``."""
        start, finish = self.start_s, self.finish_s
        label, accuracy = self.path_label, self.accuracy
        return [
            (q.index, q.size, q.arrival_s, start, finish, label, accuracy,
             energy, False, sla)
            for q, energy, sla in zip(
                self.queries, self.energies(), self.sla_column()
            )
        ]


def _records_of(entry, default_sla: float) -> list[QueryRecord]:
    """A log entry (a block, or one outcome row) as records. Only
    tenant-specific targets are stamped on a record, so single-SLA runs
    stay identical to the reference loop's."""
    rows = entry.outcomes() if type(entry) is OutcomeBlock else (entry,)
    return [
        QueryRecord(*row[:9], None if row[9] == default_sla else row[9])
        for row in rows
    ]


class _Tally:
    """Exact outcome counters and the one metric vocabulary over them.

    :meth:`_count` folds one outcome and :meth:`_count_block` is its
    vector twin for a column block on one path.  The counters live in
    the subclass's own attributes, so a per-outcome fold writes them in
    place.  Each public metric is defined here once, over the counters
    (brought up to date by :meth:`_settle`) plus the subclass's
    ``latency_percentile``.
    """

    def __init__(self) -> None:
        self._n = 0
        self._shed = 0
        self._late = 0  # served past their SLA target
        # Served and SLA-met samples per accuracy value (percent).
        self._served: defaultdict[float, int] = defaultdict(int)
        self._met: defaultdict[float, int] = defaultdict(int)
        self._paths: Counter[str] = Counter()
        self._finish = 0.0
        self._energy = 0.0  # the one float sum: depends on fold order

    def _settle(self) -> None:
        """Bring the counters up to date before a read (no-op here)."""

    def _count(self, size, arrival_s, finish_s, path_label, accuracy,
               energy_j, dropped, sla_s) -> float | None:
        """Fold one outcome; returns its latency, or None if it was shed.

        Raises ``ValueError``, before folding anything, when a served
        outcome's latency, or a shed outcome's ``finish_s`` (it still
        counts toward the makespan), is NaN or infinite."""
        latency = finish_s - arrival_s
        # x - x is 0.0 for every finite x and NaN for NaN and ±inf.
        checked = finish_s if dropped else latency
        if checked - checked != 0.0:
            raise _finish_error(finish_s, arrival_s, dropped)
        self._n += 1
        self._paths[path_label] += 1
        if finish_s > self._finish:
            self._finish = finish_s
        if dropped:
            self._shed += 1
            return None
        self._energy += energy_j
        self._served[accuracy] += size
        if latency > sla_s:
            self._late += 1
        else:
            self._met[accuracy] += size
        return latency

    def _count_block(self, sizes, arrivals, finishes, path_label, accuracies,
                     energies, dropped, slas) -> np.ndarray | None:
        """Vector twin of :meth:`_count` for a non-empty column block on
        one path (``accuracies``, ``energies`` and ``slas`` are scalars or
        per-query arrays); returns the latencies, or None if shed.  A
        served block with a non-finite latency, or a shed block with a
        non-finite ``finish_s``, raises ``ValueError`` before anything is
        folded."""
        latency = finishes - arrivals
        finite = np.isfinite(finishes if dropped else latency)
        if not finite.all():
            first = int(np.argmin(finite))
            raise _finish_error(finishes[first], arrivals[first], dropped)
        m = int(sizes.size)
        self._n += m
        self._paths[path_label] += m
        self._finish = max(self._finish, float(finishes.max()))
        if dropped:
            self._shed += m
            return None
        if np.ndim(energies):
            self._energy += float(np.asarray(energies, dtype=np.float64).sum())
        else:
            self._energy += float(energies) * m
        late = latency > slas
        self._late += int(np.count_nonzero(late))
        met = ~late
        accuracy = np.asarray(accuracies, dtype=np.float64)
        if accuracy.ndim and (accuracy == accuracy[0]).all():
            accuracy = accuracy[0]
        if accuracy.ndim:
            for value, size, ok in zip(
                accuracy.tolist(), sizes.tolist(), met.tolist()
            ):
                self._served[value] += size
                if ok:
                    self._met[value] += size
        else:
            self._served[float(accuracy)] += int(sizes.sum())
            self._met[float(accuracy)] += int(sizes[met].sum())
        return latency

    # ---- the metric vocabulary ---------------------------------------------

    @property
    def n(self) -> int:
        """Queries observed, served and shed."""
        self._settle()
        return self._n

    @property
    def n_dropped(self) -> int:
        """Queries shed before execution."""
        self._settle()
        return self._shed

    @property
    def n_violations(self) -> int:
        """Queries late against their SLA target, or shed (never answered)."""
        self._settle()
        return self._shed + self._late

    @property
    def total_samples(self) -> int:
        """Samples actually served (dropped queries were never answered)."""
        self._settle()
        return sum(self._served.values())

    @property
    def makespan_s(self) -> float:
        """Time from the epoch to the latest finish."""
        self._settle()
        return self._finish

    @staticmethod
    def _weighted(samples_by_accuracy) -> float:
        """Accuracy x samples summed exactly over one per-accuracy count."""
        return math.fsum(a * n for a, n in samples_by_accuracy.items())

    @property
    def raw_throughput(self) -> float:
        """Samples served per second."""
        span = self.makespan_s
        return self.total_samples / span if span > 0 else 0.0

    @property
    def correct_prediction_throughput(self) -> float:
        """QPS x QuerySize x Accuracy, aggregated (Section 5.4)."""
        span = self.makespan_s
        if span <= 0:
            return 0.0
        return self._weighted(self._served) / 100.0 / span

    @property
    def compliant_correct_throughput(self) -> float:
        """Correct predictions per second counting only SLA-compliant
        queries — a late recommendation response is worthless to the
        requesting page, so tight targets penalize slow deployments even
        when their raw throughput keeps up (Figure 13, right)."""
        span = self.makespan_s
        if span <= 0:
            return 0.0
        return self._weighted(self._met) / 100.0 / span

    @property
    def achieved_qps(self) -> float:
        """Queries handled per second of makespan (served and dropped)."""
        span = self.makespan_s
        return self.n / span if span > 0 else 0.0

    @property
    def violation_rate(self) -> float:
        """Fraction of queries exceeding the SLA latency target (dropped
        queries count as violations — they were never answered)."""
        n = self.n
        return self.n_violations / n if n else 0.0

    @property
    def drop_rate(self) -> float:
        """Fraction of queries shed by the overload policy."""
        n = self.n
        return self.n_dropped / n if n else 0.0

    @property
    def mean_accuracy(self) -> float:
        """Sample-weighted accuracy of served predictions (percent)."""
        total = self.total_samples
        if total == 0:
            return 0.0
        return self._weighted(self._served) / total

    @property
    def total_energy_j(self) -> float:
        """Device energy spent on served queries, in joules."""
        self._settle()
        return self._energy

    @property
    def p50_latency_s(self) -> float:
        """Median served latency, in seconds."""
        return self.latency_percentile(50)

    @property
    def p95_latency_s(self) -> float:
        """95th-percentile served latency, in seconds."""
        return self.latency_percentile(95)

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile served latency, in seconds."""
        return self.latency_percentile(99)

    def switching_breakdown(self) -> dict[str, float]:
        """Fraction of queries served by each path (Figure 15)."""
        n = self.n
        return {
            label: count / n for label, count in sorted(self._paths.items())
        }

    def summary(self) -> dict[str, float]:
        """The headline metric vocabulary as one printable dict."""
        return {
            "correct_tput": self.correct_prediction_throughput,
            "raw_tput": self.raw_throughput,
            "qps": self.achieved_qps,
            "accuracy": self.mean_accuracy,
            "violation_rate": self.violation_rate,
            "drop_rate": self.drop_rate,
            "p99_latency_ms": self.p99_latency_s * 1e3,
            "energy_j": self.total_energy_j,
        }


class ServingResult(_Tally):
    """Aggregated outcome of one simulated serving run.

    The record sink hands it one :class:`OutcomeBlock` per served batch
    and one outcome row per shed query, which it keeps in commit order.
    ``records`` is every outcome as a :class:`QueryRecord`, in that
    order, and the exact oracle the other modes are checked against: it
    is built when first read, and from then on the list itself is the
    log, so callers may append to it and later outcomes are appended as
    records. A result made with ``records=`` starts from that list.
    Outcomes only ever grow: the tally behind the metrics is folded from
    the ones added since the last read, grouped by (path label, shed) in
    first-appearance order, through the vector twin one group at a time,
    and percentiles are exact over every served latency.
    """

    def __init__(
        self, scheduler_name: str, sla_s: float,
        records: list[QueryRecord] | None = None,
    ) -> None:
        super().__init__()
        self.scheduler_name = scheduler_name
        self.sla_s = sla_s
        self._records = records  # None until first read
        self._log: list = []  # blocks and rows, while ``_records`` is None
        self._folded = 0  # log entries folded into the tally
        self._folded_rows = 0  # outcomes (records) folded into the tally
        self._latencies: list[np.ndarray] = []

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.scheduler_name, self.sla_s, self.records) == (
            other.scheduler_name, other.sla_s, other.records
        )

    __hash__ = None

    def _append(self, entry) -> None:
        """Add one outcome block, or one outcome row (a sink ``observe``
        argument tuple), in commit order."""
        if self._records is None:
            self._log.append(entry)
        else:
            self._records += _records_of(entry, self.sla_s)

    @property
    def records(self) -> list[QueryRecord]:
        """Every outcome as a :class:`QueryRecord`, in commit order."""
        if self._records is None:
            records: list[QueryRecord] = []
            for entry in self._log:
                records += _records_of(entry, self.sla_s)
            self._records = records
            self._log = []
        return self._records

    def _settle(self) -> None:
        """Fold the outcomes added since the last read."""
        if self._records is None:
            added = self._log[self._folded:]
            self._folded = len(self._log)
            columns = _log_columns
        else:
            added = self._records[self._folded_rows:]
            columns = _record_columns
        groups: defaultdict[tuple, list] = defaultdict(list)
        for entry in added:
            groups[_group_of(entry)].append(entry)
        folds = [(key, columns(group)) for key, group in groups.items()]
        self._folded_rows += sum(len(cols[0]) for _, cols in folds)
        default_sla = self.sla_s
        for (label, dropped), cols in folds:
            sizes, arrivals, finishes, accuracies, energies, slas = cols
            latency = self._count_block(
                np.array(sizes, dtype=np.int64), np.array(arrivals),
                np.array(finishes), label, np.array(accuracies),
                np.array(energies), dropped,
                np.array([default_sla if sla is None else sla
                          for sla in slas]),
            )
            if latency is not None:
                self._latencies.append(latency)

    def latency_percentile(self, q: float) -> float:
        """Latency percentile over *served* queries; shed queries were never
        answered and must not deflate the tail with 0 s samples."""
        self._settle()
        if not self._latencies:
            return 0.0
        if len(self._latencies) > 1:
            self._latencies = [np.concatenate(self._latencies)]
        return float(np.percentile(self._latencies[0], q))

    # Each result type keeps ``summary`` in its own namespace, so a tracer
    # can wrap one type's summary without touching the other's.
    summary = _Tally.summary


def _group_of(entry) -> tuple:
    """A block's, row's or record's (path label, shed) group."""
    if type(entry) is OutcomeBlock:
        return entry.path_label, False
    if type(entry) is QueryRecord:
        return entry.path_label, entry.dropped
    return entry[5], entry[8]


def _log_columns(entries) -> tuple[list, ...]:
    """One group's columns from its blocks and rows, member by member."""
    sizes, arrivals, finishes, accuracies, energies, slas = (
        [], [], [], [], [], []
    )
    for entry in entries:
        if type(entry) is OutcomeBlock:
            queries = entry.queries
            m = len(queries)
            sizes += [q.size for q in queries]
            arrivals += [q.arrival_s for q in queries]
            finishes += [entry.finish_s] * m
            accuracies += [entry.accuracy] * m
            energies += entry.energies()
            slas += entry.sla_column()
        else:
            sizes.append(entry[1])
            arrivals.append(entry[2])
            finishes.append(entry[4])
            accuracies.append(entry[6])
            energies.append(entry[7])
            slas.append(entry[9])
    return sizes, arrivals, finishes, accuracies, energies, slas


def _record_columns(records) -> tuple[list, ...]:
    """One group's columns from its records (an SLA of None is the run's
    target)."""
    return (
        [r.size for r in records], [r.arrival_s for r in records],
        [r.finish_s for r in records], [r.accuracy for r in records],
        [r.energy_j for r in records], [r.sla_s for r in records],
    )


class P2Quantile:
    """Streaming quantile via the P² algorithm (Jain & Chlamtac, 1985).

    Tracks five markers whose heights approximate the ``q``-quantile with
    O(1) memory and O(1) update — the standard record-free percentile
    estimator for long-running serving telemetry.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        self.q = q
        self._initial: list[float] = []
        self._heights: list[float] = []
        self._pos: list[float] = []
        self._desired: list[float] = []
        self._inc = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    def observe(self, x: float) -> None:
        """Fold one sample into the five-marker state."""
        self._fold([x])

    def _fold(self, xs: list[float]) -> None:
        """Fold samples one at a time, in order: the per-sample P² update.

        The first five samples seed the markers; every later one moves
        the extreme markers, advances the positions above its cell, and
        adjusts interior markers 1, 2 and 3 in that order, each seeing
        the heights the previous one moved.  The marker state lives in
        locals for the whole list and is written back once.  The cell
        search is a comparison chain: once ``h0 <= x < h4``, the first
        ``i`` with ``x < h[i + 1]`` is the cell, since ``x >= h[i]``
        follows from the tests before it.  A NaN sample, which fails
        every comparison, raises ``ValueError``.
        """
        self.count += len(xs)
        if not self._heights:
            initial = self._initial
            take = 5 - len(initial)
            initial.extend(xs[:take])
            if len(initial) < 5:
                return
            initial.sort()
            q = self.q
            self._heights = list(initial)
            self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
            self._desired = [
                1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0,
            ]
            xs = xs[take:]
            if not xs:
                return
        h0, h1, h2, h3, h4 = self._heights
        n0, n1, n2, n3, n4 = self._pos
        d1, d2, d3, d4 = self._desired[1:]
        _, i1, i2, i3, i4 = self._inc
        for x in xs:
            if x < h0:
                h0 = x
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif x >= h4:
                h4 = x
            elif x < h1:
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif x < h2:
                n2 += 1.0
                n3 += 1.0
            elif x < h3:
                n3 += 1.0
            elif x != x:  # NaN fails every comparison above
                raise ValueError("P² cannot fold a NaN sample")
            n4 += 1.0
            d1 += i1
            d2 += i2
            d3 += i3
            d4 += i4
            # Marker 1, between h0 and h2: parabolic step, else linear.
            d = d1 - n1
            if (d >= 1.0 and n2 - n1 > 1.0) or (d <= -1.0 and n0 - n1 < -1.0):
                s = 1.0 if d > 0 else -1.0
                c = h1 + s / (n2 - n0) * (
                    (n1 - n0 + s) * (h2 - h1) / (n2 - n1)
                    + (n2 - n1 - s) * (h1 - h0) / (n1 - n0)
                )
                if not h0 < c < h2:
                    if s > 0:
                        c = h1 + s * (h2 - h1) / (n2 - n1)
                    else:
                        c = h1 + s * (h0 - h1) / (n0 - n1)
                h1 = c
                n1 += s
            # Marker 2, between h1 and h3.
            d = d2 - n2
            if (d >= 1.0 and n3 - n2 > 1.0) or (d <= -1.0 and n1 - n2 < -1.0):
                s = 1.0 if d > 0 else -1.0
                c = h2 + s / (n3 - n1) * (
                    (n2 - n1 + s) * (h3 - h2) / (n3 - n2)
                    + (n3 - n2 - s) * (h2 - h1) / (n2 - n1)
                )
                if not h1 < c < h3:
                    if s > 0:
                        c = h2 + s * (h3 - h2) / (n3 - n2)
                    else:
                        c = h2 + s * (h1 - h2) / (n1 - n2)
                h2 = c
                n2 += s
            # Marker 3, between h2 and h4.
            d = d3 - n3
            if (d >= 1.0 and n4 - n3 > 1.0) or (d <= -1.0 and n2 - n3 < -1.0):
                s = 1.0 if d > 0 else -1.0
                c = h3 + s / (n4 - n2) * (
                    (n3 - n2 + s) * (h4 - h3) / (n4 - n3)
                    + (n4 - n3 - s) * (h3 - h2) / (n3 - n2)
                )
                if not h2 < c < h4:
                    if s > 0:
                        c = h3 + s * (h4 - h3) / (n4 - n3)
                    else:
                        c = h3 + s * (h2 - h3) / (n2 - n3)
                h3 = c
                n3 += s
        self._heights = [h0, h1, h2, h3, h4]
        self._pos = [n0, n1, n2, n3, n4]
        self._desired[1:] = [d1, d2, d3, d4]

    _CHUNK_MIN = 256

    @staticmethod
    def _quantile_sorted(xs: np.ndarray, frac: float) -> float:
        """Linear-interpolated quantile of an already-sorted array."""
        idx = frac * (xs.size - 1)
        lo = int(idx)
        rem = idx - lo
        if rem == 0.0:
            return float(xs[lo])
        return float(xs[lo] + rem * (xs[lo + 1] - xs[lo]))

    def observe_sorted(self, xs: np.ndarray) -> None:
        """Fold a pre-sorted chunk of samples in O(log m) marker updates.

        Chunked update (the ``observe_many`` hot path): a sorted block is
        itself an excellent quantile estimate, so each interior marker
        height moves toward the block's empirical quantile weighted by the
        block's share of all observations, while marker positions advance
        by exact below-marker counts so later per-sample ``observe`` calls
        stay coherent. Per-sample and chunked folding therefore agree to
        estimator accuracy, not bit-for-bit — counters stay exact either
        way. Intended for blocks of at least ``_CHUNK_MIN`` samples;
        ``observe_many`` routes smaller chunks through the per-sample
        ``_fold``.
        """
        m = int(xs.size)
        if m == 0:
            return
        if not self._heights:
            if len(self._initial) + m < 5:
                self._initial.extend(float(v) for v in xs)
                self.count += m
                return
            if self._initial:
                xs = np.sort(np.concatenate([self._initial, xs]))
                self._initial = []
            self.count += m
            n = self.count
            self._heights = [
                self._quantile_sorted(xs, frac) for frac in self._inc
            ]
            self._pos = [1.0 + frac * (n - 1) for frac in self._inc]
            self._desired = [1.0 + frac * (n - 1) for frac in self._inc]
            return
        h, pos = self._heights, self._pos
        self.count += m
        weight = m / self.count
        if xs[0] < h[0]:
            h[0] = float(xs[0])
        if xs[-1] > h[4]:
            h[4] = float(xs[-1])
        for i in (1, 2, 3):
            h[i] += weight * (self._quantile_sorted(xs, self._inc[i]) - h[i])
        below = np.searchsorted(xs, h[1:4], side="left")
        for i in (1, 2, 3):
            pos[i] += float(below[i - 1])
        pos[4] += float(m)
        for i in range(5):
            self._desired[i] += self._inc[i] * m

    def observe_many(self, xs) -> None:
        """Fold a chunk of samples (one sort per ``_FOLD_BLOCK`` samples).

        Chunks smaller than ``_CHUNK_MIN`` take the per-sample update,
        bit-equal to an ``observe`` loop — a tiny block's empirical tail
        quantile is too noisy to blend, and the per-sample loop is cheap
        at that size.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.size < self._CHUNK_MIN:
            self._fold(xs.tolist())
            return
        for start in range(0, xs.size, _FOLD_BLOCK):
            self.observe_sorted(np.sort(xs[start:start + _FOLD_BLOCK]))

    @property
    def value(self) -> float:
        """The current estimate of the tracked quantile."""
        if self._heights:
            return self._heights[2]
        if not self._initial:
            return 0.0
        return float(np.percentile(self._initial, self.q * 100.0))


class ReservoirSampler:
    """Uniform bounded-memory sample of a stream (Vitter's Algorithm R)."""

    _BLOCK = 4096

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._sample: list[float] = []
        self.count = 0
        # Uniforms are drawn in blocks: one Generator call per 4096
        # observations instead of one per observation (hot streaming path).
        self._uniforms = self._rng.random(self._BLOCK)
        self._cursor = 0

    def observe(self, x: float) -> None:
        """Offer one sample; it survives with probability capacity/count."""
        self.count += 1
        if len(self._sample) < self.capacity:
            self._sample.append(x)
            return
        if self._cursor == self._BLOCK:
            self._uniforms = self._rng.random(self._BLOCK)
            self._cursor = 0
        j = int(self._uniforms[self._cursor] * self.count)
        self._cursor += 1
        if j < self.capacity:
            self._sample[j] = x

    def observe_many(self, xs) -> None:
        """Offer a chunk of samples, bit-identical to per-sample ``observe``.

        Consumes the block-drawn uniforms in exactly the per-sample order
        and computes all replacement slots vectorized; Python touches only
        the ~``capacity * ln(count/capacity)`` surviving samples, so 10M
        observations cost thousands of list writes, not millions.
        """
        xs = np.asarray(xs, dtype=np.float64)
        i = 0
        n = int(xs.size)
        fill = self.capacity - len(self._sample)
        if fill > 0:
            take = min(fill, n)
            self._sample.extend(xs[:take].tolist())
            self.count += take
            i = take
        while i < n:
            if self._cursor == self._BLOCK:
                self._uniforms = self._rng.random(self._BLOCK)
                self._cursor = 0
            take = min(self._BLOCK - self._cursor, n - i)
            uniforms = self._uniforms[self._cursor:self._cursor + take]
            counts = self.count + 1 + np.arange(take, dtype=np.float64)
            slots = (uniforms * counts).astype(np.int64)
            self._cursor += take
            self.count += take
            survivors = np.flatnonzero(slots < self.capacity)
            values = xs[i:i + take]
            sample = self._sample
            for k in survivors.tolist():
                sample[slots[k]] = float(values[k])
            i += take

    def percentile(self, q: float) -> float:
        """Percentile estimate over the reservoir's current sample."""
        if not self._sample:
            return 0.0
        return float(np.percentile(self._sample, q))


class StreamingMetrics(_Tally):
    """Record-free aggregation: the tally plus percentile estimators.

    ``observe`` folds one query outcome and ``observe_many`` a same-path
    block; every paper metric is then available as a property.  Named
    percentiles (p50/p95/p99) come from P² estimators; arbitrary
    ``latency_percentile(q)`` queries fall back to a uniform reservoir
    over served latencies.  Memory is O(reservoir), not O(queries).

    Counters are folded at once.  Served latencies that reach the
    estimators one sample at a time (per-outcome ``observe`` and folds
    under ``P2Quantile._CHUNK_MIN``) wait in one pending block of at most
    ``_FOLD_BLOCK`` floats, which is drained into every estimator and the
    reservoir when it fills, before a chunked fold, and on every
    percentile read.  The estimators therefore see the same samples in
    the same order as an eager fold, so every read is bit-equal to it;
    only the private estimator state lags until a read.
    """

    PERCENTILES = (50.0, 95.0, 99.0)

    def __init__(
        self,
        scheduler_name: str,
        sla_s: float,
        reservoir_size: int = 2048,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.scheduler_name = scheduler_name
        self.sla_s = sla_s
        self._estimators = {p: P2Quantile(p / 100.0) for p in self.PERCENTILES}
        self._reservoir = ReservoirSampler(reservoir_size, seed=seed)
        self._pending: list[float] = []  # served latencies not yet folded

    def _drain(self) -> None:
        """Fold the pending latencies, in order, into every estimator and
        the reservoir."""
        pending = self._pending
        if not pending:
            return
        for estimator in self._estimators.values():
            estimator._fold(pending)
        self._reservoir.observe_many(pending)
        pending.clear()

    def observe(
        self,
        size: int,
        arrival_s: float,
        start_s: float,
        finish_s: float,
        path_label: str,
        accuracy: float,
        energy_j: float = 0.0,
        dropped: bool = False,
        sla_s: float | None = None,
    ) -> None:
        """Fold one query outcome into the running aggregates.

        ``sla_s`` overrides the run-level target for this query (multi-tenant
        scenarios carry per-tenant SLAs).  A served outcome whose latency
        is NaN or infinite, or a shed one whose ``finish_s`` is, raises
        ``ValueError``."""
        latency = self._count(
            size, arrival_s, finish_s, path_label, accuracy, energy_j,
            dropped, self.sla_s if sla_s is None else sla_s,
        )
        if latency is None:
            return
        pending = self._pending
        if len(pending) >= _FOLD_BLOCK:
            self._drain()
        pending.append(latency)

    def observe_many(
        self,
        sizes,
        arrivals,
        starts,
        finishes,
        path_label: str,
        accuracies,
        energies=0.0,
        dropped: bool = False,
        slas=None,
    ) -> None:
        """Fold a chunk of same-path outcomes in vectorized passes.

        Array counterpart of :meth:`observe` for one ``path_label`` at a
        time (callers group outcomes by path; a dispatch batch shares its
        path by construction). ``accuracies``/``energies``/``slas`` accept
        scalars or per-query arrays; ``slas=None`` applies the run-level
        target. ``dropped`` marks the whole chunk as shed.  A served chunk
        with a NaN or infinite latency, or a shed chunk with a NaN or
        infinite ``finish_s``, raises ``ValueError`` and folds nothing.

        Every counter metric equals the per-outcome fold's exactly, the
        reservoir consumes its uniforms bit-identically, and energy agrees
        to summation order.  Chunks under ``P2Quantile._CHUNK_MIN`` join
        the pending block, so their P² estimates are bit-equal to
        per-outcome folds; larger chunks take P²'s chunked update one
        sorted ``_FOLD_BLOCK`` at a time, which agrees to estimator
        accuracy — pinned in ``tests/property/test_prop_engine_parity.py``
        and ``tests/property/test_prop_metrics.py``.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        m = int(sizes.size)
        if m == 0:
            return
        del starts  # observe() never reads start_s either
        latency = self._count_block(
            sizes, np.asarray(arrivals, dtype=np.float64),
            np.asarray(finishes, dtype=np.float64), path_label, accuracies,
            energies, dropped, self.sla_s if slas is None else slas,
        )
        if latency is None:
            return
        if m < P2Quantile._CHUNK_MIN:
            if len(self._pending) + m > _FOLD_BLOCK:
                self._drain()
            self._pending.extend(latency.tolist())
            return
        self._drain()
        for start in range(0, m, _FOLD_BLOCK):
            chunk = latency[start:start + _FOLD_BLOCK]
            ordered = np.sort(chunk)
            for estimator in self._estimators.values():
                estimator.observe_sorted(ordered)
            self._reservoir.observe_many(chunk)

    def observe_record(self, record: QueryRecord, sla_s: float | None = None) -> None:
        """Fold one materialized :class:`QueryRecord` (record-sink shim)."""
        self.observe(
            record.size, record.arrival_s, record.start_s, record.finish_s,
            record.path_label, record.accuracy, energy_j=record.energy_j,
            dropped=record.dropped,
            sla_s=record.sla_s if sla_s is None else sla_s,
        )

    def latency_percentile(self, q: float) -> float:
        """Percentile over served latencies: P² for the named percentiles,
        reservoir estimate otherwise (pending latencies are folded first)."""
        self._drain()
        estimator = self._estimators.get(float(q))
        if estimator is not None:
            return estimator.value
        return self._reservoir.percentile(q)

    # Own-namespace alias, as on ServingResult.
    summary = _Tally.summary
