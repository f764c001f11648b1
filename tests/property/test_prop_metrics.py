"""Properties of the streaming latency estimators.

``StreamingMetrics`` folds served latencies into its P² estimators one
block at a time, through ``P2Quantile._fold``: one loop per block with
the marker state in locals and the cell search and interior-marker
adjustments unrolled.  The reference here is the per-sample P² update
it replaced, kept verbatim (``_update``, ``_adjust``, ``_parabolic``
and ``_linear``): the fused fold must reproduce its marker state bit
for bit after every chunk, and a ``StreamingMetrics`` must answer every
read bit-equal to an eager fold of each latency as it arrives.

``ServingResult`` keeps one outcome block per batch and one row per shed
query, and builds its records only when they are read. Its reference is
the result as it was, kept verbatim too: a record per outcome built as
it is observed, and the per-record ``_settle`` folding the records
appended since the last read.
"""

from collections import defaultdict

import numpy as np
from hypothesis import given, strategies as st

from tests.property.budget import prop_settings

from repro.data.queries import Query
from repro.serving.engine import RecordSink
from repro.serving.metrics import (
    OutcomeBlock,
    P2Quantile,
    QueryRecord,
    ReservoirSampler,
    StreamingMetrics,
    _Tally,
)


class _ReferenceP2(P2Quantile):
    """P² folding one sample at a time through the original method chain."""

    def observe(self, x: float) -> None:
        self.count += 1
        if self._heights:
            self._update(x)
            return
        self._initial.append(x)
        if len(self._initial) == 5:
            self._initial.sort()
            self._heights = list(self._initial)
            self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
            self._desired = [
                1.0, 1.0 + 2.0 * self.q, 1.0 + 4.0 * self.q,
                3.0 + 2.0 * self.q, 5.0,
            ]

    def _fold(self, xs) -> None:
        """Keep inherited callers (small ``observe_many`` chunks) on the
        reference update, never on the fused fold under test."""
        for x in xs:
            self.observe(x)

    def _update(self, x: float) -> None:
        h, pos = self._heights, self._pos
        if x < h[0]:
            h[0] = x
            cell = 0
        elif x >= h[4]:
            h[4] = x
            cell = 3
        else:
            cell = next(i for i in range(4) if h[i] <= x < h[i + 1])
        for i in range(cell + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._inc[i]
        self._adjust()

    def _adjust(self) -> bool:
        """One sweep of interior-marker adjustment; True if any marker moved."""
        h, pos = self._heights, self._pos
        moved = False
        for i in (1, 2, 3):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                step = 1.0 if d > 0 else -1.0
                candidate = self._parabolic(i, step)
                if not h[i - 1] < candidate < h[i + 1]:
                    candidate = self._linear(i, step)
                h[i] = candidate
                pos[i] += step
                moved = True
        return moved

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._pos
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])


def _state(est: P2Quantile) -> tuple:
    return (est._heights, est._pos, est._desired, est.count, est.value)


# ---- the fused per-sample fold ---------------------------------------------

magnitudes = st.floats(min_value=-6.0, max_value=3.0).map(lambda e: 10.0 ** e)


@st.composite
def sample_streams(draw):
    """Latency-like streams: ties from a small pool, runs of one value,
    monotone ramps either way, and magnitudes from 1e-6 to 1e3."""
    pool = draw(st.lists(magnitudes, min_size=1, max_size=6))
    xs: list[float] = []
    for kind in draw(st.lists(st.integers(0, 3), min_size=1, max_size=12)):
        k = draw(st.integers(1, 60))
        if kind == 0:
            xs += draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
        elif kind == 1:
            xs += [draw(st.sampled_from(pool))] * k
        elif kind == 2:
            start = draw(magnitudes)
            step = draw(magnitudes) * draw(st.sampled_from([1.0, -1.0]))
            xs += [start + i * step for i in range(k)]
        else:
            xs += draw(st.lists(magnitudes, min_size=k, max_size=k))
    return xs


@prop_settings(80)
@given(
    xs=sample_streams(),
    splits=st.lists(st.integers(1, 40), min_size=1, max_size=20),
    routes=st.lists(st.sampled_from(["fold", "many", "each"]), min_size=1,
                    max_size=20),
    q=st.floats(min_value=0.001, max_value=0.999),
)
def test_fused_fold_matches_per_sample_reference(xs, splits, routes, q):
    """After every chunk, the fused fold's heights, positions, desired
    positions, count and value equal the reference's bit for bit, whether
    a chunk arrives through ``_fold``, a small ``observe_many`` or
    per-sample ``observe`` (chunks under 5 samples included)."""
    for quantile in (0.5, 0.95, 0.99, q):
        fused, reference = P2Quantile(quantile), _ReferenceP2(quantile)
        start = step = 0
        while start < len(xs):
            chunk = xs[start:start + splits[step % len(splits)]]
            route = routes[step % len(routes)]
            start += len(chunk)
            step += 1
            if route == "fold":
                fused._fold(list(chunk))
            elif route == "many":
                fused.observe_many(np.asarray(chunk))
            else:
                for x in chunk:
                    fused.observe(x)
            for x in chunk:
                reference.observe(x)
            assert _state(fused) == _state(reference)


# ---- deferred folding in StreamingMetrics ----------------------------------


class _EagerMetrics:
    """Folds every served latency into the estimators the moment it is
    observed: per-sample reference P² below 256 samples, P²'s chunked
    update one sorted 4096-sample block at a time above."""

    def __init__(self, reservoir_size: int, seed: int) -> None:
        self.estimators = {
            p: _ReferenceP2(p / 100.0) for p in StreamingMetrics.PERCENTILES
        }
        self.reservoir = ReservoirSampler(reservoir_size, seed=seed)

    def fold(self, latencies) -> None:
        for x in latencies:
            for estimator in self.estimators.values():
                estimator.observe(x)
            self.reservoir.observe(x)

    def fold_chunked(self, latency: np.ndarray) -> None:
        for start in range(0, latency.size, 4096):
            chunk = latency[start:start + 4096]
            ordered = np.sort(chunk)
            for estimator in self.estimators.values():
                estimator.observe_sorted(ordered)
            self.reservoir.observe_many(chunk)

    def percentile(self, q: float) -> float:
        estimator = self.estimators.get(float(q))
        if estimator is not None:
            return estimator.value
        return self.reservoir.percentile(q)


def _latencies(seed: int, m: int, style: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if style == 0:
        return rng.exponential(0.01, size=m)
    if style == 1:
        return rng.choice([0.002, 0.004, 0.004, 0.011], size=m)
    return np.full(m, 0.003)


seeds = st.integers(0, 2**32 - 1)
styles = st.integers(0, 2)
reads = st.sampled_from([50.0, 95.0, 99.0, 37.5])
operations = st.one_of(
    st.tuples(st.just("observe"), magnitudes, st.booleans()),
    st.tuples(st.just("small"), seeds, st.integers(1, 255), styles),
    st.tuples(st.just("large"), seeds, st.integers(256, 9000), styles),
    st.tuples(st.just("burst"), seeds, st.integers(1, 40), styles),
    st.tuples(st.just("dropped"), st.integers(1, 300)),
    st.tuples(st.just("read"), reads),
)


@prop_settings(40)
@given(ops=st.lists(operations, min_size=1, max_size=30))
def test_deferred_folds_read_like_eager_folds(ops):
    """Any interleaving of served and dropped outcomes, small, chunked
    and dropped bulk folds, and reads: every p50/p95/p99 read and every
    reservoir percentile equals the eager fold's bit for bit, and so
    does the final reservoir sample."""
    metrics = StreamingMetrics("t", sla_s=0.010, reservoir_size=64, seed=3)
    eager = _EagerMetrics(reservoir_size=64, seed=3)
    arrival = 0.0
    for op in ops:
        kind = op[0]
        if kind == "observe":
            _, latency, dropped = op
            finish = arrival + latency
            metrics.observe(10, arrival, arrival, finish, "P", 80.0,
                            dropped=dropped)
            if not dropped:
                eager.fold([finish - arrival])
        elif kind == "dropped":
            m = op[1]
            metrics.observe_many(np.ones(m), np.zeros(m), None, np.zeros(m),
                                 "DROPPED", 0.0, dropped=True)
        elif kind == "read":
            q = op[1]
            assert metrics.latency_percentile(q) == eager.percentile(q)
        else:
            _, seed, m, style = op
            rng = np.random.default_rng(seed)
            sizes = [m] if kind != "burst" else rng.integers(1, 256, size=m)
            for k, size in enumerate(np.asarray(sizes).tolist()):
                arrivals = arrival + np.arange(size, dtype=np.float64)
                finishes = arrivals + _latencies(seed + k, size, style)
                metrics.observe_many(np.ones(size), arrivals, None, finishes,
                                     "P", 80.0)
                latency = finishes - arrivals
                if size < 256:
                    eager.fold(latency.tolist())
                else:
                    eager.fold_chunked(latency)
        arrival += 1.0
    for q in (50.0, 95.0, 99.0, 37.5):
        assert metrics.latency_percentile(q) == eager.percentile(q)
    assert metrics.summary()["p99_latency_ms"] == eager.percentile(99.0) * 1e3
    assert metrics._reservoir._sample == eager.reservoir._sample
    assert metrics._reservoir.count == eager.reservoir.count


# ---- records on read against the per-record result --------------------------


class _RecordResult(_Tally):
    """``ServingResult`` as it was: the record sink built a record per
    outcome as it was observed, and ``_settle`` folded the records
    appended since the last read, grouped by (label, dropped)."""

    def __init__(self, scheduler_name, sla_s):
        super().__init__()
        self.scheduler_name = scheduler_name
        self.sla_s = sla_s
        self.records = []
        self._folded = 0
        self._latencies = []

    def observe(self, index, size, arrival_s, start_s, finish_s, path_label,
                accuracy, energy_j, dropped, sla_s):
        self.records.append(QueryRecord(
            index, size, arrival_s, start_s, finish_s, path_label, accuracy,
            energy_j, dropped,
            None if sla_s == self.sla_s else sla_s,
        ))

    def _settle(self) -> None:
        """Fold the records appended since the last read."""
        records = self.records
        if len(records) == self._folded:
            return
        groups = defaultdict(list)
        for record in records[self._folded:]:
            groups[record.path_label, record.dropped].append(record)
        self._folded = len(records)
        default_sla = self.sla_s
        for (label, dropped), group in groups.items():
            latency = self._count_block(
                np.array([r.size for r in group], dtype=np.int64),
                np.array([r.arrival_s for r in group]),
                np.array([r.finish_s for r in group]), label,
                np.array([r.accuracy for r in group]),
                np.array([r.energy_j for r in group]), dropped,
                np.array([default_sla if r.sla_s is None else r.sla_s
                          for r in group]),
            )
            if latency is not None:
                self._latencies.append(latency)

    def latency_percentile(self, q: float) -> float:
        self._settle()
        if not self._latencies:
            return 0.0
        if len(self._latencies) > 1:
            self._latencies = [np.concatenate(self._latencies)]
        return float(np.percentile(self._latencies[0], q))

    summary = _Tally.summary


PATHS = {"A": 78.79, "B": 79.12, "C": 78.94}
TENANT_SLAS = (0.010, 0.004, 0.025)
result_ops = st.one_of(
    # A served batch: its members, path, timing, energy, and how many
    # queries and samples of its batch are elsewhere (a home region's
    # sub-block keeps the whole batch's apportionment scalars).
    st.tuples(
        st.just("block"),
        st.lists(st.tuples(st.integers(1, 300), st.integers(0, 2)),
                 min_size=1, max_size=12),
        st.sampled_from(sorted(PATHS)),
        st.floats(0.0, 0.02), st.floats(1e-4, 0.03),
        st.floats(0.0, 5.0), st.integers(0, 3), st.integers(0, 900),
    ),
    st.tuples(st.just("drop"), st.integers(1, 300), st.integers(0, 2)),
    st.tuples(st.just("append"), st.integers(1, 300), st.booleans(),
              st.floats(0.0, 0.03), st.floats(0.0, 2.0)),
    st.tuples(st.just("summary"), st.sampled_from([50.0, 99.0, 37.5])),
    st.just(("records",)),
)


@prop_settings(80)
@given(ops=st.lists(result_ops, min_size=1, max_size=25),
       tenants=st.booleans())
def test_blocks_settle_like_records(ops, tenants):
    """Random interleavings of blocks, shed rows and caller-appended
    records, with reads in between, with or without tenant SLAs: every
    ``summary()`` and percentile equals the per-record result's exactly,
    and ``records`` equals the records it holds."""
    sink = RecordSink("t", 0.010)
    result = sink.result
    oracle = _RecordResult("t", 0.010)
    index = 0
    clock = 0.0

    def query(size, tenant):
        nonlocal index, clock
        index += 1
        clock += 0.0007
        return Query(index=index, size=size, arrival_s=clock,
                     tenant=f"t{tenant}" if tenants else "")

    def sla_of(q):
        return TENANT_SLAS[int(q.tenant[1:])] if q.tenant else 0.010

    for op in ops:
        kind = op[0]
        if kind == "block":
            _, members, label, wait, service, energy, others, other_size = op
            queries = [query(size, tenant) for size, tenant in members]
            count = len(queries) + others
            size = sum(q.size for q in queries) + (other_size if others else 0)
            start = clock + wait
            finish = start + service
            slas = [sla_of(q) for q in queries] if tenants else None
            sink.observe_all(OutcomeBlock(
                queries, slas, 0.010, start, finish, label, PATHS[label],
                energy, count, size,
            ))
            for q in queries:
                oracle.observe(
                    q.index, q.size, q.arrival_s, start, finish, label,
                    PATHS[label],
                    energy if count == 1 else energy * q.size / size,
                    False, sla_of(q),
                )
        elif kind == "drop":
            q = query(op[1], op[2])
            row = (q.index, q.size, q.arrival_s, q.arrival_s, q.arrival_s,
                   "DROPPED", 0.0, 0.0, True, sla_of(q))
            sink.observe(*row)
            oracle.observe(*row)
        elif kind == "append":
            _, size, dropped, latency, energy = op
            q = query(size, 0)
            record = QueryRecord(
                q.index, size, q.arrival_s, q.arrival_s,
                q.arrival_s + (0.0 if dropped else latency),
                "DROPPED" if dropped else "A", 0.0 if dropped else PATHS["A"],
                0.0 if dropped else energy, dropped,
            )
            result.records.append(record)
            oracle.records.append(record)
        elif kind == "summary":
            assert result.summary() == oracle.summary()
            assert result.latency_percentile(op[1]) == (
                oracle.latency_percentile(op[1])
            )
        else:
            assert result.records == oracle.records
    assert result.summary() == oracle.summary()
    assert result.records == oracle.records
    assert result.n == oracle.n == len(oracle.records)
