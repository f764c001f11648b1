"""Properties of the streaming latency estimators.

``StreamingMetrics`` folds served latencies into its P² estimators one
block at a time, through ``P2Quantile._fold``: one loop per block with
the marker state in locals and the cell search and interior-marker
adjustments unrolled.  The reference here is the per-sample P² update
it replaced, kept verbatim (``_update``, ``_adjust``, ``_parabolic``
and ``_linear``): the fused fold must reproduce its marker state bit
for bit after every chunk, and a ``StreamingMetrics`` must answer every
read bit-equal to an eager fold of each latency as it arrives.
"""

import numpy as np
from hypothesis import given, strategies as st

from tests.property.budget import prop_settings

from repro.serving.metrics import P2Quantile, ReservoirSampler, StreamingMetrics


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
