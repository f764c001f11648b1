"""Inference query workloads (Section 5.3).

Queries are batches of candidate items for one user request. Sizes follow a
lognormal distribution with a configurable mean (default 128, range 1-4K as
in DeepRecSys); arrivals follow one of several processes at the target QPS:

``poisson``
    Homogeneous Poisson — the paper's default stationary load.
``uniform``
    Deterministic equal spacing (useful for analytic checks).
``diurnal``
    Inhomogeneous Poisson with a sinusoidal rate — the day/night cycle
    Hercules-style provisioning targets, compressed into a short window.
``mmpp`` (alias ``bursty``)
    Two-state Markov-modulated Poisson: exponential dwell times alternate
    a quiet baseline with short high-rate bursts, the on-off burstiness of
    real frontend traffic that a stationary Poisson underestimates.
``flash-crowd``
    Stationary baseline with one multiplicative spike window — the
    breaking-news / product-drop surge that stresses admission control.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_QUERY_SIZE = 4096


@dataclass(frozen=True)
class Query:
    """One inference request: ``size`` candidate items arriving at a time.

    ``tenant`` tags the originating workload in multi-tenant scenarios
    (empty for single-tenant runs); per-tenant SLAs live on the scenario.

    ``user`` identifies the requesting user for shard-group keying
    (:meth:`~repro.serving.cluster.ShardMap.group_of`): real request
    streams are user-skewed — a few heavy users dominate — which is what
    makes some shard groups hot.  The default ``-1`` keys the group off
    ``index`` instead (uniform across groups), preserving every pre-cache
    scenario bit-for-bit.
    """

    index: int
    size: int
    arrival_s: float
    tenant: str = ""
    user: int = -1


@dataclass(frozen=True)
class QueryArrays:
    """Column (structure-of-arrays) view of one query stream.

    The array fast path (:mod:`repro.serving.fastpath`) consumes queries
    in this form so no per-query Python object exists on its hot path.
    ``tenant_codes`` indexes into ``tenants`` (code 0 is always the
    untagged tenant ``""`` for streams generated without tags); ``user``
    carries the shard-group key (``-1`` = key off ``index``), mirroring
    :class:`Query` field for field.
    """

    index: np.ndarray  # int64, the global query indices
    size: np.ndarray  # int64 candidate-item counts
    arrival_s: np.ndarray  # float64 arrival timestamps
    tenant_codes: np.ndarray  # int32 codes into ``tenants``
    tenants: tuple[str, ...]  # code -> tenant name ("" when untagged)
    user: np.ndarray  # int64 user keys (-1 = unkeyed)

    def __post_init__(self) -> None:
        n = self.index.shape[0]
        for name in ("size", "arrival_s", "tenant_codes", "user"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must match index length {n}")

    def __len__(self) -> int:
        return int(self.index.shape[0])

    @property
    def total_samples(self) -> int:
        """Candidate items across the whole stream."""
        return int(self.size.sum())

    @classmethod
    def from_queries(cls, queries) -> "QueryArrays":
        """Columnize a sequence of :class:`Query` objects (one pass)."""
        n = len(queries)
        tenants: list[str] = [""]
        codes_of: dict[str, int] = {"": 0}
        index = np.empty(n, dtype=np.int64)
        size = np.empty(n, dtype=np.int64)
        arrival = np.empty(n, dtype=np.float64)
        tenant_codes = np.zeros(n, dtype=np.int32)
        user = np.empty(n, dtype=np.int64)
        for i, q in enumerate(queries):
            index[i] = q.index
            size[i] = q.size
            arrival[i] = q.arrival_s
            user[i] = q.user
            if q.tenant:
                code = codes_of.get(q.tenant)
                if code is None:
                    code = len(tenants)
                    codes_of[q.tenant] = code
                    tenants.append(q.tenant)
                tenant_codes[i] = code
        return cls(
            index=index, size=size, arrival_s=arrival,
            tenant_codes=tenant_codes, tenants=tuple(tenants), user=user,
        )

    def to_queries(self) -> list[Query]:
        """Materialize the stream as :class:`Query` objects."""
        tenants = self.tenants
        return [
            Query(index=i, size=s, arrival_s=a, tenant=tenants[c], user=u)
            for i, s, a, c, u in zip(
                self.index.tolist(), self.size.tolist(),
                self.arrival_s.tolist(), self.tenant_codes.tolist(),
                self.user.tolist(),
            )
        ]


@dataclass
class QuerySet:
    queries: list[Query] = field(default_factory=list)
    # Cached column view; generators that build queries *from* arrays
    # attach it up front so as_arrays() skips the object round-trip.
    _arrays: QueryArrays | None = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    @property
    def total_samples(self) -> int:
        return sum(q.size for q in self.queries)

    @property
    def sizes(self) -> np.ndarray:
        return np.array([q.size for q in self.queries])

    def mean_size(self) -> float:
        return float(self.sizes.mean()) if self.queries else 0.0

    def as_arrays(self) -> QueryArrays:
        """The stream as a :class:`QueryArrays` column view (cached).

        Query sets built by :func:`generate_query_set` carry the arrays
        they were generated from, so this is free for them; sets built
        from explicit :class:`Query` lists columnize once on demand.
        """
        if self._arrays is None:
            self._arrays = QueryArrays.from_queries(self.queries)
        return self._arrays


def lognormal_sizes(
    n_queries: int,
    mean_size: float,
    sigma: float = 1.0,
    rng: np.random.Generator | None = None,
    max_size: int = MAX_QUERY_SIZE,
) -> np.ndarray:
    """Lognormal query sizes with the requested arithmetic mean."""
    if mean_size < 1:
        raise ValueError("mean query size must be >= 1")
    rng = rng or np.random.default_rng(0)
    # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2)  =>  solve for mu.
    mu = np.log(mean_size) - sigma**2 / 2.0
    sizes = rng.lognormal(mean=mu, sigma=sigma, size=n_queries)
    return np.clip(np.round(sizes), 1, max_size).astype(np.int64)


def arrival_times(
    n_queries: int,
    qps: float,
    rng: np.random.Generator | None = None,
    process: str = "poisson",
    **process_kwargs,
) -> np.ndarray:
    """Arrival timestamps for ``n_queries`` at the target rate.

    ``process_kwargs`` forward to the named process generator (e.g.
    ``amplitude`` / ``period_s`` for ``diurnal``, ``burst_factor`` /
    ``duty`` for ``mmpp``, ``spike_factor`` for ``flash-crowd``).

    Every process draws in batched numpy chunks rather than one RNG call
    per query — per-query draws dominate scenario construction at 100k+
    queries; the speedup is pinned in
    ``benchmarks/test_workload_generation.py``.
    """
    if qps <= 0:
        raise ValueError("qps must be positive")
    rng = rng or np.random.default_rng(0)
    if process == "diurnal":
        return _diurnal_arrivals(n_queries, qps, rng, **process_kwargs)
    if process in ("mmpp", "bursty"):
        return _mmpp_arrivals(n_queries, qps, rng, **process_kwargs)
    if process == "flash-crowd":
        return _flash_crowd_arrivals(n_queries, qps, rng, **process_kwargs)
    if process_kwargs:
        raise ValueError(
            f"process {process!r} takes no extra parameters, "
            f"got {sorted(process_kwargs)}"
        )
    if process == "poisson":
        gaps = rng.exponential(scale=1.0 / qps, size=n_queries)
        return np.cumsum(gaps)
    if process == "uniform":
        return np.arange(1, n_queries + 1) / qps
    raise ValueError(f"unknown arrival process {process!r}")


def _thinned_arrivals(n_queries, peak_rate, rng, accept) -> np.ndarray:
    """Thinning against ``peak_rate``, drawn in bulk chunks.

    ``accept(candidates) -> bool mask`` implements the inhomogeneous
    acceptance test. Each round oversamples candidate points at the peak
    rate, accepts in one vectorized pass, and keeps going from the last
    *candidate* (accepted or not — the thinning process must not restart
    mid-stream).
    """
    times = np.empty(n_queries)
    count = 0
    t = 0.0
    while count < n_queries:
        chunk = max(4096, int(1.5 * (n_queries - count)))
        candidates = t + np.cumsum(
            rng.exponential(1.0 / peak_rate, size=chunk)
        )
        accepted = candidates[accept(candidates, rng)]
        take = min(n_queries - count, accepted.size)
        times[count:count + take] = accepted[:take]
        count += take
        t = candidates[-1]
    return times


def _diurnal_arrivals(
    n_queries: int,
    mean_qps: float,
    rng: np.random.Generator,
    period_s: float = 10.0,
    amplitude: float = 0.6,
    phase_s: float = 0.0,
) -> np.ndarray:
    """Inhomogeneous Poisson arrivals with a sinusoidal rate.

    Production recommendation traffic follows diurnal cycles (the load
    pattern Hercules provisions for — Section 7); ``period_s`` compresses a
    day into a simulable window. Rate(t) = mean * (1 + amplitude*sin(...)),
    sampled by vectorized thinning against the peak rate.

    ``phase_s`` shifts the whole cycle earlier in time: a stream with
    ``phase_s = period_s / 2`` peaks half a day away from an unshifted
    one.  Follow-the-sun geo scenarios stagger one stream per region this
    way (:func:`merge_query_arrays` then interleaves them), so each
    region's peak lands in another's trough.
    """
    if not 0 <= amplitude < 1:
        raise ValueError("amplitude must be in [0, 1)")
    peak = mean_qps * (1.0 + amplitude)

    def accept(candidates, rng):
        rate = mean_qps * (
            1.0
            + amplitude * np.sin(2 * np.pi * (candidates + phase_s) / period_s)
        )
        return rng.random(candidates.size) < rate / peak

    return _thinned_arrivals(n_queries, peak, rng, accept)


def _mmpp_arrivals(
    n_queries: int,
    mean_qps: float,
    rng: np.random.Generator,
    burst_factor: float = 4.0,
    duty: float = 0.2,
    mean_dwell_s: float = 1.0,
) -> np.ndarray:
    """Two-state MMPP (on-off) arrivals with the requested long-run rate.

    The process spends a ``duty`` fraction of time in a burst state at
    ``burst_factor`` times the mean rate and the rest at a calm rate chosen
    so the time-weighted average stays ``mean_qps``. Dwell times in each
    state are exponential with mean ``mean_dwell_s`` scaled by the state's
    long-run share.

    Sampling is vectorized per dwell interval: within a window of length
    ``L`` at rate ``r`` the arrival count is Poisson(``rL``) and the
    points are sorted uniforms — one bulk draw per state visit instead of
    one exponential per arrival.
    """
    if burst_factor <= 1.0:
        raise ValueError("burst_factor must exceed 1")
    if not 0.0 < duty < 1.0:
        raise ValueError("duty must be in (0, 1)")
    if duty * burst_factor >= 1.0:
        raise ValueError("duty * burst_factor must stay below 1 so the calm "
                         "rate remains positive")
    if n_queries <= 0:
        return np.empty(0)
    rate_high = burst_factor * mean_qps
    rate_low = mean_qps * (1.0 - duty * burst_factor) / (1.0 - duty)
    dwell_high = mean_dwell_s * duty
    dwell_low = mean_dwell_s * (1.0 - duty)
    chunks: list[np.ndarray] = []
    total = 0
    t = 0.0
    bursting = False
    while total < n_queries:
        dwell = rng.exponential(dwell_high if bursting else dwell_low)
        rate = rate_high if bursting else rate_low
        k = rng.poisson(rate * dwell)
        if k:
            chunks.append(t + dwell * np.sort(rng.random(k)))
            total += k
        t += dwell
        bursting = not bursting
    return np.concatenate(chunks)[:n_queries]


def _flash_crowd_arrivals(
    n_queries: int,
    base_qps: float,
    rng: np.random.Generator,
    spike_factor: float = 5.0,
    spike_start_frac: float = 0.5,
    spike_duration_frac: float = 0.1,
) -> np.ndarray:
    """Baseline Poisson traffic with one multiplicative spike window.

    The spike is placed relative to the nominal (pre-spike) horizon
    ``n_queries / base_qps`` and sampled by vectorized thinning against
    the peak rate.
    """
    if spike_factor < 1.0:
        raise ValueError("spike_factor must be >= 1")
    horizon = n_queries / base_qps
    spike_start = spike_start_frac * horizon
    spike_end = spike_start + spike_duration_frac * horizon

    def accept(candidates, rng):
        in_spike = (candidates >= spike_start) & (candidates < spike_end)
        return in_spike | (rng.random(candidates.size) < 1.0 / spike_factor)

    return _thinned_arrivals(n_queries, base_qps * spike_factor, rng, accept)


def generate_query_arrays(
    n_queries: int = 10_000,
    mean_size: float = 128.0,
    qps: float = 1000.0,
    sigma: float = 1.0,
    seed: int = 0,
    process: str = "poisson",
    tenant: str = "",
    **process_kwargs,
) -> QueryArrays:
    """Generate a query stream directly in column form.

    Draws the exact same sizes and arrivals as :func:`generate_query_set`
    (same RNG, same order) but never materializes per-query objects —
    the form the array fast path consumes, and the only practical way to
    stage 10M+-query day-scale streams.
    """
    rng = np.random.default_rng(seed)
    sizes = lognormal_sizes(n_queries, mean_size, sigma=sigma, rng=rng)
    arrivals = arrival_times(
        n_queries, qps, rng=rng, process=process, **process_kwargs
    )
    tenants = ("", tenant) if tenant else ("",)
    index, size, arrival_s, user, tenant_codes = _stream_columns(n_queries)
    index[:] = np.arange(n_queries, dtype=np.int64)
    size[:] = sizes
    arrival_s[:] = arrivals
    user.fill(-1)
    tenant_codes.fill(len(tenants) - 1)
    return QueryArrays(
        index=index, size=size, arrival_s=arrival_s,
        tenant_codes=tenant_codes, tenants=tenants, user=user,
    )


def _stream_columns(n: int) -> tuple[np.ndarray, ...]:
    """Uninitialised ``index``, ``size``, ``arrival_s``, ``user`` and
    ``tenant_codes`` columns for ``n`` queries, cut from one buffer.

    A stream's columns live and die together, so they share one
    allocation. From about 0.9M queries on, the buffer exceeds 32 MiB,
    and glibc's malloc gives any request that large its own mapping and
    unmaps it on free. Separate column buffers (16 MB each at 2M
    queries) would come from the heap instead, where one allocation that
    outlives the stream and lies above them keeps them resident after
    the stream is freed: each stream generated after the first would
    then raise the process's memory high-water mark. The 8-byte columns
    come first, so every column starts aligned.
    """
    block = np.empty(36 * n, dtype=np.uint8)
    return (
        block[: 8 * n].view(np.int64),
        block[8 * n:16 * n].view(np.int64),
        block[16 * n:24 * n].view(np.float64),
        block[24 * n:32 * n].view(np.int64),
        block[32 * n:].view(np.int32),
    )


def merge_query_arrays(
    streams: list[QueryArrays],
) -> tuple[QueryArrays, np.ndarray]:
    """Interleave per-source column streams into one arrival-ordered stream.

    The multi-region analogue of :meth:`~repro.serving.workload.
    ServingScenario.multi_tenant`'s merge, kept in column form: queries
    from every stream are merged by arrival time (ties broken by source
    order, so the merge is deterministic), re-indexed globally ``0..n-1``,
    and returned together with a parallel ``source_ids`` array saying
    which input stream each merged query came from — the per-query home
    region a :class:`~repro.serving.region.RegionSimulator` routes by.

    Tenant tags are preserved (codes are re-mapped into the merged tenant
    table); ``user`` keys pass through unchanged.
    """
    if not streams:
        raise ValueError("need at least one stream to merge")
    sizes = np.concatenate([s.size for s in streams])
    arrivals = np.concatenate([s.arrival_s for s in streams])
    users = np.concatenate([s.user for s in streams])
    source_ids = np.concatenate(
        [np.full(len(s), i, dtype=np.int64) for i, s in enumerate(streams)]
    )
    tenants: list[str] = [""]
    codes_of: dict[str, int] = {"": 0}
    code_chunks = []
    for stream in streams:
        remap = np.empty(len(stream.tenants), dtype=np.int32)
        for local_code, name in enumerate(stream.tenants):
            merged_code = codes_of.get(name)
            if merged_code is None:
                merged_code = codes_of[name] = len(tenants)
                tenants.append(name)
            remap[local_code] = merged_code
        code_chunks.append(remap[stream.tenant_codes])
    tenant_codes = np.concatenate(code_chunks)
    # Stable sort: simultaneous arrivals keep source order, then each
    # source's own submission order — deterministic and testable.
    order = np.argsort(arrivals, kind="stable")
    n = sizes.shape[0]
    return (
        QueryArrays(
            index=np.arange(n, dtype=np.int64),
            size=sizes[order],
            arrival_s=arrivals[order],
            tenant_codes=tenant_codes[order],
            tenants=tuple(tenants),
            user=users[order],
        ),
        source_ids[order],
    )


def generate_query_set(
    n_queries: int = 10_000,
    mean_size: float = 128.0,
    qps: float = 1000.0,
    sigma: float = 1.0,
    seed: int = 0,
    process: str = "poisson",
    tenant: str = "",
    **process_kwargs,
) -> QuerySet:
    """The paper's default workload: 10K lognormal queries, mean 128, 1000 QPS."""
    arrays = generate_query_arrays(
        n_queries, mean_size, qps, sigma=sigma, seed=seed, process=process,
        tenant=tenant, **process_kwargs,
    )
    # tolist() once: plain python scalars construct far faster than
    # per-element numpy indexing at 100k+ queries.
    queries = [
        Query(index=i, size=size, arrival_s=arrival, tenant=tenant)
        for i, (size, arrival) in enumerate(
            zip(arrays.size.tolist(), arrays.arrival_s.tolist())
        )
    ]
    return QuerySet(queries=queries, _arrays=arrays)
