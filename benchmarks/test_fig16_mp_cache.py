"""Figure 16: MP-Cache analysis — real numpy execution on the host CPU.

Paper: (a) ID access frequencies follow a power law (hot rows of Kaggle's
largest table see 10K+ accesses); (b) a 2 KB encoder cache already yields
1.57x, a 2 MB cache 1.92x, and the decoder's centroid/kNN tier closes the
~5x encoder-decoder vs. table gap.

This bench *measures wall-clock* on the numpy DHE stack (the one place the
host CPU is the actual device under test) and also reports the analytical
model's cache effect. Ablation rows cover encoder-only / decoder-only /
both, and the centroid-count sweep. Each speedup is the median over
``ROUNDS`` rounds, and each round times the exact stack and then every
variant back to back, so a burst of load from elsewhere on the host
skews one round instead of deciding a check.
"""

import time

import numpy as np
from conftest import fmt_row

from repro.core.cached_inference import CachedDHE
from repro.core.mp_cache import DecoderCentroidCache, EncoderCache
from repro.data.zipf import ZipfSampler
from repro.embeddings.dhe import DHEEmbedding

DIM = 16
N_IDS = 1_000_000  # stand-in for Kaggle's 10M-row hottest table
ALPHA = 1.15
BATCHES = 30
BATCH_SIZE = 512
ROUNDS = 5


def wall_clock(fn, ids_stream) -> float:
    start = time.perf_counter()
    for ids in ids_stream:
        fn(ids)
    return time.perf_counter() - start


def median_speedups(exact, variants, stream):
    """Median exact-stack seconds, and each variant's median speedup."""
    exact_s, ratios = [], {label: [] for label in variants}
    for _ in range(ROUNDS):
        t_exact = wall_clock(exact, stream)
        exact_s.append(t_exact)
        for label, fn in variants.items():
            ratios[label].append(t_exact / wall_clock(fn, stream))
    return float(np.median(exact_s)), {
        label: float(np.median(r)) for label, r in ratios.items()
    }


def build(rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    dhe = DHEEmbedding(dim=DIM, k=256, dnn=256, h=2, rng=rng)
    sampler = ZipfSampler(N_IDS, alpha=ALPHA, seed=1)
    stream = [sampler.sample(BATCH_SIZE) for _ in range(BATCHES)]
    return dhe, sampler, stream


def run_fig16():
    dhe, sampler, stream = build()

    # (a) power-law access counts.
    counts = np.bincount(np.concatenate(stream), minlength=N_IDS)
    top = np.sort(counts)[::-1]

    variants, generate = {}, {}
    for label, enc_bytes, n_centroids in (
        ("encoder-2KB", 2 * 1024, None),
        ("encoder-2MB", 2 * 1024 * 1024, None),
        ("decoder-only-N256", None, 256),
        ("both-2MB-N256", 2 * 1024 * 1024, 256),
        ("both-2MB-N64", 2 * 1024 * 1024, 64),
    ):
        cached = CachedDHE(
            dhe,
            encoder_cache=EncoderCache(enc_bytes, DIM) if enc_bytes else None,
            decoder_cache=(
                DecoderCentroidCache(n_centroids, seed=0) if n_centroids else None
            ),
        )
        cached.warm(sampler, profile_samples=2048)
        # One untimed pass: the hit rate covers this pass and the error
        # sample, and the timed rounds below start warm.
        wall_clock(cached.generate, stream)
        error = cached.approximation_error(sampler.sample(512))
        hit = (
            cached.encoder_cache.observed_hit_rate if cached.encoder_cache else 0.0
        )
        variants[label] = {"hit_rate": hit, "rel_error": error}
        generate[label] = cached.generate
    t_exact, speedups = median_speedups(dhe, generate, stream)
    for label, speedup in speedups.items():
        variants[label]["speedup"] = speedup
    return top, t_exact, variants


def test_fig16_mp_cache(benchmark, record):
    top, t_exact, variants = benchmark.pedantic(run_fig16, rounds=1, iterations=1)

    # Hit rates and approximation errors are deterministic (seeded model
    # + traffic); the measured wall-clock speedups are not and live in
    # the untracked raw record, with their pinned bands as checks.
    lines = [
        "-- (a) access frequency (power law) --",
        fmt_row("hottest id", count=int(top[0])),
        fmt_row("rank-100 id", count=int(top[99])),
        fmt_row("median id", count=int(np.median(top))),
        "-- (b) cache tiers: residency and approximation (deterministic) --",
    ]
    for label, row in variants.items():
        lines.append(fmt_row(
            label, hit_rate=row["hit_rate"], rel_error=row["rel_error"],
        ))
    lines.append("paper anchors: 2KB -> 1.57x, 2MB -> 1.92x; decoder kNN "
                 "closes the remaining gap")
    volatile = [
        "-- measured wall-clock vs exact encoder-decoder stack --",
        fmt_row("exact stack", seconds=t_exact),
    ]
    for label, row in variants.items():
        volatile.append(fmt_row(label, speedup=row["speedup"]))

    small, large = variants["encoder-2KB"], variants["encoder-2MB"]
    dec = variants["decoder-only-N256"]
    both = variants["both-2MB-N256"]
    coarse = variants["both-2MB-N64"]
    checks = [
        ("encoder-2KB speedup > 1.1x", small["speedup"] > 1.1),
        ("encoder cache speedup grows with capacity",
         small["speedup"] < large["speedup"]),
        ("encoder-2MB speedup > 1.4x", large["speedup"] > 1.4),
        ("decoder kNN tier alone > 1.2x", dec["speedup"] > 1.2),
        ("both tiers >= each tier alone",
         both["speedup"] >= large["speedup"]
         and both["speedup"] >= dec["speedup"]),
    ]
    record(
        "Figure 16: MP-Cache analysis", lines, volatile=volatile,
        checks=checks,
    )

    # (a) Power law: the hot head dwarfs the median (paper: 10K+ vs ~1).
    assert top[0] > 50 * max(1, np.median(top))
    # (b) The pinned wall-clock bands, enforced.
    assert all(ok for _, ok in checks), checks
    # Encoder-tier outputs are exact.
    assert small["rel_error"] < 1e-9
    assert large["hit_rate"] > small["hit_rate"]
    # Decoder approximation error is bounded; fewer centroids -> coarser.
    assert dec["rel_error"] < 0.9
    assert coarse["rel_error"] >= both["rel_error"] * 0.8
