"""Serving-simulator benchmark: one command, named metrics, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload node-kernel --seed 1 --seconds 10
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload geo-failover --trace 1

Each workload is set up several times (``setup_s`` is the fastest), run
once as a discarded warm-up, then repeated for ``--seconds`` of timed
work (``sim_qps`` is from the fastest repetition). Every repetition is checked: conservation laws, the workload's own
layer exercised, and the result fingerprint. ``--trace 1`` runs the
workload untraced and then traced, and reports the per-layer split
instead of the end-to-end metrics. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every repetition passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
MIN_SETUPS, MAX_SETUPS = 2, 10
SETUP_SECONDS = 1.0
SETUP_SHARE = 0.1
MIN_REPS = 3
MIN_TRACE_REPS = 2
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SIM_UNITS = {
    "sim_sla_met_ratio": "ratio",
    "sim_violation_rate": "ratio",
    "sim_compliant_correct_tput": "samples/s",
    "sim_p99_latency_ms": "ms",
}


# ---- memory --------------------------------------------------------------


def reset_rss_peak() -> None:
    """Reset the kernel's RSS high-water mark to the current RSS."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def rss_peak_mb() -> float:
    """``VmHWM``: the RSS high-water mark since the last reset, in MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


# ---- fingerprints --------------------------------------------------------


def _canonical(value):
    if isinstance(value, float):
        # ~9 significant digits: a summation-order fix is not a
        # behaviour change.
        return float(f"{value:.9g}")
    return int(value)


def fingerprint(summary: dict, counters: dict) -> str:
    """Hash of ``summary()`` (rounded floats) plus exact integer counters."""
    payload = json.dumps(
        {
            "summary": {k: _canonical(v) for k, v in summary.items()},
            "counters": {k: int(v) for k, v in counters.items()},
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def committed_fingerprint(workload: str, seed: int) -> str | None:
    """The committed fingerprint; only the default seed has one."""
    committed = json.loads(FINGERPRINTS.read_text())
    if seed != committed["seed"]:
        return None
    return committed["fingerprints"][workload]


# ---- repetitions ---------------------------------------------------------


def sim_metrics(result) -> dict:
    """The simulated outcomes (deterministic for a fixed seed)."""
    return {
        "sim_sla_met_ratio": 1.0 - result.violation_rate,
        "sim_violation_rate": result.violation_rate,
        "sim_compliant_correct_tput": result.compliant_correct_throughput,
        "sim_p99_latency_ms": result.p99_latency_s * 1e3,
    }


class Repetitions:
    """Repetitions of one set-up workload, each timed and then checked."""

    def __init__(self, workload, state: dict, expected: str | None) -> None:
        self.workload = workload
        self.state = state
        self.expected = expected
        self.fingerprints: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.sim: dict = {}
        self.counters: dict = {}

    def run(self) -> float | None:
        """One checked repetition; its wall time, or None if it raised."""
        self.attempted += 1
        gc.collect()
        try:
            t0 = time.perf_counter()
            outcome = self.workload.run(self.state)
            elapsed = time.perf_counter() - t0
        except Exception:  # a raising repetition is a failed repetition
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=4))
            return None
        problems = self.workload.check(self.state, outcome)
        counters = self.workload.counters(outcome)
        fp = fingerprint(outcome.summary, counters)
        if self.fingerprints and fp != self.fingerprints[0]:
            problems.append(
                f"fingerprint {fp} != first repetition's {self.fingerprints[0]}"
            )
        if self.expected is not None and fp != self.expected:
            problems.append(f"fingerprint {fp} != committed {self.expected}")
        self.fingerprints.append(fp)
        if not self.sim:
            self.sim = sim_metrics(self.workload.serving(outcome))
            self.counters = counters
        if problems:
            self.failed += 1
            self.failures.extend(problems)
        return elapsed

    def timed(self, seconds: float, min_reps: int) -> list[float]:
        """Repeat until ``seconds`` of timed work and ``min_reps`` are done;
        stops early if a repetition raises."""
        times: list[float] = []
        while sum(times) < seconds or len(times) < min_reps:
            elapsed = self.run()
            if elapsed is None:
                break
            times.append(elapsed)
        return times


def timed_setup(workload, seed: int) -> tuple[dict, float]:
    """One set-up and its wall time."""
    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup(seed)
    return state, time.perf_counter() - t0


def set_up(workload, seed: int, clock):
    """Set the workload up at least twice, and until the set-ups took
    ``SETUP_SECONDS`` (at most ``MAX_SETUPS``); keep the last state.

    Returns the state, the set-ups' wall and corrected times, and their
    RSS high-water marks."""
    walls, times, peaks = [], [], []
    state = None
    while len(walls) < MAX_SETUPS and (
        len(walls) < MIN_SETUPS or sum(walls) < SETUP_SECONDS
    ):
        state = None  # free the previous set-up before measuring the next
        gc.collect()
        reset_rss_peak()
        state, wall = timed_setup(workload, seed)
        peaks.append(rss_peak_mb())
        walls.append(wall)
        times.append(clock.correct(wall))
    return state, walls, times, peaks


def _walls(times: list[float]) -> str:
    return ", ".join(f"{t:.3f}" for t in times)


def measure(workload, seed: int, seconds: float):
    """The untraced run: every end-to-end metric.

    Times are corrected by a ``HostClock`` (see ``hostclock.py``) and
    reported as medians; the raw wall times are printed alongside."""
    from hostclock import HostClock

    clock = HostClock()
    state, setup_walls, setup_times, setup_peaks = set_up(
        workload, seed, clock
    )
    reps = Repetitions(
        workload, state, committed_fingerprint(workload.name, seed)
    )
    n_initial = len(setup_walls)
    warmup_s = reps.run()
    if warmup_s is not None:
        warmup_s = clock.correct(warmup_s)
    walls, times, peaks = [], [], []
    while warmup_s is not None and (
        sum(walls) < seconds or len(walls) < MIN_REPS
    ):
        reset_rss_peak()
        wall = reps.run()
        peaks.append(rss_peak_mb())
        if wall is None:
            break
        walls.append(wall)
        times.append(clock.correct(wall))
        # A cheap set-up is repeated between the repetitions too, so the
        # set-up times are drawn from the whole run, as sim_qps's are.
        if sum(setup_walls) < SETUP_SHARE * sum(walls):
            wall = timed_setup(workload, seed)[1]
            setup_walls.append(wall)
            setup_times.append(clock.correct(wall))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "setup_rss_mb": (statistics.median(setup_peaks), "MB"),
    }
    if times:
        n = state["n"]
        metrics.update({
            "sim_qps": (n / statistics.median(times), "queries/s"),
            "sim_qps_wall_median": (n / statistics.median(walls),
                                    "queries/s"),
            "sim_qps_wall_best": (n / min(walls), "queries/s"),
            "peak_rss_mb": (max(peaks), "MB"),
            "warmup_s": (warmup_s, "s"),
        })
    metrics.update({k: (v, SIM_UNITS[k]) for k, v in reps.sim.items()})
    notes = [
        f"queries per repetition: {state['n']}",
        f"sim_qps: median of {len(times)} timed repetitions "
        f"(corrected s: {_walls(times)}; wall s: {_walls(walls)})",
        f"setup_s: median of {len(setup_times)} set-ups, "
        f"{len(setup_times) - n_initial} of them between repetitions "
        f"(corrected s: {_walls(setup_times)}; wall s: {_walls(setup_walls)})",
        f"setup_rss_mb: median of the first {n_initial} set-ups",
        clock.speed_note(),
        f"ops_failed_share: {reps.failed}/{reps.attempted} repetitions "
        "(warm-up included)",
    ]
    return metrics, reps, notes


def measure_traced(workload, seed: int, seconds: float):
    """The traced run: untraced repetitions, then traced ones."""
    import spans
    import workloads

    leaked: list[str] = []
    setup_tracer = spans.Tracer()
    installed = spans.install(setup_tracer, workloads)
    try:
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_wall = time.perf_counter() - t0
    finally:
        leaked += spans.remove(installed)
    reps = Repetitions(
        workload, state, committed_fingerprint(workload.name, seed)
    )
    reps.run()  # warm-up
    plain = reps.timed(seconds / 2, MIN_TRACE_REPS)

    tracer = spans.Tracer(record_spans=True)
    installed = spans.install(tracer, workloads)
    traced: list[float] = []
    dump: list[tuple] = []
    try:
        while sum(traced) < seconds / 2 or len(traced) < MIN_TRACE_REPS:
            elapsed = reps.run()
            if elapsed is None:
                break
            traced.append(elapsed)
            if tracer.spans is not None:
                dump, tracer.spans = tracer.spans, None
    finally:
        leaked += spans.remove(installed)
    if leaked:
        reps.failed += 1
        reps.failures.append(f"wrappers left installed: {leaked}")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{seed}.spans.jsonl.gz"
    spans.write_spans(dump, path)
    metrics = {}
    if plain and traced:
        qps_plain = state["n"] / statistics.median(plain)
        qps_traced = state["n"] / statistics.median(traced)
        metrics.update(spans.layer_metrics(tracer, len(traced), sum(traced)))
        metrics.update({
            "trace.rep_s": (statistics.median(traced), "s"),
            "trace.sim_qps_untraced": (qps_plain, "queries/s"),
            "trace.sim_qps_traced": (qps_traced, "queries/s"),
            "trace.overhead_ratio": (qps_plain / qps_traced - 1.0, "ratio"),
            "trace.spans": (len(dump), "count"),
        })
    metrics.update(spans.setup_metrics(setup_tracer, setup_wall))
    metrics["trace.setup_s"] = (setup_wall, "s")
    metrics.update(result_counters(reps.counters))
    notes = [
        f"untraced repetitions: {len(plain)} (wall s: {_walls(plain)})",
        f"traced repetitions: {len(traced)} (wall s: {_walls(traced)})",
        f"spans of the first traced repetition: {path.relative_to(ROOT)}",
        "traced fingerprints equal untraced: "
        f"{len(set(reps.fingerprints)) == 1}",
    ]
    return metrics, reps, notes


def result_counters(c: dict) -> dict:
    """Per-layer counts the façades keep themselves (``CacheStats`` etc.);
    node and WAN cache tiers are summed."""

    def total(*keys):
        return sum(c.get(k, 0) for k in keys)

    tiers = ("cache", "node_cache", "wan_cache")
    lookups = total(*(f"{t}_lookups" for t in tiers))
    hits = total(*(f"{t}_hits" for t in tiers))
    return {
        "serving.cache.lookups": (lookups, "count"),
        "serving.cache.hit_rate": (hits / lookups if lookups else 0.0, "ratio"),
        "serving.cache.fill_bytes": (
            total(*(f"{t}_fill_bytes" for t in tiers)), "bytes"
        ),
        "serving.controlplane.decisions": (total("decisions"), "count"),
        "core.switching.switches": (total("switches"), "count"),
        "serving.region.spills": (total("spills"), "count"),
        "serving.region.rehomed": (total("rehomed"), "count"),
        "serving.region.wan_bytes": (
            total("spill_bytes", "rehome_bytes", "wan_fill_bytes"), "bytes"
        ),
    }


# ---- entry point ---------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no simulator sources under {src}", file=sys.stderr)
        return 2
    # One process, one thread: pin the BLAS/OpenMP pools before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown}; have {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    listed = [
        m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
            "per_layer" if args.trace else "end_to_end"
        ]
    ]
    measure_one = measure_traced if args.trace else measure

    out: dict = {}
    attempted = failed = 0
    for name in names:
        metrics, reps, notes = measure_one(
            WORKLOADS[name], args.seed, args.seconds
        )
        missing = [key for key in listed if key not in metrics]
        if missing:
            reps.failed += 1
            reps.failures.append(f"metrics not produced: {missing}")
        attempted += reps.attempted
        failed += reps.failed
        print(f"== {name} (seed {args.seed}, trace {args.trace}) ==")
        for key, (value, unit) in metrics.items():
            print(f"  {key:<44} {value:>18.6g} {unit}")
        for note in notes:
            print(f"  # {note}")
        print(f"  # fingerprint: {reps.fingerprints[:1]}")
        for problem in reps.failures:
            print(f"  FAILED: {problem}")
        prefix = f"{name}." if len(names) > 1 else ""
        out.update({
            prefix + key: {"value": metrics[key][0], "unit": metrics[key][1]}
            for key in listed if key in metrics
        })
        del reps
        gc.collect()

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
