#!/usr/bin/env python
"""Paired parent/change runs of the perf benchmark, summarised per metric.

Runs ``perfbench/run.py``'s ``main()`` in a child process from each of
two checkouts, alternating which side goes first from pair to pair (pair
0 runs the parent first), at one seed and one ``--seconds``. Each run's
last stdout line is the benchmark's JSON verdict; its fingerprint note is
kept to check that both sides simulated the same outcomes.

``run.py`` resets the RSS high-water mark by writing
``/proc/self/clear_refs``. Where that write is refused, the child makes
the reset a no-op and says so, and ``setup_rss_mb`` / ``peak_rss_mb``
become process high-water marks on both sides; ``--no-rss-reset`` makes
it a no-op from the start.

For every end-to-end metric of ``BENCHMARK.json`` the summary prints the
median [q1, q3] per side (inclusive quartiles), the pairs the change won
and the median difference against the parent's quartile distance. The
runs are written in the ``BENCH_<pr>.json`` shape; an existing file
keeps its other entries, and an entry for the same workload and seed is
replaced.

    python scripts/bench_pairs.py --parent ../parent --workload geo-failover \\
        --seed 1 --pairs 10 --seconds 20 --out BENCH_30.json --pr 30

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The child: import run.py as a module, guard its RSS reset, run main().
CHILD = """
import sys
sys.path.insert(0, "perfbench")
import run

reset = run.reset_rss_peak

def guarded():
    global reset
    try:
        reset()
    except OSError as exc:
        print(f"# rss reset: no-op ({{exc.__class__.__name__}})", flush=True)
        reset = lambda: None

run.reset_rss_peak = (lambda: None) if {no_reset} else guarded
if {no_reset}:
    print("# rss reset: no-op (--no-rss-reset)", flush=True)
sys.exit(run.main({argv!r}))
"""


def run_once(checkout: pathlib.Path, argv: list[str], no_reset: bool) -> dict:
    """One benchmark run in ``checkout``: its verdict, fingerprint and
    whether the RSS reset was a no-op."""
    code = CHILD.format(argv=argv, no_reset=no_reset)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=checkout, capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    fingerprint = next(
        (ln.split(":", 1)[1].strip() for ln in lines
         if ln.strip().startswith("# fingerprint:")), None,
    )
    return {
        "last_line": last,
        "fingerprint": fingerprint,
        "rss_reset_noop": any(ln.startswith("# rss reset: no-op")
                              for ln in lines),
        "exit": proc.returncode,
    }


def quartiles(values: list[float]) -> dict:
    """Median and inclusive quartiles of ``values``."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-side quartiles, wins, median difference and the parent's IQR
    for each end-to-end metric, over ``runs`` (dicts with ``pair``,
    ``side`` and ``last_line``) and ``metrics`` (``BENCHMARK.json``'s
    ``end_to_end`` entries)."""
    pairs: dict[int, dict] = {}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["side"]] = r["last_line"]["metrics"]
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        both = [
            (p["parent"][name]["value"], p["change"][name]["value"])
            for _, p in sorted(pairs.items())
            if name in p.get("parent", {}) and name in p.get("change", {})
        ]
        if not both:
            continue
        parent = quartiles([a for a, _ in both])
        change = quartiles([b for _, b in both])
        wins = sum((b > a) if higher else (b < a) for a, b in both)
        out[name] = {
            "better": m["better"], "parent": parent, "change": change,
            "wins": wins, "pairs": len(both),
            "median_diff": change["median"] - parent["median"],
            "median_ratio": (change["median"] / parent["median"]
                             if parent["median"] else None),
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    return out


def format_summary(workload: str, seed: int, summary: dict) -> list[str]:
    """One line per metric: medians [q1, q3], wins, and the median
    difference against the parent's IQR, marked when it is larger."""
    lines = [f"== {workload} (seed {seed}) =="]
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        diff = s["median_diff"]
        mark = ""
        if abs(diff) > s["parent_iqr"]:
            better = diff > 0 if s["better"] == "higher" else diff < 0
            mark = f" ({'better' if better else 'worse'} beyond parent IQR)"
        lines.append(
            f"  {name:<28} parent {p['median']:.6g} [{p['q1']:.6g}, "
            f"{p['q3']:.6g}]  change {c['median']:.6g} [{c['q1']:.6g}, "
            f"{c['q3']:.6g}]  wins {s['wins']}/{s['pairs']}  "
            f"diff {diff:+.6g} vs parent IQR {s['parent_iqr']:.6g}{mark}"
        )
    return lines


def entry(workload: str, seed: int, runs: list[dict], metrics: list[dict],
          claimed: bool) -> dict:
    """One workload's record in the ``BENCH_<pr>.json`` shape."""
    summary = summarise(runs, metrics)
    qps = summary.get("sim_qps")
    prints = {r["side"]: set() for r in runs}
    for r in runs:
        prints[r["side"]].add(r.get("fingerprint"))
    return {
        "workload": workload, "seed": seed, "claimed": claimed,
        "sim_qps_wins": f"{qps['wins']}/{qps['pairs']}" if qps else None,
        "sim_qps_median_ratio": qps["median_ratio"] if qps else None,
        "sim_qps_median_diff": qps["median_diff"] if qps else None,
        "parent_iqr": qps["parent_iqr"] if qps else None,
        "failed_runs": sum(
            1 for r in runs
            if r["last_line"].get("failed") or not r["last_line"].get("correct")
        ),
        "fingerprints_equal": len(prints.get("parent", set())
                                  | prints.get("change", set())) == 1,
        "rss_reset_noop": any(r.get("rss_reset_noop") for r in runs),
        "summary": {
            side: {name: s[side] for name, s in summary.items()}
            for side in ("parent", "change")
        },
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path)
    parser.add_argument("--change", default=ROOT, type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument("--pr", type=int, default=None)
    parser.add_argument("--claim", default=None,
                        help="the claimed metric, e.g. 'geo-failover sim_qps'")
    parser.add_argument("--no-rss-reset", action="store_true")
    args = parser.parse_args(argv)

    metrics = json.loads((args.change / "BENCHMARK.json").read_text())[
        "end_to_end"
    ]
    bench_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], bench_argv, args.no_rss_reset)
            runs.append({"pair": pair, "side": side, **result})
            qps = result["last_line"]["metrics"].get("sim_qps", {})
            print(f"pair {pair} {side:<6} sim_qps {qps.get('value', 0):.6g}"
                  f" exit {result['exit']}", flush=True)
    claimed = args.claim == f"{args.workload} sim_qps"
    record = entry(args.workload, args.seed, runs, metrics, claimed)
    print("\n".join(format_summary(args.workload, args.seed,
                                   summarise(runs, metrics))))
    if record["rss_reset_noop"]:
        print("# rss reset was a no-op: RSS metrics are process high-water "
              "marks on both sides")
    if args.out is not None:
        doc = {}
        if args.out.exists():
            doc = json.loads(args.out.read_text())
        doc.setdefault("pr", args.pr)
        if args.claim:
            doc["claim"] = args.claim
        doc.setdefault(
            "command", "python3 perfbench/run.py --workload <workload> "
            f"--seed <seed> --seconds {args.seconds:g}",
        )
        doc.setdefault(
            "protocol", "alternating pairs from two checkouts; even pairs "
            "run the parent first, odd pairs the change first "
            "(scripts/bench_pairs.py); quartiles are inclusive",
        )
        doc.setdefault("host", f"{platform.system()} {platform.machine()}, "
                               f"Python {platform.python_version()}")
        kept = [w for w in doc.get("workloads", [])
                if (w["workload"], w["seed"]) != (args.workload, args.seed)]
        doc["workloads"] = kept + [record]
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
