"""Pinned ``serve`` output: one fixed-seed run per mode, one argv per
rejection rule.

Every case runs :func:`repro.cli.main` in-process and records its exit
code, stdout and stderr.  The concatenation must equal the committed
golden file byte for byte, so any change to what ``serve`` prints shows
up as a reviewable diff of that file.  After an intended change,
regenerate it with ``make cli-golden`` (which runs this file as a
script) and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import pathlib

from repro.cli import _SERVE_RULES, _serve_facts, build_parser, main

GOLDEN = pathlib.Path(__file__).with_name("golden") / "serve.txt"

SMALL = ["--queries", "300", "--qps", "5000", "--max-batch", "8",
         "--batch-timeout-ms", "2", "--seed", "3"]
FLEET = ["--queries", "400", "--qps", "30000", "--nodes", "4",
         "--min-nodes", "2", "--replication", "2", "--max-batch", "8",
         "--batch-timeout-ms", "1", "--seed", "3"]

# One fixed-seed run per serve mode.
MODES = (
    ("event kernel", SMALL + ["--shed-policy", "drop-late"]),
    ("event kernel, streaming", SMALL + ["--streaming"]),
    ("fast path, streaming", SMALL + ["--fastpath", "--streaming"]),
    ("runtime switching", ["--queries", "300", "--qps", "2000",
                           "--switching", "--max-batch", "16",
                           "--batch-timeout-ms", "2", "--seed", "3"]),
    ("cluster failover, cache-affinity",
     ["--queries", "200", "--qps", "20000", "--nodes", "4",
      "--replication", "2", "--cache-mb", "8", "--router",
      "cache-affinity", "--fail-at", "0.002", "--fail-node", "1",
      "--max-batch", "8", "--seed", "3"]),
    ("autoscale", FLEET + ["--autoscale"]),
    ("autopilot", FLEET + ["--autopilot", "--trace-decisions", "4"]),
    ("regions, region failure",
     ["--regions", "3", "--nodes", "1", "--region-replication", "2",
      "--region-fail-at", "0.5", "--fail-region", "1", "--queries", "100",
      "--qps", "1500", "--sla-ms", "50", "--seed", "3"]),
)

# One argv per rejection rule of ``cmd_serve``, in the order the rules
# are checked.
REJECTIONS = (
    ("geo flags without --regions", ["--wan-link", "wan-metro",
                                     "--fail-region", "1"]),
    ("--regions without --nodes", ["--regions", "2"]),
    ("--regions with a per-cluster mode",
     ["--regions", "2", "--nodes", "1", "--switching", "--fail-node", "1"]),
    ("--regions with --arrivals",
     ["--regions", "2", "--nodes", "1", "--arrivals", "mmpp"]),
    ("negative --region-fail-at",
     ["--regions", "2", "--nodes", "1", "--region-fail-at", "-1",
      "--fail-region", "0"]),
    ("--region-fail-at without --fail-region",
     ["--regions", "2", "--nodes", "1", "--region-fail-at", "0.5"]),
    ("--fail-region out of range",
     ["--regions", "2", "--nodes", "1", "--region-fail-at", "0.5",
      "--fail-region", "2"]),
    ("--region-replication above --regions",
     ["--regions", "2", "--nodes", "1", "--region-replication", "3"]),
    ("--replication above per-region --nodes",
     ["--regions", "2", "--nodes", "1", "--replication", "2"]),
    ("--fastpath with event-kernel modes",
     ["--fastpath", "--switching", "--nodes", "2"]),
    ("--autopilot with --switching",
     ["--autopilot", "--switching", "--nodes", "2"]),
    ("--autopilot with --autoscale",
     ["--autopilot", "--autoscale", "--nodes", "2"]),
    ("--autopilot with --scheduler",
     ["--autopilot", "--nodes", "2", "--scheduler", "table-cpu"]),
    ("--autopilot with a stand-alone cooldown",
     ["--autopilot", "--nodes", "2", "--scale-cooldown", "100"]),
    ("--trace-decisions without --autopilot", ["--trace-decisions", "4"]),
    ("--switch-cooldown without --switching", ["--switch-cooldown", "100"]),
    ("--switching on a fleet", ["--switching", "--nodes", "2"]),
    ("--switching with --scheduler",
     ["--switching", "--scheduler", "table-cpu"]),
    ("--switching with the cache tier", ["--switching", "--cache-mb", "8"]),
    ("non-positive --cache-mb", ["--nodes", "2", "--cache-mb", "0"]),
    ("--cache-policy without --cache-mb",
     ["--nodes", "2", "--cache-policy", "lru"]),
    ("cache-affinity without --cache-mb",
     ["--nodes", "2", "--router", "cache-affinity"]),
    ("fleet flags without a fleet mode",
     ["--min-nodes", "2", "--max-nodes", "4"]),
    ("--nodes conflicts with --max-nodes",
     ["--autoscale", "--nodes", "4", "--max-nodes", "8"]),
    ("a 1-node fleet", ["--autopilot"]),
    ("--min-nodes above the ceiling",
     ["--autoscale", "--nodes", "4", "--min-nodes", "5"]),
    ("a fleet with the failure drill",
     ["--autoscale", "--nodes", "4", "--fail-at", "0.1"]),
    ("--replication above --min-nodes",
     ["--autoscale", "--nodes", "4", "--min-nodes", "2",
      "--replication", "3"]),
    ("--replication above --nodes", ["--nodes", "2", "--replication", "3"]),
    ("--fail-node out of range",
     ["--nodes", "2", "--fail-at", "0.1", "--fail-node", "2"]),
    ("--fail-node without --fail-at", ["--nodes", "2", "--fail-node", "1"]),
    ("cluster flags on one node",
     ["--fail-at", "0.5", "--router", "locality", "--link", "eth-25g"]),
)


def run_serve(argv: list[str]) -> str:
    """One ``serve`` invocation, rendered as a golden-file block."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["serve", *argv])
    return (
        f"$ repro serve {' '.join(argv)}\nexit {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


def render() -> str:
    """Every case, in order: the golden file's full text."""
    blocks = [
        f"== {name} ==\n{run_serve(argv)}" for name, argv in MODES
    ] + [
        f"== rejected: {name} ==\n{run_serve(argv + ['--queries', '10'])}"
        for name, argv in REJECTIONS
    ]
    return "\n".join(blocks)


def test_serve_output_matches_golden():
    assert render() == GOLDEN.read_text()


def test_one_rejection_per_rule():
    # Each case trips its own rule first, in table order, so the golden
    # file pins every rule's message.
    parser = build_parser()
    first = []
    for _, argv in REJECTIONS:
        facts = _serve_facts(parser.parse_args(["serve", *argv]))
        first.append(next(
            i for i, (broken, _) in enumerate(_SERVE_RULES) if broken(facts)
        ))
    assert first == list(range(len(_SERVE_RULES)))


if __name__ == "__main__":
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN}")
