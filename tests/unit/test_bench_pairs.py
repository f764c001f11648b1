"""``scripts/bench_pairs.py``'s summary over canned runs (no child
processes): per-side median and inclusive quartiles, the pairs the change
won, the median difference against the parent's quartile distance, and
the ``BENCH_<pr>.json`` record."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def canned(parent_qps, change_qps, parent_rss=100.0, change_rss=101.0):
    """Alternating pair runs, as the script records them."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent_qps, change_qps)):
        order = [("parent", p, parent_rss), ("change", c, change_rss)]
        if pair % 2:
            order.reverse()
        for side, qps, rss in order:
            runs.append({
                "pair": pair, "side": side, "fingerprint": "['abc']",
                "rss_reset_noop": True, "exit": 0,
                "last_line": {"correct": True, "attempted": 5, "failed": 0,
                              "metrics": {
                                  "sim_qps": {"value": qps,
                                              "unit": "queries/s"},
                                  "peak_rss_mb": {"value": rss, "unit": "MB"},
                              }},
            })
    return runs


def test_summary_of_canned_pairs():
    runs = canned([10.0, 12.0, 11.0, 13.0, 14.0],
                  [15.0, 11.0, 16.0, 17.0, 18.0])
    summary = bench_pairs.summarise(runs, METRICS)
    assert set(summary) == {"sim_qps", "peak_rss_mb"}
    qps = summary["sim_qps"]
    # Inclusive quartiles of 10, 11, 12, 13, 14 and 11, 15, 16, 17, 18.
    assert qps["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0, "n": 5}
    assert qps["change"] == {"median": 16.0, "q1": 15.0, "q3": 17.0, "n": 5}
    assert qps["wins"] == 4 and qps["pairs"] == 5  # pair 1 lost
    assert qps["median_diff"] == 4.0
    assert qps["median_ratio"] == pytest.approx(16.0 / 12.0)
    assert qps["parent_iqr"] == 2.0
    # Lower is better for RSS: 101 MB against 100 MB wins no pair.
    assert summary["peak_rss_mb"]["wins"] == 0


def test_format_marks_a_difference_beyond_the_parent_iqr():
    runs = canned([10.0, 12.0, 11.0, 13.0], [15.0, 16.0, 17.0, 18.0])
    lines = bench_pairs.format_summary(
        "geo-failover", 1, bench_pairs.summarise(runs, METRICS)
    )
    assert lines[0] == "== geo-failover (seed 1) =="
    qps_line = next(line for line in lines if "sim_qps" in line)
    assert "wins 4/4" in qps_line
    assert qps_line.endswith("(better beyond parent IQR)")
    rss_line = next(line for line in lines if "peak_rss_mb" in line)
    assert "wins 0/4" in rss_line
    assert rss_line.endswith("(worse beyond parent IQR)")


def test_record_in_bench_json_shape():
    runs = canned([10.0, 12.0], [15.0, 16.0])
    runs[-1]["last_line"]["failed"] = 1
    record = bench_pairs.entry("geo-failover", 2, runs, METRICS, True)
    assert record["workload"] == "geo-failover" and record["seed"] == 2
    assert record["claimed"] and record["sim_qps_wins"] == "2/2"
    assert record["failed_runs"] == 1
    assert record["fingerprints_equal"] and record["rss_reset_noop"]
    assert record["summary"]["change"]["sim_qps"]["median"] == 15.5
    assert record["runs"] == runs
    runs[0]["fingerprint"] = "['def']"
    assert not bench_pairs.entry(
        "geo-failover", 2, runs, METRICS, True
    )["fingerprints_equal"]
