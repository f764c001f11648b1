#!/usr/bin/env bash
# The one list of gates, run by `make check` and directly where make is
# missing: lint (byte-compile + collect), the docstring coverage gate,
# tier-1 tests (a test still running after 10 minutes dumps every
# thread's stack), a quick benchmark smoke pass, the perf-regression smoke
# (pinned speedup / node-seconds-savings floors), the perf benchmark's
# fingerprint self-test, one traced pass of every benchmark workload,
# the docs link check, every example, and the tracked-results check (no
# file under benchmarks/results/ may differ from the checkout). Each step
# runs the same command as the Makefile target of the same name.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== lint =="
python -m compileall -q src tests benchmarks examples
python -m pytest --collect-only -q > /dev/null

echo "== docstring coverage gate =="
python scripts/check_docstrings.py

echo "== tier-1 tests =="
python -m pytest -x -q -o faulthandler_timeout=600

echo "== benchmark smoke =="
python -m pytest -q \
    benchmarks/test_fig11_throughput_breakdown.py

echo "== perf regression smoke =="
python -m pytest -q \
    benchmarks/test_serving_engine_scale.py \
    benchmarks/test_workload_generation.py \
    benchmarks/test_runtime_switching.py \
    benchmarks/test_autoscaling.py \
    benchmarks/test_cluster_cache.py \
    benchmarks/test_ablation_scheduler.py \
    benchmarks/test_geo_serving.py

echo "== benchmark self-test (committed result fingerprints) =="
python -m pytest perfbench/selftest.py -q

echo "== benchmark trace smoke (every workload, traced once) =="
python perfbench/run.py --workload all --trace 1 --seconds 1

echo "== docs link check =="
python scripts/check_links.py

echo "== examples smoke =="
for example in examples/*.py; do
    echo "== $example =="
    python "$example"
done

echo "== tracked benchmark results unchanged =="
changed=$(git status --porcelain -- benchmarks/results/)
if [ -n "$changed" ]; then
    echo "$changed"
    echo "tracked benchmark results changed"
    exit 1
fi
