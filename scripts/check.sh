#!/usr/bin/env bash
# CI entry point: lint (byte-compile + collect), the docstring coverage
# gate, tier-1 tests, a quick benchmark smoke pass, the perf-regression
# smoke (pinned speedup / node-seconds-savings floors), the perf
# benchmark's fingerprint self-test, and the docs link check. Mirrors
# the Makefile targets for environments without make.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== lint =="
python -m compileall -q src tests benchmarks examples
python -m pytest --collect-only -q > /dev/null

echo "== docstring coverage gate =="
python scripts/check_docstrings.py

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== benchmark smoke =="
python -m pytest -q \
    benchmarks/test_fig11_throughput_breakdown.py

echo "== perf regression smoke =="
python -m pytest -q \
    benchmarks/test_serving_engine_scale.py \
    benchmarks/test_workload_generation.py \
    benchmarks/test_runtime_switching.py \
    benchmarks/test_autoscaling.py \
    benchmarks/test_cluster_cache.py

echo "== benchmark self-test (committed result fingerprints) =="
python -m pytest perfbench/selftest.py -q

echo "== docs link check =="
python scripts/check_links.py
