# Developer entry points. `make test` is the tier-1 gate; `make bench-smoke`
# runs a fast subset of the figure benchmarks; `make perf-smoke` is the
# perf-regression gate (fails when the engine-vs-reference speedup, the
# vectorized workload generation, the autoscaler's node-seconds savings,
# or the control plane's Pareto domination drops below its pinned floor);
# `make bench` runs the serving-simulator benchmark (perfbench/: every
# workload's end-to-end metrics, checked against its committed result
# fingerprint); `make bench-selftest` is its quick gate (two repetitions
# of each workload must reproduce perfbench/fingerprints.json);
# `make bench-trace-smoke` runs every workload once traced (`--trace 1`),
# so a span wrapper that no longer installs fails the gate;
# `make lint` byte-compiles every tree and
# checks the suite still collects (no external linters are assumed in the
# container); `make docstrings-check` fails on undocumented public API in
# the serving kernel, the MP-Rec core and the hardware cost models;
# `make examples-smoke` +
# `make docs-check` back the CI docs job (every example runs green, every
# relative link resolves); `make results-check` fails when the tracked
# benchmarks/results/ files differ from the checkout (they hold
# deterministic lines only, so a diff after the tests and benches is an
# unexplained behaviour change); `make check` runs scripts/check.sh, the
# one list of every gate above; `make cli-golden` rewrites the pinned
# `serve` output (tests/integration/golden/serve.txt) after an intended
# change; `make roofline-golden` likewise rewrites the pinned roofline
# (tests/unit/golden/roofline.txt: every operator component and the
# average power, bit for bit); `make profile` cProfiles the `serve` hot
# path.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench-smoke perf-smoke bench bench-selftest bench-trace-smoke \
	lint check examples-smoke docs-check docstrings-check results-check \
	cli-golden roofline-golden profile profile-fast

test:
	$(PYTHON) -m pytest -x -q

# (the engine-scale benchmark lives in perf-smoke; listing it here too
# would run the heaviest bench twice per CI pass)
bench-smoke:
	$(PYTHON) -m pytest -q \
		benchmarks/test_fig11_throughput_breakdown.py

perf-smoke:
	$(PYTHON) -m pytest -q \
		benchmarks/test_serving_engine_scale.py \
		benchmarks/test_workload_generation.py \
		benchmarks/test_runtime_switching.py \
		benchmarks/test_autoscaling.py \
		benchmarks/test_cluster_cache.py \
		benchmarks/test_ablation_scheduler.py \
		benchmarks/test_geo_serving.py

bench:
	$(PYTHON) perfbench/run.py --workload all

bench-selftest:
	$(PYTHON) -m pytest perfbench/selftest.py -q

bench-trace-smoke:
	$(PYTHON) perfbench/run.py --workload all --trace 1 --seconds 1

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	$(PYTHON) -m pytest --collect-only -q > /dev/null

docstrings-check:
	$(PYTHON) scripts/check_docstrings.py

examples-smoke:
	@set -e; for example in examples/*.py; do \
		echo "== $$example =="; \
		$(PYTHON) $$example; \
	done

docs-check:
	$(PYTHON) scripts/check_links.py

cli-golden:
	$(PYTHON) tests/integration/test_cli_golden.py

roofline-golden:
	$(PYTHON) tests/unit/test_roofline_golden.py

results-check:
	@changed="$$(git status --porcelain -- benchmarks/results/)"; \
	if [ -n "$$changed" ]; then \
		echo "$$changed"; \
		echo "tracked benchmark results changed"; \
		exit 1; \
	fi

profile:
	$(PYTHON) -m cProfile -s cumtime -m repro serve \
		--queries 20000 --qps 20000 --max-batch 64 --batch-timeout-ms 2 \
		| head -45

# The array fast path at scale (one order of magnitude more queries than
# `make profile` — the vectorized engine makes that the interesting regime).
profile-fast:
	$(PYTHON) -m cProfile -s cumtime -m repro serve \
		--fastpath --streaming --queries 1000000 --qps 24000 \
		--max-batch 256 --batch-timeout-ms 4 --shed-policy deadline-aware \
		| head -45

check:
	scripts/check.sh
