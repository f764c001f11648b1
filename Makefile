# Developer entry points. `make test` is the tier-1 gate (a test still
# running after 10 minutes dumps every thread's stack); `make bench-smoke`
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
# `make bench-pairs PARENT=<dir>` runs alternating parent/change pairs of
# one workload (WORKLOAD, SEED, PAIRS, RUN_SECONDS; default geo-failover, 1,
# 10, 20) through scripts/bench_pairs.py and prints each end-to-end
# metric's quartiles, wins and median difference (OUT=BENCH_<pr>.json
# keeps the runs);
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
# path, `make profile-fast` the array fast path, `make profile-geo`
# the geo tier (3 regions, one failing, spill routing and caches) and
# `make profile-fleet` the elastic autopilot fleet (2..6 nodes,
# cache-affinity routing, node caches, a diurnal day).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench-smoke perf-smoke bench bench-selftest bench-trace-smoke \
	bench-pairs lint check examples-smoke docs-check docstrings-check \
	results-check cli-golden roofline-golden profile profile-fast \
	profile-geo profile-fleet

test:
	$(PYTHON) -m pytest -x -q -o faulthandler_timeout=600

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

WORKLOAD ?= geo-failover
SEED ?= 1
PAIRS ?= 10
RUN_SECONDS ?= 20
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<dir>"; exit 2; }
	$(PYTHON) scripts/bench_pairs.py --parent $(PARENT) \
		--workload $(WORKLOAD) --seed $(SEED) --pairs $(PAIRS) \
		--seconds $(RUN_SECONDS) $(if $(OUT),--out $(OUT))

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

# The geo-failover shape: 3 regions of 2 nodes, spill routing, region
# replication 2, node and WAN caches, region 1 failing at 0.55 s.
profile-geo:
	$(PYTHON) -m cProfile -s cumtime -m repro serve \
		--regions 3 --nodes 2 --region-replication 2 \
		--region-fail-at 0.55 --fail-region 1 --queries 10000 --qps 4500 \
		--sla-ms 50 --max-batch 16 --batch-timeout-ms 2 --cache-mb 1 \
		| head -45

profile-fleet:
	$(PYTHON) -m cProfile -s cumtime -m repro serve \
		--nodes 6 --autopilot --min-nodes 2 --max-nodes 6 \
		--router cache-affinity --replication 2 --cache-mb 4 \
		--link eth-25g --max-batch 16 --batch-timeout-ms 8 \
		--queries 40000 --qps 6000 --sla-ms 15 --arrivals diurnal \
		--streaming | head -45

check:
	scripts/check.sh
