# Developer entry points.  The python toolchain is assumed to be on PATH;
# nothing here installs packages.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

STORE ?= .repro-store

.PHONY: test test-scale golden-test goldens chaos bench smoke-scaleout \
	store serve

## Tier-1 test suite (what CI runs on every push).
test:
	$(PYTHON) -m pytest -x -q

## The scale test matrix at paper_bench size (100k-entry corpora):
## store/index/API oracles plus tracemalloc budget ceilings, and the
## append-time/laziness/battery budgets at paper_bench and full_1m.
## Tier-1 runs the same oracles at the tiny preset; this tier is its
## own CI job.
test-scale:
	$(PYTHON) -m pytest -q --run-scale -m scale

## Only the scenario golden-run regression tests.
golden-test:
	$(PYTHON) -m pytest -q -m golden

## Intentionally regenerate the scenario golden fingerprints
## (tests/goldens/*.json); commit the resulting diff.
goldens:
	$(PYTHON) scripts/refresh_goldens.py

## Fault-injection, retry and replica-convergence suites under one
## deterministic chaos seed (override: make chaos CHAOS_SEED=7).
CHAOS_SEED ?= 0
chaos:
	REPRO_CHAOS_SEED=$(CHAOS_SEED) $(PYTHON) -m pytest -q \
		tests/test_faults.py tests/test_util_retry.py \
		tests/test_service_replica.py tests/test_service_chaos.py \
		tests/test_obs.py

## The benchmark (perfbench/, gated by BENCHMARK.json): each gated
## workload once, untraced.  Runs append to .perfbench/results.jsonl;
## perfbench/compare.py diffs two such result sets.
bench:
	for workload in read_hot read_cold; do \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 1 \
			--seconds 16 --trace 0 || exit 1; \
	done

## The CI scale-out smoke: 4-worker pool + follower behind
## repro-serve balance; mixed load, worker SIGKILL, follower
## ejection/re-admission, aggregated-metrics checks.
smoke-scaleout:
	$(PYTHON) scripts/scaleout_smoke.py

## Build a demo archive store (paper_realistic scenario) at $(STORE).
store:
	$(PYTHON) -m repro.service.cli init --store $(STORE)

## Serve the /v1 query API from $(STORE) (build it first: make store).
serve:
	$(PYTHON) -m repro.service.cli serve --store $(STORE)
