# Convenience targets for the AWG reproduction.
#
#   make test          tier-1 test suite
#   make lint          static kernel linter over workloads/sync/examples
#   make analyze       static progress table, diffed vs the committed
#                      analysis-table.json golden
#   make analyze-golden  re-baseline analysis-table.json after a
#                        deliberate verdict change
#   make bench         full figure-suite regeneration (pytest-benchmark)
#   make bench-smoke   manual cache smoke: fig7 twice, asserts warm-run
#                      cache hits (CI covers this through tier-1
#                      test_matrix.py::test_cache_round_trip_returns_equal_result)
#   make faults-smoke  fault-injection campaign, smoke scale (IFP table)
#   make trace-smoke   export one trace and validate the Perfetto schema
#   make litmus-smoke  seeded litmus corpus + generated programs vs the
#                      golden policy set; violating runs drop shrunken
#                      repro bundles into .litmus-bundles/
#   make clean-cache   drop the on-disk result cache
#
# Knobs: REPRO_JOBS (worker processes), REPRO_NO_CACHE=1,
# REPRO_CACHE_DIR (cache root), REPRO_CELL_TIMEOUT (per-cell wall-clock
# seconds), REPRO_CELL_RETRIES (environmental-failure retry rounds),
# REPRO_CHECKPOINT=1 / REPRO_CHECKPOINT_DIR / REPRO_CHECKPOINT_FLUSH
# (sweep crash-resume manifests and their flush throttle),
# REPRO_DEBUG_OPS=1 (report device ops called without yield from).
# Test hooks: REPRO_EXEC_LOG (log every executed cell),
# REPRO_STRESS_KILL (sentinel file: the _KILL benchmark SIGKILLs its
# worker once).

PY ?= python
export PYTHONPATH := src

.PHONY: test lint analyze analyze-golden bench bench-smoke faults-smoke \
	trace-smoke litmus-smoke clean-cache

test:
	$(PY) -m pytest -x -q

lint:
	$(PY) -m repro lint --baseline lint-baseline.json \
		src/repro/workloads src/repro/sync examples

analyze:
	$(PY) -m repro analyze --golden analysis-table.json

analyze-golden:
	$(PY) -m repro analyze --write-golden analysis-table.json

bench:
	$(PY) -m pytest benchmarks -q

bench-smoke:
	$(PY) -m repro.experiments.smoke

faults-smoke:
	$(PY) -m repro faults --seed 1 --smoke --no-cache

trace-smoke:
	$(PY) -m repro trace FAM_G awg --quick --out .trace-smoke.json
	$(PY) -m repro.trace.export .trace-smoke.json
	rm -f .trace-smoke.json

litmus-smoke:
	$(PY) -m repro litmus run --smoke --seed 1 --bundles .litmus-bundles --shrink

clean-cache:
	$(PY) -m repro.cli cache --clear
