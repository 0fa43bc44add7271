# Convenience targets for the AWG reproduction.
#
#   make test          tier-1 test suite
#   make lint          static kernel linter over workloads/sync/examples
#   make analyze       static progress table, diffed vs the committed
#                      analysis-table.json golden
#   make analyze-golden  re-baseline analysis-table.json after a
#                        deliberate verdict change
#   make bench         regenerate every table, figure and ablation at
#                      its committed scale into results/, failing on any
#                      shape check (`python -m repro all --out results`)
#   make faults-smoke  fault-injection campaign, smoke scale (IFP table)
#   make litmus-smoke  seeded litmus corpus + generated programs vs the
#                      golden policy set; violating runs drop shrunken
#                      repro bundles into .litmus-bundles/
#   make clean-cache   drop the on-disk result cache
#
# Knobs: REPRO_JOBS (worker processes), REPRO_CACHE_DIR (cache root; an
# interrupted sweep resumes from it when re-run).
# Test hook: REPRO_STRESS_KILL (sentinel file: the _KILL benchmark
# SIGKILLs its worker once).

PY ?= python
export PYTHONPATH := src

.PHONY: test lint analyze analyze-golden bench faults-smoke litmus-smoke \
	clean-cache

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
	$(PY) -m repro all --out results

faults-smoke:
	$(PY) -m repro faults --seed 1 --smoke --no-cache

litmus-smoke:
	$(PY) -m repro litmus run --smoke --seed 1 --bundles .litmus-bundles --shrink

clean-cache:
	$(PY) -m repro cache --clear
