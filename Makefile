# Convenience targets for the AWG reproduction.
#
#   make test          tier-1 test suite
#   make lint          static kernel linter over workloads/sync/examples
#   make analyze       static progress table, diffed vs the committed
#                      analysis-table.json golden
#   make analyze-golden  re-baseline analysis-table.json after a
#                        deliberate verdict change
#   make bench         full figure-suite regeneration (pytest-benchmark)
#   make bench-smoke   CI smoke: fig7 twice, asserts warm-run cache hits
#   make faults-smoke  fault-injection campaign, smoke scale (IFP table)
#   make trace-smoke   export one trace and validate the Perfetto schema
#   make recovery-smoke  kill-and-resume a tiny sweep, replay + shrink
#                        a drill repro bundle
#   make fabric-smoke  seeded chaos drill over the distributed sweep
#                      fabric: 4 workers, kill/stall/interrupt faults
#   make litmus-smoke  seeded litmus corpus + generated programs vs the
#                      golden policy set; violating runs drop shrunken
#                      repro bundles into .litmus-bundles/
#   make durability-smoke  crash-state enumeration over the durable
#                      subsystems (cache/manifest/fabric) + a seeded
#                      bit-reproducible fault campaign, golden-gated;
#                      failing crash states land in .durability-repro/
#   make clean-cache   drop the on-disk result cache
#
# Knobs: REPRO_JOBS (worker processes), REPRO_NO_CACHE=1,
# REPRO_CACHE_DIR (cache root), REPRO_CELL_TIMEOUT (per-cell wall-clock
# seconds), REPRO_CELL_RETRIES (environmental-failure retry rounds),
# REPRO_CHECKPOINT=1 / REPRO_CHECKPOINT_DIR (sweep crash-resume
# manifests), REPRO_BUNDLE_DIR (emit repro bundles for failing cells).

PY ?= python
export PYTHONPATH := src

.PHONY: test lint analyze analyze-golden bench bench-smoke faults-smoke \
	trace-smoke recovery-smoke fabric-smoke litmus-smoke \
	durability-smoke durability-golden clean-cache

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

recovery-smoke:
	$(PY) -m repro.recovery.smoke

fabric-smoke:
	$(PY) -m repro fabric drill --workers 4 --seed 0

litmus-smoke:
	$(PY) -m repro litmus run --smoke --seed 1 --bundles .litmus-bundles --shrink

durability-smoke:
	$(PY) -m repro durability --smoke --seed 1 \
		--golden tests/golden/durability/smoke.json

durability-golden:
	$(PY) -m repro durability --smoke --seed 1 \
		--write-golden tests/golden/durability/smoke.json

clean-cache:
	$(PY) -m repro.cli cache --clear
