# Convenience targets for the AWG reproduction.
#
#   make test          tier-1 test suite: the one gate. It also runs the
#                      quick fault campaign, the seed-1 litmus run, the
#                      static-vs-dynamic cross-check and every golden
#                      diff (REPRO_UPDATE_GOLDENS=1 re-baselines goldens)
#   make lint          static kernel linter over workloads/sync/examples
#   make bench         regenerate every table, figure and ablation at
#                      its committed scale into results/, failing on any
#                      shape check (`python -m repro all --out results`)
#   make clean-cache   drop the on-disk result cache
#
# Knobs: REPRO_JOBS (worker processes), REPRO_CACHE_DIR (cache root; an
# interrupted sweep resumes from it when re-run).
# Test hook: REPRO_STRESS_KILL (sentinel file: the _KILL benchmark
# SIGKILLs its worker once).

PY ?= python
export PYTHONPATH := src

.PHONY: test lint bench clean-cache

test:
	$(PY) -m pytest -x -q

lint:
	$(PY) -m repro lint

bench:
	$(PY) -m repro all --out results

clean-cache:
	$(PY) -m repro cache --clear
