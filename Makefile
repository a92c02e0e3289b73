PYTHON ?= python
PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

# Hard wall-clock budget for the tier-1 unit suite (seconds).
TIER1_TIMEOUT ?= 120
# Budget for the scenario-matrix smoke run (seconds).
SCENARIOS_TIMEOUT ?= 300

.PHONY: test tier1 lint lint-baseline import-check bench bench-detection kernel-bench examples examples-smoke scenarios docs docs-check daemon-smoke repair-smoke mega-smoke obs-smoke api-smoke fleet-smoke

## Tier-1 unit suite (tests/ only; benchmarks/ are excluded via pytest.ini).
test: tier1
tier1:
	timeout $(TIER1_TIMEOUT) $(PYTHON) -m pytest -x -q

## Full paper-scale benchmark suite (slow: trains one model per table).
bench:
	$(PYTHON) -m pytest benchmarks/ -q

## Detection-speed regression harness: refreshes BENCH_detection.json.
bench-detection:
	$(PYTHON) -m pytest benchmarks/test_table7_timing.py -q

## Kernel microbench: median ms of every conv/pool call one 64-row scan
## step makes (forward, input gradient, weight gradient) on the benchmark
## zoo's three architectures.  CI runs it with KERNEL_BENCH_ARGS=--repeats=1.
KERNEL_BENCH_ARGS ?=
kernel-bench:
	$(PYTHON) tools/kernel_bench.py $(KERNEL_BENCH_ARGS)

## Scenario-matrix smoke: tiny BadNet grid over the scenario axis
## (all-to-one, source-conditional, all-to-all) through train -> pair scan,
## once per scan and once as a single table-wide mega-batch job.
SCENARIOS_ARGS = --table table5 --scale bench \
  --scenarios all_to_one,source_conditional,all_to_all \
  --cases badnet_3x3 --detectors usb --seed 1
scenarios:
	timeout $(SCENARIOS_TIMEOUT) $(PYTHON) -m repro experiment $(SCENARIOS_ARGS)
	timeout $(SCENARIOS_TIMEOUT) $(PYTHON) -m repro experiment $(SCENARIOS_ARGS) \
	  --inversion-mode mega

## repro-lint: AST-based invariant checker (RNG, digest, lock, telemetry,
## wall-clock, exception, docstring discipline).  Fails on any violation
## not covered by an inline suppression or tools/lint_baseline.json.
lint:
	$(PYTHON) -m repro.analysis

## Import check: import every repro module on its own in a fresh
## interpreter, so an import cycle or an order-dependent import (lazy
## package exports, function-level imports) fails here.  CI runs it in the
## docs-and-daemon job.
import-check:
	$(PYTHON) tools/import_check.py

## Regenerate the lint baseline in place, keeping existing justifications.
## New entries get a TODO justification that must be filled in by hand.
lint-baseline:
	$(PYTHON) -m repro.analysis --update-baseline

## Regenerate docs/api.md from the live public docstring surface.
docs:
	$(PYTHON) tools/gen_api_docs.py docs/api.md

## Docs gate: docstring coverage (service layer + detection layer: core/,
## defenses/, eval/timing.py) and docs/api.md freshness.  Run by CI; fails
## on drift.
docs-check:
	$(PYTHON) tools/check_docstrings.py
	$(PYTHON) tools/gen_api_docs.py --check docs/api.md

## Daemon smoke: watch a temp drop dir through the real CLI, drop one
## checkpoint, scan it with two detectors in one poll, assert both verdicts
## land in the store and metrics publish.
daemon-smoke:
	$(PYTHON) tools/daemon_smoke.py

## Repair smoke: train a bench badnet model, drive the real
## `python -m repro repair` CLI (scan -> repair -> verify), and assert the
## true ASR drops >0.9 -> <0.2 within the clean-accuracy guardrail.
repair-smoke:
	$(PYTHON) tools/repair_smoke.py

## Observability smoke: one daemon cycle with telemetry on; asserts
## metrics.prom parses as valid exposition and `repro trace` renders a
## stitched cross-process span tree.
obs-smoke:
	$(PYTHON) tools/obs_smoke.py

## API smoke: boot the HTTP server on an ephemeral port, run one scan
## per routing strategy over real sockets, assert strategy semantics,
## cost accounting, trace stitching, and that /metrics parses.
api-smoke:
	$(PYTHON) tools/api_smoke.py

## Fleet smoke: three real `python -m repro worker` processes + a
## submitter against temp stores — inline-identical verdicts with zero
## lost jobs, kill-a-worker recovery via lease-expiry requeue, and an
## HTTP fleet scan whose stitched trace spans >= 2 worker pids.
fleet-smoke:
	$(PYTHON) tools/fleet_smoke.py

## Mega-batch parity smoke (fast; tiny model, 4 classes): flagged classes
## identical across sequential/batched/mega, exact match without cascade.
mega-smoke:
	$(PYTHON) -m pytest -q tests/test_mega_batch.py -k \
	  "TestModeParity or TestPoolMechanics"

## Fast example smoke (CI): the three quick public-API consumers of
## detect(), seed_uaps() and the scanning service, ~70 s together on 2
## cores.  compare_detectors.py and dynamic_backdoor_iad.py run in
## `examples` only.
examples-smoke:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/reuse_uap_across_models.py
	$(PYTHON) examples/scan_service.py

## Smoke-run every example end to end (slowest last; ~minutes on a CPU).
examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/compare_detectors.py
	$(PYTHON) examples/reuse_uap_across_models.py
	$(PYTHON) examples/dynamic_backdoor_iad.py
	$(PYTHON) examples/scan_service.py
