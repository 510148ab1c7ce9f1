# Convenience targets wrapping the tier-1 verify command (see ROADMAP.md).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast flake-check perfbench-smoke bench bench-smoke bench-overhead bench-obsv bench-slo bench-sched bench-service bench-http bench-shard bench-chaos chaos coverage lint docs-lint linkcheck mypy-sched ci quickstart

# Tier-1: the exact command the roadmap gates on (tests/ + benchmarks/).
test:
	$(PYTHON) -m pytest -x -q

# Unit and integration tests only (fast inner loop; skips the benchmark harness).
test-fast:
	$(PYTHON) -m pytest -x -q tests

# Determinism gate for the session layer: the gateway session tests, the HTTP
# API tests, the cross-transport tests, the durable-restart tests and the
# inline-dispatch tests (whose write-ahead ordering depends on timing), and
# the comms regression for frames a peer sent before a failed write; plus the
# HTEX manager's stop and the worker-crash tests, whose respawn-budget case
# depends on a synthesized loss going out ahead of that stop; the manager's
# thread census, heartbeat-under-a-full-pipe, idle-kill and switch-interval
# stress tests; and the DFK task-lifetime tests, whose weakref and memory
# checks depend on the cleanup and pool-drain barriers and on a record being
# released only after its completion hooks; and the idle wake-up tests of the
# comms server's accept thread and the session store's writer, which count a
# blocked thread's context switches over a window.
# FLAKE_PASSES times, stopping at the first failure.
FLAKE_PASSES ?= 20
FLAKE_TESTS = tests/service/test_gateway.py::TestSessions \
	tests/service/test_http_api.py \
	tests/service/test_cross_transport.py \
	tests/service/test_shards.py::TestDurableRestart \
	tests/service/test_inline_dispatch.py \
	tests/comms/test_comms.py::TestTCPServerClient::test_failed_send_keeps_frames_the_peer_already_sent \
	tests/executors/test_manager_frames.py \
	tests/executors/test_manager_loop.py \
	tests/executors/test_worker_crash.py::TestWorkerCrashContainment \
	tests/core/test_task_lifetime.py \
	tests/comms/test_comms.py::test_idle_server_accept_thread_does_not_wake \
	tests/service/test_store.py::test_idle_writer_does_not_wake

flake-check:
	@for i in $$(seq $(FLAKE_PASSES)); do \
		echo "flake-check pass $$i/$(FLAKE_PASSES)"; \
		$(PYTHON) -m pytest -x -q $(FLAKE_TESTS) || exit 1; \
	done

# The steady benchmark's self-tests, then a short traced run of each
# workload. A traced run wraps DFK, HTEX and interchange entry points by
# name, so a rename breaks it here; a run fails on a non-zero exit or when
# its last line (the JSON result) lacks "correct": true.
PERFBENCH_WORKLOADS = serial_noop payload_open gateway_tcp gateway_http

perfbench-smoke:
	$(PYTHON) -m pytest -q perfbench
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "perfbench-smoke: $$w"; \
		out=$$($(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 1) || exit 1; \
		echo "$$out" | tail -n 1 | grep -q '"correct": true' || { echo "$$out" | tail -n 1; exit 1; }; \
	done

# The paper-figure benchmark harness only.
bench:
	$(PYTHON) -m pytest -q benchmarks

# The CI smoke subset: shrunken workloads, raw numbers to BENCH_smoke.json.
bench-smoke:
	REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q benchmarks \
		-k "fig3 or fig6 or ablation or overhead" --benchmark-json=BENCH_smoke.json

# DFK per-task overhead gate: fails if sustained submit throughput drops
# below the recorded floor in BENCH_overhead_floor.json (repo root).
bench-overhead:
	REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q benchmarks/test_dfk_overhead.py \
		--benchmark-json=BENCH_overhead.json

# Observability overhead gate: metrics + tracing on vs off on the Fig. 4
# throughput anchor; fails if the instrumented median round loses >5%.
bench-obsv:
	REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q benchmarks/test_observability_overhead.py \
		--benchmark-json=BENCH_observability.json

# Live ops plane gate: a two-tenant run with the SLO engine + straggler
# detector on vs stubbed out (≤5% median throughput cost), plus the
# detection-quality check (injected 10×-slow tasks flagged, zero false
# positives from the clean phase, zero false SLO alarms).
bench-slo:
	REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q benchmarks/test_slo_overhead.py \
		--benchmark-json=BENCH_slo.json

# The fig7 resource-aware scheduling bench (priority overtaking, bin-packed
# multi-core placement, default-path throughput guard) at full scale.
bench-sched:
	$(PYTHON) -m pytest -q benchmarks/test_fig7_scheduling.py \
		--benchmark-json=BENCH_fig7_scheduling.json

# The multi-tenant gateway bench (8-client aggregate throughput vs direct
# DFK, 1:10 weighted fair share, reconnect-and-resume) at full scale.
bench-service:
	$(PYTHON) -m pytest -q benchmarks/test_service_gateway.py \
		--benchmark-json=BENCH_service_gateway.json

# The HTTP/SSE edge bench (64 streaming AsyncServiceClients vs the raw-TCP
# path; acceptance floor 70% of TCP throughput) at full scale.
bench-http:
	$(PYTHON) -m pytest -q benchmarks/test_http_edge.py \
		--benchmark-json=BENCH_http_edge.json

# The sharded-gateway bench (4-shard vs 1-shard aggregate throughput,
# shard-kill recovery with 32 clients, gateway kill -9 over the durable
# SQLite store) at full scale.
bench-shard:
	$(PYTHON) -m pytest -q benchmarks/test_shard_scale.py \
		--benchmark-json=BENCH_shard_scale.json

# The chaos-recovery bench (goodput retention under sustained worker
# SIGKILLs, manager-loss detection/resettle time) at full scale. The
# explicit `-m chaos` overrides the default `-m "not chaos"` deselection.
bench-chaos:
	$(PYTHON) -m pytest -q benchmarks/test_chaos_recovery.py -m chaos \
		--benchmark-json=BENCH_chaos.json

# The full-scale chaos acceptance campaigns (500 tasks under sustained
# random worker kills plus one manager kill).
chaos:
	$(PYTHON) -m pytest -q tests/executors/test_chaos.py -m chaos

# Line coverage with a floor on the service layer (gateway + HTTP edge +
# both SDKs). Needs pytest-cov; skips gracefully where absent.
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -q tests --cov=repro --cov-report=xml --cov-report=term && \
		$(PYTHON) -m coverage report --include="*/repro/service/*" --fail-under=75; \
	else \
		echo "pytest-cov not installed — skipping coverage (pip install pytest-cov)"; \
	fi

# Strict typing is scoped to the scheduling package (config in pyproject.toml);
# skip gracefully where mypy is absent, mirroring the lint target.
mypy-sched:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy --strict src/repro/scheduling; \
	elif $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --strict src/repro/scheduling; \
	else \
		echo "mypy not installed — skipping strict typing pass (pip install mypy)"; \
	fi

# Ruff config lives in pyproject.toml; skip gracefully where ruff is absent.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	elif $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check .; \
	else \
		echo "ruff not installed — skipping lint (pip install ruff)"; \
	fi

# Public-API docstring gate for the service layer: the stdlib AST checker
# always runs; ruff's pydocstyle D1 rules run additionally when available.
docs-lint:
	$(PYTHON) tools/check_docstrings.py
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check --select D1 src/repro/service; \
	elif $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check --select D1 src/repro/service; \
	else \
		echo "ruff not installed — stdlib docstring check only (pip install ruff)"; \
	fi

# Intra-repo markdown link check (stdlib only).
linkcheck:
	$(PYTHON) tools/check_links.py

# What the CI workflow runs: lint, then the tier-1 suite.
ci: lint docs-lint linkcheck test

quickstart:
	$(PYTHON) examples/quickstart.py
