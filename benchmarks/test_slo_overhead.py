"""Live ops plane gate: SLO engine + straggler detector cost ≤ 5%.

Two acceptance behaviours of the gateway's operations plane:

* **overhead** — a synthetic two-tenant run on the Fig. 4 anchor fabric
  (no-op tasks through an in-process internal-mode HTEX, driven through
  the gateway by an ``interactive`` tenant with a declared p99 objective
  and an unobjectived ``batch`` tenant) must lose at most 5% throughput
  against the identical run with the plane's per-completion work removed.
  Everything the plane adds is O(1) per completion — two bucket-count
  increments for the rolling quantiles, one hop-model update — plus a
  1 Hz burn evaluation, so its cost must be invisible at anchor rates.
* **detection quality** — with the hop model trained by a clean phase
  whose arrival rate never outruns service (so queueing cannot mimic
  straggling), polling the live scan continuously must flag *nothing*;
  injected 10×-slow tasks must then each be flagged while in flight, with
  their trace ids, and the SLO engine must raise no alert at any point
  (every task, slow ones included, meets the declared objective).

The overhead protocol mirrors ``test_observability_overhead.py``: one
discarded warm-up per mode, alternating rounds with flipped in-round
order, extra round pairs (up to ``MAX_ROUNDS``) as the noisy-machine
escape hatch, and a gate that passes if **either** the median-round or
the best-round comparison is within budget — round throughput on a
shared container swings far more than the 5% budget and is bimodal
(batching regimes), so any single statistic can be flipped by one
unlucky draw, while a genuine hot-path regression shifts the whole
distribution and fails both statistics at once.

Run via ``make bench-slo`` to emit ``BENCH_slo.json``.
"""

from __future__ import annotations

import threading
import time

import repro
from repro import Config
from repro.executors import HighThroughputExecutor, ThreadPoolExecutor
from repro.observability.anomaly import StragglerDetector
from repro.service import ServiceClient, WorkflowGateway

from conftest import fast_scaled, noop, print_table

#: Alternating rounds per mode; the gate compares median and best rounds.
ROUNDS = 4

#: Ceiling on extra rounds added while the gate fails on a noisy machine.
MAX_ROUNDS = 10

#: Maximum throughput the ops plane may cost (the issue's acceptance number).
MAX_OVERHEAD = 0.05

#: The two-tenant scenario: one declared objective, one free-running tenant.
TENANT_SLOS = {"interactive": {"p99_ms": 250, "window_s": 60}}


def busy(seconds):
    time.sleep(seconds)
    return "done"


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


class _InertSlo:
    """The SLO engine with its per-completion and per-tick work removed."""

    def record(self, *_a, **_k):
        pass

    def record_stream(self, *_a, **_k):
        pass

    def evaluate(self, *_a, **_k):
        return []

    def active_alerts(self, *_a, **_k):
        return []


class _InertAnomaly:
    def complete(self, *_a, **_k):
        pass

    def drain(self):
        pass

    def scan(self, *_a, **_k):
        return []


def _two_tenant_throughput(run_dir, instrumented: bool, n_tasks: int) -> float:
    """Completed no-op tasks/s: two gateway tenants over internal HTEX."""
    cfg = Config(
        executors=[
            HighThroughputExecutor(
                label="htex_slo",
                workers_per_node=4,
                worker_mode="thread",
                internal_managers=1,
            )
        ],
        run_dir=str(run_dir),
        strategy="none",
        app_cache=False,
    )
    dfk = repro.DataFlowKernel(cfg)
    gateway = WorkflowGateway(
        dfk, window=256, max_inflight_per_tenant=n_tasks + 8,
        tenant_slos=TENANT_SLOS,
    ).start()
    if not instrumented:
        # Same gateway, same fabric, the plane's hot path stubbed out: the
        # on/off delta isolates exactly what this subsystem added.
        gateway.slo = _InertSlo()
        gateway.anomaly = _InertAnomaly()
    clients = [
        ServiceClient(gateway.host, gateway.port, tenant=tenant)
        for tenant in ("interactive", "batch")
    ]
    per_client = n_tasks // len(clients)
    futures_by_client = [[] for _ in clients]

    def feed(idx):
        futures_by_client[idx] = [
            clients[idx].submit(noop) for _ in range(per_client)
        ]

    try:
        start = time.perf_counter()
        feeders = [
            threading.Thread(target=feed, args=(i,))
            for i in range(len(clients))
        ]
        for t in feeders:
            t.start()
        for t in feeders:
            t.join()
        for futures in futures_by_client:
            for f in futures:
                f.result(timeout=300)
        elapsed = time.perf_counter() - start
    finally:
        for c in clients:
            c.close()
        gateway.stop()
        dfk.cleanup()
    return per_client * len(clients) / elapsed


def test_slo_plane_overhead_under_five_percent(benchmark, quiet_logging,
                                               tmp_path):
    """Two-tenant Fig. 4 anchor throughput, ops plane on vs off, gated at 5%."""
    n_tasks = fast_scaled(2000, 1200)
    _two_tenant_throughput(tmp_path / "warm_off", False, max(200, n_tasks // 4))
    _two_tenant_throughput(tmp_path / "warm_on", True, max(200, n_tasks // 4))
    tput = {"off": [], "on": []}

    def _run_round(round_idx: int) -> None:
        order = ["off", "on"] if round_idx % 2 == 0 else ["on", "off"]
        for mode in order:
            tput[mode].append(
                _two_tenant_throughput(tmp_path / f"{mode}{round_idx}",
                                       mode == "on", n_tasks)
            )

    def _overhead() -> float:
        # The gated quantity: the *smaller* loss of the two statistics —
        # noise must push both outside the budget to fail the gate.
        med = 1.0 - _median(tput["on"]) / _median(tput["off"])
        best = 1.0 - max(tput["on"]) / max(tput["off"])
        return min(med, best)

    for round_idx in range(ROUNDS):
        _run_round(round_idx)
    while _overhead() > MAX_OVERHEAD and len(tput["on"]) < MAX_ROUNDS:
        _run_round(len(tput["on"]))

    med_off, med_on = _median(tput["off"]), _median(tput["on"])
    overhead = _overhead()
    print_table(
        f"SLO + straggler plane overhead ({n_tasks} no-op tasks, two gateway "
        f"tenants, median of {len(tput['on'])})",
        ["ops plane", "rounds (tasks/s)", "median (tasks/s)", "overhead"],
        [
            ["off", ", ".join(f"{t:,.0f}" for t in tput["off"]),
             f"{med_off:,.0f}", "-"],
            ["slo + stragglers", ", ".join(f"{t:,.0f}" for t in tput["on"]),
             f"{med_on:,.0f}", f"{overhead:+.1%}"],
        ],
    )
    benchmark.extra_info["tput_off_median"] = med_off
    benchmark.extra_info["tput_on_median"] = med_on
    benchmark.extra_info["overhead_fraction"] = overhead

    # Record one instrumented two-tenant submit as the benchmark quantity.
    cfg = Config(
        executors=[ThreadPoolExecutor(label="threads", max_threads=4)],
        run_dir=str(tmp_path / "bench"),
        strategy="none",
        app_cache=False,
    )
    dfk = repro.DataFlowKernel(cfg)
    gateway = WorkflowGateway(dfk, tenant_slos=TENANT_SLOS).start()
    client = ServiceClient(gateway.host, gateway.port, tenant="interactive")
    try:
        benchmark.pedantic(
            lambda: client.submit(noop),
            rounds=50,
            iterations=1,
            warmup_rounds=5,
        )
        time.sleep(0.2)  # let the tail drain before teardown
    finally:
        client.close()
        gateway.stop()
        dfk.cleanup()

    assert overhead <= MAX_OVERHEAD, (
        f"the SLO + straggler plane cost {overhead:.1%} of throughput "
        f"({med_off:,.0f} -> {med_on:,.0f} tasks/s median); the budget is "
        f"{MAX_OVERHEAD:.0%}"
    )


def test_straggler_detection_quality(benchmark, quiet_logging, tmp_path):
    """Injected 10×-slow tasks are flagged; the clean phase flags nothing."""
    n_clean = fast_scaled(60, 24)
    n_slow = 4
    clean_s, slow_s = 0.06, 0.6  # the issue's 10× injection
    cfg = Config(
        executors=[ThreadPoolExecutor(label="threads", max_threads=4)],
        run_dir=str(tmp_path / "quality"),
        strategy="none",
        app_cache=False,
    )
    dfk = repro.DataFlowKernel(cfg)
    gateway = WorkflowGateway(
        dfk,
        # Slow tasks still meet this objective: any alert is a false alarm.
        tenant_slos={"interactive": {"p99_ms": 5000, "window_s": 60}},
        anomaly=StragglerDetector(min_samples=10, min_age_s=0.3, factor=3.0),
    ).start()
    client = ServiceClient(gateway.host, gateway.port, tenant="interactive")
    clean_flags, slow_flags, false_alerts = set(), set(), []

    def drain(futures, sink):
        while any(not f.done() for f in futures):
            for row in gateway.live_stragglers():
                sink.add(row["trace_id"])
            false_alerts.extend(gateway.slo.active_alerts())
            time.sleep(0.01)
        for f in futures:
            assert f.result(timeout=60) == "done"

    def run():
        # Clean phase in executor-width waves: arrival never outruns
        # service, so queue wait cannot masquerade as straggling.
        for wave in range(0, n_clean, 4):
            drain([client.submit(busy, clean_s)
                   for _ in range(min(4, n_clean - wave))], clean_flags)
        # Inject phase: every slow task should be caught while in flight.
        slow_futures = [client.submit(busy, slow_s) for _ in range(n_slow)]
        drain(slow_futures, slow_flags)
        # trace_id is populated by the submit ack, so read it after the
        # fact — at submit return it may not have arrived yet.
        return {f.trace_id for f in slow_futures}

    try:
        slow_ids = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        client.close()
        gateway.stop()
        dfk.cleanup()

    print_table(
        f"Straggler detection quality ({n_clean} clean + {n_slow} injected "
        f"10× tasks)",
        ["clean flags (want 0)", "injected flagged", "slo false alarms"],
        [[len(clean_flags), f"{len(slow_ids & slow_flags)}/{n_slow}",
          len(false_alerts)]],
    )
    benchmark.extra_info["clean_false_positives"] = len(clean_flags)
    benchmark.extra_info["injected_flagged"] = len(slow_ids & slow_flags)
    benchmark.extra_info["injected_total"] = n_slow

    assert clean_flags == set(), (
        f"clean phase raised false stragglers: {sorted(clean_flags)}"
    )
    assert slow_ids <= slow_flags, (
        f"injected slow tasks escaped detection: {sorted(slow_ids - slow_flags)}"
    )
    assert false_alerts == [], "no tenant breached its objective"
