"""Figure 7 (extension): resource-aware scheduling on the real HTEX stack.

The paper positions the system as serving heterogeneous workloads — short
Python calls next to multi-core applications — and this benchmark regenerates
the two scheduling behaviours that make that mix safe:

* **priority overtaking** — a priority-9 task submitted *behind* a backlog of
  bulk priority-0 tasks must complete within the first 5% of completions
  (the interchange's pending queue is a heap, not a FIFO);
* **bin-packed multi-core placement** — 4-core tasks placed alongside 1-core
  tasks must never push any manager past its advertised slots, asserted from
  the interchange's own core accounting;
* **default-path guard** — with no resource specs, throughput through the
  priority queue and placement index must stay in the fig4 anchor's range.

Run via ``make bench-sched`` to emit ``BENCH_fig7_scheduling.json``.
"""

import threading
import time

import pytest

from repro.executors import HighThroughputExecutor

from conftest import fast_scaled, measure_throughput, print_table

#: The acceptance scenario: one urgent task behind this many bulk tasks.
N_BULK = fast_scaled(500, 120)
#: Per-task busy time keeping a real backlog queued at the interchange.
BULK_TASK_S = 0.004


def bulk_task(duration=BULK_TASK_S):
    time.sleep(duration)
    return "bulk"


def urgent_task():
    return "urgent"


def wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_fig7_priority_task_overtakes_backlog(benchmark, quiet_logging):
    """A priority-9 task behind N_BULK queued priority-0 tasks finishes early."""
    executor = HighThroughputExecutor(
        label="htex_sched_prio", workers_per_node=2, internal_managers=1, prefetch_capacity=0
    )
    executor.start()
    assert wait_for(lambda: executor.connected_workers >= 2)

    def run():
        completion_order = []
        order_lock = threading.Lock()

        def record(tag):
            def _done(_fut):
                with order_lock:
                    completion_order.append(tag)

            return _done

        bulk_futures = executor.submit_batch(
            [(bulk_task, {}, (), {}) for _ in range(N_BULK)]
        )
        for fut in bulk_futures:
            fut.add_done_callback(record("bulk"))
        # Submitted BEHIND the whole backlog, with high priority.
        urgent = executor.submit(urgent_task, {"priority": 9})
        urgent.add_done_callback(record("urgent"))
        for fut in bulk_futures:
            fut.result(timeout=120)
        urgent.result(timeout=120)
        return completion_order

    try:
        order = benchmark.pedantic(run, rounds=1, iterations=1)
        position = order.index("urgent") + 1
        budget = max(int(0.05 * len(order)), 1)
        print_table(
            "Figure 7a — priority overtaking (1 urgent task behind a bulk backlog)",
            ["bulk tasks", "urgent finished at position", "5% budget"],
            [[N_BULK, position, budget]],
        )
        assert position <= budget, (
            f"priority-9 task completed {position}/{len(order)}; "
            f"must be within the first 5% ({budget})"
        )
    finally:
        executor.shutdown()


def test_fig7_binpack_multicore_no_oversubscription(benchmark, quiet_logging):
    """4-core tasks bin-packed among 1-core tasks never oversubscribe a manager."""
    n_big = fast_scaled(20, 6)
    n_small = fast_scaled(80, 24)
    executor = HighThroughputExecutor(
        label="htex_sched_pack",
        workers_per_node=4,
        internal_managers=2,
        prefetch_capacity=0,
        scheduling_policy="bin_pack",
    )
    executor.start()
    assert wait_for(lambda: executor.connected_workers >= 8)

    def run():
        requests = [(bulk_task, {"cores": 4}, (), {}) for _ in range(n_big)]
        requests += [(bulk_task, {}, (), {}) for _ in range(n_small)]
        futures = executor.submit_batch(requests)
        for fut in futures:
            assert fut.result(timeout=120) == "bulk"
        return executor.interchange.scheduling_stats()

    try:
        stats = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = [
            [identity, m["capacity"], m["peak_in_flight_cores"]]
            for identity, m in sorted(stats["managers"].items())
        ]
        print_table(
            f"Figure 7b — bin-packed placement ({n_big}×4-core + {n_small}×1-core tasks)",
            ["manager", "advertised cores", "peak in-flight cores"],
            rows,
        )
        assert stats["oversubscription_events"] == 0
        for identity, m in stats["managers"].items():
            assert m["peak_in_flight_cores"] <= m["capacity"], (
                f"manager {identity} held {m['peak_in_flight_cores']} in-flight cores "
                f"but advertises {m['capacity']}"
            )
        # The 4-core tasks actually exercised whole-manager packing.
        assert any(m["peak_in_flight_cores"] == m["capacity"] for m in stats["managers"].values())
    finally:
        executor.shutdown()


def test_fig7_default_specs_preserve_throughput(benchmark, quiet_logging):
    """No resource specs → the scheduling layer must not tax the fig4 path.

    Same protocol as the fig4 anchor (a burst of no-op tasks through a local
    HTEX): the priority heap and the placement index sit on the dispatch path
    even for default tasks, so this guards the "within noise" acceptance
    criterion at the same order-of-magnitude bar the anchor uses.
    """
    n_tasks = fast_scaled(300, 150)
    executor = HighThroughputExecutor(
        label="htex_sched_default", workers_per_node=2, internal_managers=1
    )
    executor.start()
    assert wait_for(lambda: executor.connected_workers >= 2)
    try:
        rate = benchmark.pedantic(
            measure_throughput, args=(executor.submit, n_tasks), rounds=3, iterations=1
        )
        print_table(
            "Figure 7c — default-path throughput through the scheduling layer",
            ["measured (tasks/s)", "fig4 anchor floor"],
            [[f"{rate:.0f}", "50"]],
        )
        assert rate > 50, "scheduling layer slowed the default dispatch path below the fig4 floor"
    finally:
        executor.shutdown()


@pytest.mark.skipif(N_BULK < 500, reason="full-scale acceptance run only (unset REPRO_BENCH_FAST)")
def test_fig7_acceptance_scale_matches_issue():
    """Documents that the full-mode run uses the 500-task acceptance scenario."""
    assert N_BULK == 500
