"""The DFK hands a ready task to its executor on the thread that made it ready.

There is no dispatcher thread between the two: the app caller, the thread
that resolved a task's last dependency (for HTEX, the interchange's result
thread) or a retry timer calls the executor's ``submit_batch`` itself. These
tests pin what that relies on: many threads may launch onto one HTEX at
once, a launch attempted after ``cleanup()`` still resolves its AppFuture,
the kernel starts no thread it does not need (and leaves nothing holding it
after ``cleanup()``), and a task's trace begins when it launches.
"""

import gc
import threading
import weakref
from concurrent.futures import CancelledError, Future

import pytest

from repro import Config
from repro.core.dflow import DataFlowKernel
from repro.executors import HighThroughputExecutor, ThreadPoolExecutor


def _plus_one(x):
    return x + 1


def _double(v):
    return v * 2


def _identity(x):
    return x


def test_strategy_none_starts_no_strategy_timer(run_dir):
    before = {t.ident for t in threading.enumerate()}
    dfk = DataFlowKernel(Config(
        executors=[ThreadPoolExecutor(label="threads", max_threads=2)],
        run_dir=run_dir,
        strategy="none",
    ))
    try:
        started = [t.name for t in threading.enumerate() if t.ident not in before]
        assert "strategy-timer" not in started
    finally:
        dfk.cleanup()


def test_concurrent_launchers_on_htex(run_dir):
    """Four app threads and the interchange's result thread (which launches
    each dependent) all call submit_batch on the same executor."""
    dfk = DataFlowKernel(Config(
        executors=[HighThroughputExecutor(label="htex", workers_per_node=2, internal_managers=1)],
        run_dir=run_dir,
        strategy="none",
        app_cache=False,
    ))
    per_thread = 50
    results = {}
    errors = []

    def launcher(base):
        try:
            pairs = []
            for i in range(base, base + per_thread):
                first = dfk.submit(_plus_one, (i,))
                pairs.append((i, dfk.submit(_double, (first,))))
            results[base] = [(i, fut.result(timeout=60)) for i, fut in pairs]
        except Exception as exc:  # noqa: BLE001 - re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=launcher, args=(n * per_thread,)) for n in range(4)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90)
        assert not errors, errors
        assert sorted(results) == [0, 50, 100, 150]
        for pairs in results.values():
            for i, value in pairs:
                assert value == (i + 1) * 2
        assert dfk.wait_for_current_tasks(timeout=30)
        assert dfk.task_summary() == {"exec_done": 400}
    finally:
        dfk.cleanup()


def test_dependency_resolved_after_cleanup_cancels_the_task(run_dir):
    """The last dependency resolving after shutdown launches the task on the
    resolving thread; the shut-down check fails it instead of submitting."""
    dfk = DataFlowKernel(Config(
        executors=[ThreadPoolExecutor(label="threads", max_threads=2)],
        run_dir=run_dir,
        strategy="none",
    ))
    dep = Future()
    fut = dfk.submit(_identity, (dep,))
    dfk.cleanup()
    dep.set_result(1)
    with pytest.raises(CancelledError):
        fut.result(timeout=5)


def test_trace_is_minted_at_launch_and_not_for_memo_hits(run_dir):
    """A memo hit never reaches an executor, so it carries no trace; a task
    that launches gets one whose first hop is ``submitted``."""
    dfk = DataFlowKernel(Config(
        executors=[ThreadPoolExecutor(label="threads", max_threads=2)],
        run_dir=run_dir,
        strategy="none",
    ))
    try:
        launched = dfk.submit(_identity, (7,))
        assert launched.result(timeout=5) == 7
        hit = dfk.submit(_identity, (7,))
        assert hit.result(timeout=5) == 7
        assert [name for name, _t in launched.task_record.trace["events"]][:3] == [
            "submitted", "queued", "routed",
        ]
        assert hit.task_record.from_memo
        assert hit.task_record.trace is None
    finally:
        dfk.cleanup()


def test_cleaned_up_kernel_is_collectable(run_dir):
    """cleanup() drops the interpreter-exit hook, the last outside reference
    to the kernel, so a process that creates many kernels does not keep
    every one (with its memo table and monitoring rows) until exit."""
    dfk = DataFlowKernel(Config(
        executors=[ThreadPoolExecutor(label="threads", max_threads=2)],
        run_dir=run_dir,
        strategy="none",
    ))
    assert dfk.submit(_identity, (3,)).result(timeout=5) == 3
    dfk.cleanup()
    ref = weakref.ref(dfk)
    del dfk
    gc.collect()
    assert ref() is None
