"""Tests for task-record lifetime and counter-based completion tracking.

The DFK keeps no task table: a finished task is freed once nothing needs
it, and a held AppFuture keeps only its own record, which has released its
callable, arguments and dependency futures (verified here via weakrefs and
tracemalloc). The counters half — ``task_summary()`` /
``outstanding_tasks()`` / ``wait_for_current_tasks()`` — must agree with a
scan over the records, including under concurrent completions.
"""

import gc
import os
import threading
import time
import tracemalloc
import weakref

import pytest

from repro.core.states import FINAL_STATES


class Payload:
    """A weakref-able argument object."""


def _make_function():
    """A per-call function object, so it can be garbage collected."""

    def dynamic_app(obj, extra=None):
        return "ran"

    return dynamic_app


def _make_failing_function():
    def failing_app(obj, extra=None):
        raise RuntimeError("nope")

    return failing_app


def inc(x):
    return x + 1


def sink(_blob):
    return None


def _drain_pool(dfk):
    """Return once every pool thread has finished the work it took earlier.

    A ThreadPool task's completion, release included, runs on its worker
    thread inside the work item. The pool hands out work in order, so once
    every worker is parked on one barrier, every earlier item is finished.
    """
    executor = dfk.executors["threads"]
    barrier = threading.Barrier(executor.max_threads + 1)
    parked = [executor.submit(barrier.wait, {}, 30) for _ in range(executor.max_threads)]
    barrier.wait(timeout=30)
    for future in parked:
        future.result(timeout=30)


def _submit_and_drop(dfk, func):
    """Submit ``func(payload, extra=kw_payload)`` and wait for it; return
    weakrefs to the record, both payloads and the callable, keeping none."""
    payload = Payload()
    kw_payload = Payload()
    fut = dfk.submit(func, app_args=(payload,), app_kwargs={"extra": kw_payload}, cache=False)
    try:
        fut.result(timeout=30)
    except RuntimeError:
        pass
    return [weakref.ref(fut.task_record), weakref.ref(payload), weakref.ref(kw_payload), weakref.ref(func)]


class TestLifetime:
    def test_dropped_future_frees_record_args_and_func(self, threads_dfk):
        refs = _submit_and_drop(threads_dfk, _make_function())
        threads_dfk.cleanup()  # joins the pool: every completion, release included, is done
        gc.collect()
        assert [r() for r in refs] == [None] * 4, "a finished task outlived its future"

    def test_failed_task_is_freed_too(self, threads_dfk):
        refs = _submit_and_drop(threads_dfk, _make_failing_function())
        threads_dfk.cleanup()
        gc.collect()
        assert [r() for r in refs] == [None] * 4, "a failed task outlived its future"

    def test_completion_hook_reads_args_before_release(self, threads_dfk):
        """A record is released only after its completion hooks ran, so a
        hook can still read the task's arguments."""
        seen = []
        threads_dfk.add_completion_hook(lambda task, state: seen.append(task.args))
        fut = threads_dfk.submit(inc, app_args=(41,), cache=False)
        assert fut.result(timeout=30) == 42
        threads_dfk.cleanup()
        assert seen == [(41,)]
        assert fut.task_record.args == ()

    def test_held_future_keeps_only_its_own_record(self, threads_dfk):
        """A held future must not pin its upstream records through the
        dependency futures its record held."""
        fut = threads_dfk.submit(inc, app_args=(0,), cache=False)
        upstream = []
        for _ in range(199):
            upstream.append(weakref.ref(fut.task_record))
            fut = threads_dfk.submit(inc, app_args=(fut,), cache=False)
        assert fut.result(timeout=60) == 200
        threads_dfk.cleanup()
        gc.collect()
        alive = sum(1 for ref in upstream if ref() is not None)
        assert alive == 0, f"{alive} of {len(upstream)} upstream records pinned by the last future"
        record = fut.task_record
        assert record.args == () and record.depends == [] and record.func is None


class TestMemory:
    @pytest.mark.parametrize(
        "submit_kwargs, bound",
        [({"cache": False}, 64), ({}, 512)],
        ids=["cache_off", "default"],
    )
    def test_finished_task_memory_flat(self, threads_dfk, submit_kwargs, bound):
        """Waves of tasks with a 10 kB argument each, futures dropped after
        every wave: the traced memory a finished task leaves behind must stay
        under ``bound`` — nothing with ``cache=False``, the memo entry with
        the default config — and must not grow late in the run."""
        waves, wave, payload_bytes = 5, 2_000, 10_240
        samples = []
        tracemalloc.start()
        try:
            for _ in range(waves):
                futures = [
                    threads_dfk.submit(sink, app_args=(os.urandom(payload_bytes),), **submit_kwargs)
                    for _ in range(wave)
                ]
                for f in futures:
                    f.result(timeout=300)
                del futures, f
                _drain_pool(threads_dfk)
                gc.collect()
                samples.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()

        per_task = [(b - a) / wave for a, b in zip(samples, samples[1:])]
        assert max(per_task) <= bound, (
            f"finished tasks leave {[round(p) for p in per_task]} B each; bound {bound} B"
        )
        # Flat: the late-run slope must not exceed the early-run slope.
        half = len(per_task) // 2
        early = sum(per_task[:half]) / half
        late = sum(per_task[half:]) / (len(per_task) - half)
        assert late <= max(2.0 * early, bound / 4), (
            f"memory slope grew late in the run ({early:.0f} -> {late:.0f} B/task)"
        )


class TestCounterTracking:
    def test_summary_and_outstanding_agree_with_table_scan(self, threads_dfk):
        def quick(x):
            return x

        futures = [threads_dfk.submit(quick, app_args=(i,), cache=False) for i in range(50)]
        # Mid-flight: every sample must account for all 50 registered tasks.
        while threads_dfk.outstanding_tasks() > 0:
            summary = threads_dfk.task_summary()
            assert sum(summary.values()) == 50
        assert [f.result(timeout=30) for f in futures] == list(range(50))
        assert threads_dfk.wait_for_current_tasks(timeout=30)
        # Settled: counters must equal a full O(n) scan of the records.
        records = [f.task_record for f in futures]
        scan = {}
        for task in records:
            scan[task.status.name] = scan.get(task.status.name, 0) + 1
        assert threads_dfk.task_summary() == scan
        assert threads_dfk.outstanding_tasks() == sum(
            1 for t in records if t.status not in FINAL_STATES
        ) == 0

    def test_counters_agree_under_concurrent_completions(self, threads_dfk):
        stop = threading.Event()
        violations = []

        def sampler():
            while not stop.is_set():
                total = sum(threads_dfk.task_summary().values())
                outstanding = threads_dfk.outstanding_tasks()
                if outstanding < 0 or total < 0:
                    violations.append((total, outstanding))

        thread = threading.Thread(target=sampler, daemon=True)
        thread.start()
        try:
            futures = [
                threads_dfk.submit(time.sleep, app_args=(0.001,), cache=False)
                for _ in range(200)
            ]
            for f in futures:
                f.result(timeout=60)
            assert threads_dfk.wait_for_current_tasks(timeout=60)
        finally:
            stop.set()
            thread.join(timeout=5)
        assert not violations
        assert sum(threads_dfk.task_summary().values()) == 200
        assert threads_dfk.task_summary().get("exec_done") == 200

    def test_wait_for_current_tasks_times_out_then_completes(self, threads_dfk):
        fut = threads_dfk.submit(time.sleep, app_args=(0.5,), cache=False)
        assert threads_dfk.wait_for_current_tasks(timeout=0.05) is False
        assert threads_dfk.wait_for_current_tasks(timeout=30) is True
        assert fut.done()

    def test_wait_wakes_promptly_on_completion(self, threads_dfk):
        """The waiter must be woken by the completing transition, not a poll
        deadline: a 0.3 s task should release the barrier well under the
        generous timeout."""
        threads_dfk.submit(time.sleep, app_args=(0.3,), cache=False)
        start = time.perf_counter()
        assert threads_dfk.wait_for_current_tasks(timeout=30)
        assert time.perf_counter() - start < 5.0
