"""Worker-side ``walltime_s`` enforcement (the spec field is not advisory).

A task that runs past the ``walltime_s`` in its resource specification is
killed at the worker and fails through its AppFuture with
:class:`~repro.errors.TaskWalltimeExceeded` — and the DFK treats that as
deterministic, so retries are never burned on it.
"""

import time

import pytest

import repro
from repro import Config
from repro.errors import TaskWalltimeExceeded
from repro.executors import HighThroughputExecutor
from repro.executors.execute_task import execute_task
from repro.serialize import deserialize, pack_apply_message


def sleeper(duration):
    time.sleep(duration)
    return "finished"


def wait_for(predicate, timeout=15.0, interval=0.05):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestExecutionKernel:
    def test_task_within_walltime_completes(self):
        buffer = pack_apply_message(sleeper, (0.01,), {})
        outcome = deserialize(execute_task(buffer, walltime_s=5.0))
        assert outcome["result"] == "finished"

    def test_task_past_walltime_killed(self):
        buffer = pack_apply_message(sleeper, (5.0,), {})
        start = time.perf_counter()
        outcome = deserialize(execute_task(buffer, walltime_s=0.2))
        elapsed = time.perf_counter() - start
        assert "exception" in outcome
        assert isinstance(outcome["exception"].e_value, TaskWalltimeExceeded)
        assert elapsed < 3.0, "the kill must happen at the walltime, not at task end"

    def test_walltime_exception_survives_pickle(self):
        import pickle

        exc = TaskWalltimeExceeded("task exceeded its walltime_s resource spec of 1s")
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, TaskWalltimeExceeded)
        assert "1s" in str(clone)


class TestHTEXIntegration:
    def test_walltime_enforced_through_htex(self, run_dir):
        """End to end: spec walltime kills the task; no retries are burned."""
        executor = HighThroughputExecutor(
            label="htex_wall", workers_per_node=2, internal_managers=1
        )
        cfg = Config(executors=[executor], retries=2, run_dir=run_dir, strategy="none")
        dfk = repro.load(cfg)
        try:
            assert wait_for(lambda: executor.connected_workers >= 2)
            future = dfk.submit(
                sleeper, app_args=(10.0,), resource_spec={"walltime_s": 0.3}
            )
            start = time.perf_counter()
            with pytest.raises(TaskWalltimeExceeded):
                future.result(timeout=30)
            assert time.perf_counter() - start < 8.0
            task = future.task_record
            assert task.fail_count == 1, "a walltime kill must not be retried"
            # The worker slot was reclaimed: quick follow-up work still runs.
            follow_up = dfk.submit(sleeper, app_args=(0.01,))
            assert follow_up.result(timeout=30) == "finished"
        finally:
            repro.clear()

    def test_generous_walltime_does_not_interfere(self, run_dir):
        executor = HighThroughputExecutor(
            label="htex_wall_ok", workers_per_node=2, internal_managers=1
        )
        cfg = Config(executors=[executor], run_dir=run_dir, strategy="none")
        dfk = repro.load(cfg)
        try:
            assert wait_for(lambda: executor.connected_workers >= 2)
            future = dfk.submit(
                sleeper, app_args=(0.05,), resource_spec={"walltime_s": 30.0}
            )
            assert future.result(timeout=30) == "finished"
        finally:
            repro.clear()
