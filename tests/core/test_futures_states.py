"""Tests for AppFuture / DataFuture and task states."""

import pytest

from repro.core.futures import AppFuture, DataFuture
from repro.core.states import FINAL_FAILURE_STATES, FINAL_STATES, States
from repro.core.taskrecord import TaskRecord
from repro.data.files import File


def make_record(task_id=0):
    return TaskRecord(id=task_id, func=lambda: None, func_name="noop")


class TestAppFuture:
    def test_single_update(self):
        fut = AppFuture(make_record(3))
        fut.set_result(10)
        assert fut.result() == 10
        assert fut.tid == 3
        assert fut.task_status() == "unsched"

    def test_outputs_registry(self):
        fut = AppFuture(make_record(1))
        df = DataFuture(fut, File("/tmp/out.txt"), tid=1)
        fut.add_output(df)
        assert fut.outputs == [df]

    def test_repr_states(self):
        fut = AppFuture(make_record(2))
        assert "pending" in repr(fut)
        fut.set_result(None)
        assert "done" in repr(fut)


class TestDataFuture:
    def test_resolves_with_parent(self):
        app_fu = AppFuture(make_record(5))
        data_fu = DataFuture(app_fu, File("/tmp/x.dat"), tid=5)
        assert not data_fu.done()
        app_fu.set_result(0)
        assert data_fu.result(timeout=1).url == "/tmp/x.dat"
        assert data_fu.filename == "x.dat"

    def test_propagates_parent_failure(self):
        app_fu = AppFuture(make_record(6))
        data_fu = DataFuture(app_fu, File("/tmp/y.dat"))
        app_fu.set_exception(RuntimeError("producer failed"))
        with pytest.raises(RuntimeError):
            data_fu.result(timeout=1)

    def test_requires_file(self):
        app_fu = AppFuture(make_record(7))
        with pytest.raises(TypeError):
            DataFuture(app_fu, "/plain/string.txt")

    def test_cannot_cancel_independently(self):
        app_fu = AppFuture(make_record(8))
        data_fu = DataFuture(app_fu, File("/tmp/z.dat"))
        assert data_fu.cancel() is False


class TestStates:
    def test_final_states_partition(self):
        assert States.exec_done in FINAL_STATES
        assert States.memo_done in FINAL_STATES
        assert States.failed in FINAL_FAILURE_STATES
        assert States.pending not in FINAL_STATES
        assert FINAL_FAILURE_STATES <= FINAL_STATES

    def test_str(self):
        assert str(States.launched) == "launched"


class TestCompletionHooksAndTags:
    """DFK task tagging and completion fan-out (the gateway's feed)."""

    def test_hook_fires_on_success_and_failure(self, threads_dfk):
        import threading

        seen = []
        fired = threading.Event()

        def hook(task, state):
            seen.append((task.id, task.tag, state.name))
            if len(seen) >= 2:
                fired.set()

        threads_dfk.add_completion_hook(hook)
        try:
            ok = threads_dfk.submit(lambda: 42, tag="tenant-a")
            assert ok.result(timeout=10) == 42

            def boom():
                raise RuntimeError("nope")

            bad = threads_dfk.submit(boom, tag="tenant-b")
            with pytest.raises(RuntimeError):
                bad.result(timeout=10)
            assert fired.wait(timeout=10)
        finally:
            threads_dfk.remove_completion_hook(hook)
        by_id = {tid: (tag, state) for tid, tag, state in seen}
        assert by_id[ok.tid] == ("tenant-a", "exec_done")
        assert by_id[bad.tid] == ("tenant-b", "failed")

    def test_hook_sees_resolved_app_future(self, threads_dfk):
        import threading

        resolved = []
        fired = threading.Event()

        def hook(task, state):
            resolved.append(task.app_fu.done())
            fired.set()

        threads_dfk.add_completion_hook(hook)
        try:
            assert threads_dfk.submit(lambda: "x").result(timeout=10) == "x"
            assert fired.wait(timeout=10)
        finally:
            threads_dfk.remove_completion_hook(hook)
        assert resolved == [True]

    def test_raising_hook_does_not_break_completion(self, threads_dfk):
        def angry_hook(task, state):
            raise RuntimeError("hook bug")

        threads_dfk.add_completion_hook(angry_hook)
        try:
            assert threads_dfk.submit(lambda: 7).result(timeout=10) == 7
        finally:
            threads_dfk.remove_completion_hook(angry_hook)

    def test_tag_survives_completion(self, threads_dfk):
        future = threads_dfk.submit(lambda: 1, tag="tenant-z")
        assert future.result(timeout=10) == 1
        task = future.task_record
        # A finished record releases its callable and arguments; the tag is a
        # scalar and must remain.
        assert task.tag == "tenant-z"
