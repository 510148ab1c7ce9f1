"""Tests for the @python_app, @bash_app, and @join_app decorators."""

import time

import pytest

import repro
from repro import File, bash_app, join_app, python_app
from repro.core.futures import AppFuture
from repro.errors import AppTimeout, BashExitFailure, BashAppNoReturn, NoSuchExecutorError


@python_app
def py_add(a, b):
    return a + b


@python_app(cache=False)
def py_uncached_time():
    return time.time()


@python_app(executors=["threads"])
def py_on_threads():
    import threading
    return threading.current_thread().name


@bash_app
def bash_echo(message, stdout=None, stderr=None):
    return f"echo {message}"


@bash_app
def bash_fail():
    return "exit 7"


@bash_app
def bash_no_command():
    return ""


@bash_app
def bash_make_file(outputs=None):
    return "echo payload > {}".format(outputs[0].filepath)


@python_app
def py_read(inputs=None):
    with open(inputs[0].filepath) as fh:
        return fh.read().strip()


@python_app
def py_sleepy(duration):
    time.sleep(duration)
    return duration


@join_app
def join_fanout(n):
    return [py_add(i, 1) for i in range(n)]


@join_app
def join_single(x):
    return py_add(x, 100)


@join_app
def join_bad():
    return 42  # not a future


class TestPythonApps:
    def test_returns_app_future(self, threads_dfk):
        fut = py_add(1, 2)
        assert isinstance(fut, AppFuture)
        assert fut.result(timeout=10) == 3
        assert fut.task_status() in ("exec_done", "memo_done")

    def test_executor_pinning(self, local_dfk):
        name = py_on_threads().result(timeout=10)
        assert name.startswith("repro-worker")

    def test_unknown_executor_label(self, threads_dfk):
        @python_app(executors=["gpu_cluster"])
        def nope():
            return 1

        with pytest.raises(NoSuchExecutorError):
            nope()

    def test_cache_false_reexecutes(self, threads_dfk):
        first = py_uncached_time().result(timeout=10)
        second = py_uncached_time().result(timeout=10)
        assert first != second

    def test_walltime_timeout(self, threads_dfk):
        fut = py_sleepy(5, walltime=0.2)
        with pytest.raises(AppTimeout):
            fut.result(timeout=10)

    def test_walltime_success(self, threads_dfk):
        assert py_sleepy(0.01, walltime=5).result(timeout=10) == 0.01

    def test_kwargs_and_defaults(self, threads_dfk):
        @python_app
        def with_default(a, b=10):
            return a * b

        assert with_default(3).result(timeout=10) == 30
        assert with_default(3, b=2).result(timeout=10) == 6


class TestBashApps:
    def test_stdout_redirection(self, threads_dfk, tmp_path):
        out = tmp_path / "echo.out"
        fut = bash_echo("hello-bash", stdout=str(out))
        assert fut.result(timeout=20) == 0
        assert out.read_text().strip() == "hello-bash"

    def test_nonzero_exit_raises(self, threads_dfk):
        with pytest.raises(BashExitFailure) as excinfo:
            bash_fail().result(timeout=20)
        assert excinfo.value.exitcode == 7

    def test_empty_command_rejected(self, threads_dfk):
        with pytest.raises(BashAppNoReturn):
            bash_no_command().result(timeout=20)

    def test_outputs_produce_datafutures(self, threads_dfk, tmp_path):
        target = File(str(tmp_path / "made.txt"))
        fut = bash_make_file(outputs=[target])
        assert fut.result(timeout=20) == 0
        assert len(fut.outputs) == 1
        staged = fut.outputs[0].result(timeout=10)
        assert open(staged.filepath).read().strip() == "payload"

    def test_file_chaining_between_apps(self, threads_dfk, tmp_path):
        """bash app writes a file; python app depends on it via the DataFuture."""
        intermediate = File(str(tmp_path / "chain.txt"))
        producer = bash_make_file(outputs=[intermediate])
        consumer = py_read(inputs=[producer.outputs[0]])
        assert consumer.result(timeout=20) == "payload"


class TestJoinApps:
    def test_join_list(self, threads_dfk):
        assert join_fanout(4).result(timeout=20) == [1, 2, 3, 4]

    def test_join_single_future(self, threads_dfk):
        assert join_single(1).result(timeout=20) == 101

    def test_join_non_future_fails(self, threads_dfk):
        from repro.errors import JoinError

        with pytest.raises(JoinError):
            join_bad().result(timeout=20)


class TestDecoratorForms:
    def test_bare_and_called_decorators(self, threads_dfk):
        @python_app
        def bare(x):
            return x

        @python_app()
        def called(x):
            return x

        assert bare(1).result(timeout=10) == 1
        assert called(2).result(timeout=10) == 2

    def test_wrapping_preserves_metadata(self):
        assert py_add.__name__ == "py_add"


class TestSchedulingKeywords:
    def test_call_time_priority_consumed_not_forwarded(self, threads_dfk):
        @python_app
        def plain(x):
            return x

        # priority= is a scheduling keyword: never reaches the body.
        assert plain(5, priority=9).result(timeout=10) == 5

    def test_app_declaring_priority_param_keeps_receiving_it(self, threads_dfk):
        @python_app
        def rank(items, priority=1):
            return [priority] * len(items)

        # The function's own signature wins: priority=3 is an ordinary
        # argument here, not a scheduling hint.
        assert rank([1, 2], priority=3).result(timeout=10) == [3, 3]

    def test_var_keyword_app_keeps_receiving_priority(self, threads_dfk):
        @python_app
        def render(**opts):
            return opts

        # **kwargs counts as the function declaring the name: the value
        # reaches the body exactly as it did before the scheduling kwargs
        # existed.
        assert render(priority=2).result(timeout=10) == {"priority": 2}

    def test_decorator_spec_still_applies_when_name_clashes(self, threads_dfk):
        @python_app(priority=7)
        def rank(items, priority=1):
            return priority

        fut = rank([1], priority=2)
        assert fut.result(timeout=10) == 2  # call-time value reached the body
        assert fut.task_record.priority == 7  # decorator value scheduled it
