"""Integration tests: the DataFlowKernel driving real executors end to end."""

import os
import time

import pytest

import repro
from repro import Config, File, python_app
from repro.data.object_store import get_default_store
from repro.errors import DependencyError
from repro.executors import HighThroughputExecutor, ThreadPoolExecutor
from repro.monitoring import MessageType, MonitoringHub, workflow_summary


def make_local_config(run_dir, **overrides):
    """A fast, fully local configuration (internal HTEX + thread pool)."""
    defaults = dict(
        executors=[
            HighThroughputExecutor(label="htex_local", workers_per_node=4, internal_managers=1),
            ThreadPoolExecutor(label="threads", max_threads=2),
        ],
        retries=0,
        run_dir=run_dir,
        strategy="none",
    )
    defaults.update(overrides)
    return Config(**defaults)


@python_app
def increment(x):
    return x + 1


@python_app
def add_all(*values):
    return sum(values)


@python_app
def fail_unless_marker(path):
    if not os.path.exists(path):
        with open(path, "w") as fh:
            fh.write("attempted")
        raise RuntimeError("transient failure")
    return "recovered"


@python_app
def always_raise():
    raise ValueError("permanent failure")


@python_app
def slow_value(x, delay=0.3):
    time.sleep(delay)
    return x


@python_app
def read_staged(inputs=None):
    with open(inputs[0].filepath) as fh:
        return fh.read().strip()


class TestDependencyGraph:
    def test_diamond_dependency(self, local_dfk):
        a = increment(0)
        b = increment(a)
        c = increment(a)
        d = add_all(b, c)
        assert d.result(timeout=30) == 4

    def test_wide_fanout_and_reduce(self, local_dfk):
        layer = [increment(i) for i in range(30)]
        total = add_all(*layer)
        assert total.result(timeout=60) == sum(range(1, 31))

    def test_deep_chain(self, local_dfk):
        fut = increment(0)
        for _ in range(15):
            fut = increment(fut)
        assert fut.result(timeout=60) == 16

    def test_futures_inside_lists(self, threads_dfk):
        @python_app
        def total(inputs=None):
            return sum(inputs)

        parts = [increment(i) for i in range(5)]
        assert total(inputs=parts).result(timeout=30) == sum(range(1, 6))

    def test_dependency_failure_propagates(self, threads_dfk):
        bad = always_raise()
        dependent = increment(bad)
        with pytest.raises(DependencyError):
            dependent.result(timeout=30)
        # The chain keeps propagating.
        second = increment(dependent)
        with pytest.raises(DependencyError):
            second.result(timeout=30)

    def test_task_summary_counts(self, threads_dfk):
        futures = [increment(i) for i in range(5)]
        for f in futures:
            f.result(timeout=30)
        threads_dfk.wait_for_current_tasks(timeout=30)
        summary = threads_dfk.task_summary()
        assert sum(summary.values()) >= 5


class TestRetriesAndFaultTolerance:
    def test_retry_recovers_transient_failure(self, run_dir, tmp_path):
        repro.load(make_local_config(run_dir, retries=2))
        try:
            marker = str(tmp_path / "marker.txt")
            future = fail_unless_marker(marker)
            assert future.result(timeout=60) == "recovered"
            record = future.task_record
            assert record.fail_count == 1
        finally:
            repro.clear()

    def test_retries_exhausted_raises_original(self, run_dir):
        repro.load(make_local_config(run_dir, retries=1))
        try:
            with pytest.raises(ValueError, match="permanent failure"):
                always_raise().result(timeout=60)
        finally:
            repro.clear()

    def test_retry_pending_backoff_resolves_at_cleanup(self, run_dir):
        """A retry waiting out its backoff when the DFK shuts down must still
        resolve its AppFuture (with an error) rather than hang forever."""
        repro.load(make_local_config(run_dir, retries=1, retry_backoff_s=1.0))
        fut = always_raise()
        deadline = time.time() + 10
        while fut.task_record.fail_count < 1 and time.time() < deadline:
            time.sleep(0.02)
        assert fut.task_record.fail_count >= 1
        repro.clear()  # cleanup lands inside the 1s backoff window
        with pytest.raises(Exception):
            fut.result(timeout=10)

    def test_submit_after_cleanup_rejected(self, run_dir):
        from repro.errors import DataFlowKernelClosedError

        dfk = repro.load(make_local_config(run_dir))
        repro.clear()
        with pytest.raises(DataFlowKernelClosedError):
            dfk.submit(lambda: 1, app_args=())

    def test_spec_rejecting_executor_fails_fast_without_retries(self, run_dir):
        """LLEX's categorical spec rejection is deterministic too: it must
        not burn retries × backoff any more than an unsatisfiable spec."""
        from repro.executors.llex.executor import LowLatencyExecutor
        from repro.errors import UnsupportedFeatureError

        cfg = Config(
            executors=[LowLatencyExecutor(label="llex", internal_workers=1)],
            retries=2,
            retry_backoff_s=5.0,
            run_dir=run_dir,
            strategy="none",
        )
        repro.load(cfg)
        try:
            start = time.time()
            fut = increment(1, resource_spec={"priority": 1})
            with pytest.raises(UnsupportedFeatureError):
                fut.result(timeout=10)
            assert time.time() - start < 5
            assert fut.task_record.fail_count == 1
        finally:
            repro.clear()

    def test_unsatisfiable_resource_spec_fails_fast_without_retries(self, run_dir):
        """A spec no manager can ever fit is deterministic: it must fail
        through the AppFuture immediately, not burn retries × backoff."""
        from repro.errors import ResourceSpecError

        repro.load(make_local_config(run_dir, retries=3, retry_backoff_s=5.0))
        try:
            start = time.time()
            # The spec's affinity pins the task to HTEX (the thread pool
            # would ignore a core request it cannot interpret).
            fut = increment(1, resource_spec={"cores": 99, "executors": ["htex_local"]})
            with pytest.raises(ResourceSpecError):
                fut.result(timeout=10)
            assert time.time() - start < 5, "unsatisfiable spec went through retry backoff"
            assert fut.task_record.fail_count == 1  # one attempt, no retries
        finally:
            repro.clear()


class TestMemoizationAndCheckpointing:
    def test_memoization_within_run(self, run_dir):
        repro.load(make_local_config(run_dir))
        try:
            first = slow_value(7, delay=0.3)
            assert first.result(timeout=30) == 7
            start = time.perf_counter()
            second = slow_value(7, delay=0.3)
            assert second.result(timeout=30) == 7
            assert time.perf_counter() - start < 0.2
        finally:
            repro.clear()

    def test_checkpoint_reused_across_runs(self, run_dir, tmp_path):
        cfg1 = make_local_config(run_dir, checkpoint_mode="dfk_exit")
        dfk1 = repro.load(cfg1)
        slow_value(99, delay=0.3).result(timeout=30)
        run1_dir = dfk1.run_dir
        repro.clear()

        cfg2 = make_local_config(run_dir, checkpoint_files=[run1_dir])
        repro.load(cfg2)
        try:
            start = time.perf_counter()
            assert slow_value(99, delay=0.3).result(timeout=30) == 99
            assert time.perf_counter() - start < 0.2
        finally:
            repro.clear()

    def test_task_exit_checkpoints_append_o_delta(self, run_dir):
        """task_exit mode appends per-task deltas during the run (never
        rewriting the table), and cleanup collapses them into one snapshot."""
        import glob

        dfk = repro.load(make_local_config(run_dir, checkpoint_mode="task_exit"))
        run1_dir = dfk.run_dir
        delta_path = os.path.join(run1_dir, "checkpoint", "tasks.delta.pkl")
        snapshot_path = os.path.join(run1_dir, "checkpoint", "tasks.pkl")
        sizes = []
        try:
            for i in range(100, 105):
                # The delta append happens before the AppFuture resolves, so
                # the file is current as soon as result() returns.
                increment(i).result(timeout=30)
                sizes.append(os.path.getsize(delta_path))
            # Each completed task appended roughly one entry's worth of
            # bytes: growth per task must not scale with the table size.
            growths = [b - a for a, b in zip(sizes, sizes[1:])]
            assert all(g > 0 for g in growths)
            assert max(growths) <= 4 * sizes[0]
            # No full snapshot was written while the run was live.
            assert not os.path.exists(snapshot_path)
        finally:
            repro.clear()
        # Cleanup wrote the full snapshot and removed the delta log.
        assert os.path.exists(snapshot_path)
        assert not os.path.exists(delta_path)
        from repro.core.checkpoint import load_checkpoints

        assert len(load_checkpoints([run1_dir])) == 5
        assert glob.glob(os.path.join(run1_dir, "checkpoint", "*.tmp")) == []

    def test_manual_checkpoint_writes_file(self, run_dir):
        dfk = repro.load(make_local_config(run_dir, checkpoint_mode="manual"))
        try:
            increment(1).result(timeout=30)
            path = dfk.checkpoint()
            assert path is not None and os.path.exists(path)
        finally:
            repro.clear()


class TestMultiExecutor:
    def test_tasks_spread_across_executors(self, run_dir):
        repro.load(make_local_config(run_dir))
        try:
            futures = [increment(i) for i in range(40)]
            for f in futures:
                f.result(timeout=60)
            used = {f.task_record.executor for f in futures}
            assert used == {"htex_local", "threads"}
        finally:
            repro.clear()


class TestStagingIntegration:
    def test_http_input_staged_through_graph(self, run_dir):
        store = get_default_store()
        url = f"http://repro.test/inputs/{time.time()}.txt"
        store.put(url, b"staged-content")
        repro.load(make_local_config(run_dir))
        try:
            assert read_staged(inputs=[File(url)]).result(timeout=60) == "staged-content"
        finally:
            repro.clear()


class TestMonitoringIntegration:
    def test_states_recorded_per_task(self, run_dir):
        hub = MonitoringHub()
        repro.load(make_local_config(run_dir, monitoring=hub))
        try:
            futures = [increment(i) for i in range(5)]
            for f in futures:
                f.result(timeout=30)
        finally:
            repro.clear()
        rows = hub.query(MessageType.TASK_STATE)
        states = {r["state"] for r in rows}
        assert {"pending", "launched", "exec_done"} <= states
        summary = workflow_summary(hub)
        assert summary["tasks"] >= 5
        assert summary["final_state_counts"].get("exec_done", 0) >= 5


class TestElasticityIntegration:
    def test_strategy_scales_out_local_provider(self, run_dir, tmp_path):
        """The real strategy loop grows blocks under load (scaled-down Fig. 6 behaviour)."""
        from repro.providers import LocalProvider

        provider = LocalProvider(init_blocks=1, min_blocks=1, max_blocks=3,
                                 script_dir=str(tmp_path / "scripts"))
        htex = HighThroughputExecutor(
            label="htex_elastic", provider=provider, workers_per_node=1, heartbeat_threshold=15
        )
        cfg = Config(executors=[htex], run_dir=run_dir, strategy="simple", strategy_period=0.2, max_idletime=60)
        repro.load(cfg)
        try:
            futures = [slow_value(i, delay=1.0) for i in range(12)]
            deadline = time.time() + 20
            while time.time() < deadline and len(htex.blocks) < 2:
                time.sleep(0.2)
            assert len(htex.blocks) >= 2, "strategy never scaled out"
            for f in futures:
                f.result(timeout=120)
        finally:
            repro.clear()
