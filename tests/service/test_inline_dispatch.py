"""Tests for the gateway's inline dispatch: a queued task enters its shard's
DFK on the thread that queued it or freed a window slot, with no thread of
its own per shard."""

import threading

import pytest

import repro
from repro import Config
from repro.executors import ThreadPoolExecutor
from repro.serialize import deserialize, pack_apply_message
from repro.service import WorkflowGateway
from repro.service.store import SessionStore

from faults import wait_for


def noop(x):
    return x


def make_dfk(run_dir):
    return repro.DataFlowKernel(
        Config(
            executors=[ThreadPoolExecutor(label="threads", max_threads=2)],
            run_dir=run_dir,
            strategy="none",
            app_cache=False,
            retries=0,
        )
    )


@pytest.fixture
def dfks(tmp_path):
    kernels = [make_dfk(str(tmp_path / f"dfk-{i}")) for i in range(2)]
    yield kernels
    for dfk in kernels:
        dfk.cleanup()


def gateway_threads(threads):
    return sorted(t.name for t in threads if t.name.startswith("gateway-"))


@pytest.mark.parametrize("n_shards", [1, 2])
def test_gateway_runs_no_thread_per_shard(dfks, n_shards):
    before = set(threading.enumerate())
    gw = WorkflowGateway(dfks[:n_shards]).start()
    try:
        ours = [t for t in threading.enumerate() if t not in before]
        assert gateway_threads(ours) == ["gateway-accept", "gateway-sender", "gateway-service"]
    finally:
        gw.stop()
    assert gateway_threads(t for t in ours if t.is_alive()) == []


def test_task_row_commits_before_its_result(dfks, tmp_path):
    """A task that finishes inside ``dfk.submit`` delivers its result on the
    submitting thread; its write-ahead row must still commit first, or the
    result's commit cannot retire it and a restart would run it again."""
    path = str(tmp_path / "sessions.db")
    gw = WorkflowGateway(dfks[0], store_path=path).start()
    try:
        sid = gw.open_session("alice")["session"]
        acks = []
        for cid in range(50):
            gw.submit(sid, cid, pack_apply_message(noop, (cid,), {}), None, acks.append)
        assert wait_for(
            lambda: all(gw.task_state(sid, cid)[0] == "done" for cid in range(50)), timeout=30
        )
        assert wait_for(lambda: len(acks) == 50, timeout=10)
    finally:
        gw.stop()
    (record,) = SessionStore(path).load().values()
    assert record.tasks == {}
    assert sorted(cid for _, cid, _, _ in record.results) == list(range(50))


@pytest.mark.parametrize("close", ["cleanup", "executor_shutdown"])
def test_fail_fast_backlog_drains_without_recursion(dfks, close):
    """A window of one over a backlog whose every task fails inside
    ``dfk.submit``: each freed slot re-enters dispatch on the same thread,
    which must not nest once per task."""
    n_tasks = 1500
    dfk = dfks[0]
    gw = WorkflowGateway(dfk, window=1, max_inflight_per_tenant=n_tasks,
                         replay_limit=n_tasks)
    welcome = gw.open_session("alice")
    sid = welcome["session"]
    frames = []
    gw.resume_session("alice", sid, welcome["session_token"], sink=frames.append)
    for cid in range(n_tasks):
        gw.submit(sid, cid, pack_apply_message(noop, (cid,), {}), None, lambda frame: None)
    assert gw.shards[0].queue.qsize() == n_tasks  # nothing dispatches before start()
    if close == "cleanup":
        dfk.cleanup()  # dfk.submit raises
    else:
        dfk.executors["threads"].shutdown()  # each task fails inside dfk.submit
    gw.start()
    try:
        assert wait_for(lambda: len(frames) >= n_tasks, timeout=30)
    finally:
        gw.stop()
    assert sorted(f["client_task_id"] for f in frames) == list(range(n_tasks))
    for frame in frames:
        assert not frame["success"]
        assert not isinstance(deserialize(frame["buffer"]), RecursionError)
    assert gw.stats()["alice"]["failed"] == n_tasks
