"""The HTEX manager's threads, seen from a bare MessageServer.

A manager runs the comms client's reader plus three threads of its own —
``tasks``, ``workers`` and ``heartbeat`` — whatever its worker count. These
tests stand in for the interchange with a raw
:class:`~repro.comms.server.MessageServer` and drive
:class:`~repro.executors.htex.manager.Manager`\\ s, mostly in process mode,
whose workers are real OS processes.
"""

import os
import signal
import sys
import threading
import time

import pytest

from repro.comms.server import MessageServer
from repro.executors.htex import messages as msg
from repro.executors.htex.manager import Manager
from repro.serialize import deserialize, pack_apply_message

# The harness lives beside this file; pytest's rootdir-relative import mode
# puts tests/executors/ on sys.path, so it imports as a top-level module.
from chaos import make_sleeper, wait_for


def _length(blob):
    return len(blob)


def _double(x):
    return 2 * x


@pytest.fixture
def server():
    srv = MessageServer(name="manager-loop-test")
    yield srv
    srv.close()


@pytest.fixture
def start_manager(server):
    managers = []

    def start(**kwargs):
        kwargs.setdefault("heartbeat_period", 0.1)
        kwargs.setdefault("worker_mode", "process")
        manager = Manager("127.0.0.1", server.port, **kwargs)
        manager.start()
        managers.append(manager)
        identity = None
        deadline = time.time() + 10
        while identity is None and time.time() < deadline:
            received = server.recv(timeout=0.1)
            if received is not None and received[1].get("type") == "registration":
                identity = received[0]
        assert identity == manager.manager_id, "the manager never registered"
        return manager

    yield start
    for manager in managers:
        manager.shutdown()


def _send_task(server, manager, task_id, func, *args):
    item = msg.task_item(task_id, pack_apply_message(func, args, {}))
    assert server.send(manager.manager_id, msg.tasks_message([item]))


def _collect(server, wanted, timeout=20.0, reply=False):
    """Frames until every id in ``wanted`` settled: (results by id, heartbeat times).

    With ``reply``, each heartbeat is answered as the interchange would.
    """
    results, heartbeats = {}, []
    deadline = time.time() + timeout
    while time.time() < deadline and not wanted <= results.keys():
        received = server.recv(timeout=0.1)
        if received is None:
            continue
        message = received[1]
        if message.get("type") == "heartbeat":
            heartbeats.append(time.monotonic())
            if reply:
                server.send(received[0], msg.heartbeat_reply_message())
        elif message.get("type") == "results":
            results.update((item["task_id"], item) for item in message["items"])
    return results, heartbeats


def _fork_then_exit(pid_path):
    """Leave a descendant holding the worker's pipe, then die mid-task."""
    child = os.fork()
    if child == 0:
        time.sleep(30)
        os._exit(0)
    with open(pid_path, "w") as f:
        f.write(str(child))
    os._exit(13)


def _value(item):
    return deserialize(item["buffer"])["result"]


@pytest.mark.parametrize("workers", [2, 4])
def test_manager_runs_four_threads_for_any_worker_count(start_manager, workers):
    manager = start_manager(worker_count=workers)
    mid = manager.manager_id
    threads = [t for t in threading.enumerate() if mid in t.name]
    assert sorted(t.name for t in threads) == sorted(
        [f"client-{mid}-reader", f"{mid}-tasks", f"{mid}-workers", f"{mid}-heartbeat"]
    )
    manager.shutdown()
    assert [t.name for t in threads if t.is_alive() and not t.name.startswith("client-")] == []
    for t in threads:
        t.join(timeout=5)  # the comms client's reader ends once its socket closes
    assert [t.name for t in threads if t.is_alive()] == []


def test_heartbeats_keep_their_period_while_a_task_waits_on_a_full_pipe(server, start_manager):
    """A 4 MiB task queued behind a 2 s task blocks the write to its worker's
    pipe, never the heartbeat."""
    manager = start_manager(worker_count=1)
    _send_task(server, manager, 1, make_sleeper(2.0), "slow")
    assert wait_for(lambda: manager._claims[0] == 1), "the worker never claimed the slow task"
    _send_task(server, manager, 2, _length, b"x" * (4 << 20))
    results, heartbeats = _collect(server, {1, 2})
    assert _value(results[1]) == "slow"
    assert _value(results[2]) == 4 << 20
    gaps = [later - earlier for earlier, later in zip(heartbeats, heartbeats[1:])]
    assert len(heartbeats) >= 10, heartbeats
    assert max(gaps) < 1.0, f"a heartbeat waited {max(gaps):.2f}s at period 0.1s"


def test_a_task_waiting_on_a_full_pipe_does_not_make_a_live_interchange_look_lost(
    server, start_manager
):
    """Heartbeat replies count as contact when they are read, not when the
    blocked tasks thread would get round to them."""
    manager = start_manager(worker_count=1, heartbeat_threshold=0.5)
    _send_task(server, manager, 1, make_sleeper(2.0), "slow")
    assert wait_for(lambda: manager._claims[0] == 1), "the worker never claimed the slow task"
    _send_task(server, manager, 2, _length, b"x" * (4 << 20))
    results, _ = _collect(server, {1, 2}, reply=True)
    assert _value(results[1]) == "slow"
    assert _value(results[2]) == 4 << 20
    assert not manager._stop_event.is_set(), "the manager stopped with its interchange alive"


def test_idle_worker_killed_is_replaced_and_runs_the_next_task(server, start_manager):
    manager = start_manager(worker_count=1)
    victim = manager._workers[0]
    os.kill(victim.pid, signal.SIGKILL)
    assert wait_for(lambda: manager.workers_respawned == 1 and manager._workers[0] is not victim)
    assert manager.workers_lost == 1
    replacement = manager._workers[0]
    _send_task(server, manager, 5, _length, b"abc")
    results, _heartbeats = _collect(server, {5})
    assert _value(results[5]) == 3
    assert "worker_lost" not in results[5]
    assert replacement.exitcode is None


def test_worker_dead_while_its_fork_holds_its_pipe_is_replaced(server, start_manager, tmp_path):
    """The worker forks a child that keeps its pipe end open, then exits 13.

    Its loss still settles, the slot is respawned, and the 4 MiB task that
    the tasks thread was writing into the dead worker's full pipe runs on
    the replacement."""
    manager = start_manager(worker_count=1)
    victim = manager._workers[0]
    pid_path = tmp_path / "descendant.pid"
    items = [
        msg.task_item(7, pack_apply_message(_fork_then_exit, (str(pid_path),), {})),
        msg.task_item(8, pack_apply_message(_length, (b"x" * (4 << 20),), {})),
    ]
    assert server.send(manager.manager_id, msg.tasks_message(items))
    try:
        results, _heartbeats = _collect(server, {7, 8})
        assert results[7]["worker_lost"]["exitcode"] == 13
        assert _value(results[8]) == 4 << 20
        assert manager.workers_respawned == 1 and manager._workers[0] is not victim
    finally:
        if pid_path.exists():
            os.kill(int(pid_path.read_text()), signal.SIGKILL)


def test_every_task_settles_once_under_a_short_switch_interval(server, start_manager):
    """Tasks thread, worker loop and four thread workers share the routing
    tables; with the interpreter switching threads every few microseconds,
    every task still settles exactly once and the tables end empty."""
    manager = start_manager(worker_count=4, worker_mode="thread", heartbeat_period=0.5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for start in range(0, 400, 8):
            items = [msg.task_item(i, pack_apply_message(_double, (i,), {})) for i in range(start, start + 8)]
            assert server.send(manager.manager_id, msg.tasks_message(items))
        results, _heartbeats = _collect(server, set(range(400)), timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(results) == list(range(400))
    assert manager.results_sent == 400, "a task settled twice"
    assert all(_value(item) == 2 * task_id for task_id, item in results.items())
    assert not manager._unsettled
    assert not any(manager._assigned)
