"""What an HTEX manager puts on the wire, seen from a bare MessageServer.

The interchange's ledger is the only record of a manager's capacity, so a
manager sends nothing but heartbeats and result batches after it registers.
These tests stand in for the interchange with a raw
:class:`~repro.comms.server.MessageServer` and drive one thread-mode
:class:`~repro.executors.htex.manager.Manager`.
"""

import threading
import time

import pytest

from repro.comms.server import MessageServer
from repro.executors.htex import messages as msg
from repro.executors.htex.manager import Manager
from repro.serialize import pack_apply_message


def _double(x):
    return 2 * x


@pytest.fixture
def server():
    srv = MessageServer(name="frames-test")
    yield srv
    srv.close()


@pytest.fixture
def manager(server):
    m = Manager("127.0.0.1", server.port, worker_count=2, worker_mode="thread", heartbeat_period=0.05)
    m.start()
    yield m
    m.shutdown()


def _await_registration(server, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        received = server.recv(timeout=0.1)
        if received is not None and received[1].get("type") == "registration":
            return received[0]
    raise AssertionError("the manager never registered")


def _results_until(server, wanted, min_heartbeats=0, timeout=10.0):
    """Collect frames until every id in ``wanted`` has settled.

    Returns ``(frame types seen, settled ids in arrival order, heartbeats)``.
    """
    types, settled, heartbeats = [], [], 0
    deadline = time.time() + timeout
    while time.time() < deadline and (not wanted <= set(settled) or heartbeats < min_heartbeats):
        received = server.recv(timeout=0.1)
        if received is None:
            continue
        message = received[1]
        types.append(message.get("type"))
        if message.get("type") == "heartbeat":
            heartbeats += 1
        elif message.get("type") == "results":
            settled.extend(item["task_id"] for item in message["items"])
    return types, settled, heartbeats


def test_manager_sends_only_heartbeats_and_results(server, manager):
    identity = _await_registration(server)
    for start in range(0, 20, 5):
        items = [msg.task_item(i, pack_apply_message(_double, (i,), {})) for i in range(start, start + 5)]
        assert server.send(identity, msg.tasks_message(items))
    types, settled, heartbeats = _results_until(server, set(range(20)), min_heartbeats=3)
    assert sorted(settled) == list(range(20)), "every task settles exactly once"
    assert heartbeats >= 3
    assert set(types) == {"heartbeat", "results"}
    assert not manager._unsettled


def test_shutdown_sends_queued_results_then_ends_the_pusher(server, manager):
    """Results queued before the stop go out, and no pusher outlives shutdown."""
    _await_registration(server)
    with manager._tasks_lock:
        manager._unsettled.add(99)
    manager._result_queue.put(msg.worker_lost_item(99, 0, "host-x"))
    manager.shutdown()
    alive = [t.name for t in threading.enumerate() if t.name == f"{manager.manager_id}-result-pusher"]
    assert alive == []
    _types, settled, _heartbeats = _results_until(server, {99})
    assert settled == [99]
