"""Deterministic worker-crash containment tests (tier-1).

Single, targeted SIGKILLs of real worker processes — one fault per test, so
the assertions are exact. The sustained-fire campaigns live in
``test_chaos.py`` behind the ``chaos`` marker.
"""

import os
import signal
import time

import pytest

from repro.comms import MessageClient
from repro.errors import ManagerLost, WorkerLost, WorkerPoisonError
from repro.executors import HighThroughputExecutor
from repro.executors.htex import messages as msg
from repro.executors.htex.interchange import Interchange
from repro.executors.htex.worker import NO_CLAIM

# The harness lives beside this file; pytest's rootdir-relative import mode
# puts tests/executors/ on sys.path, so it imports as a top-level module.
from chaos import attach_process_manager, make_poison_task, make_sleeper, wait_for


@pytest.fixture
def htex_bare():
    """An HTEX with interchange but *no* managers; tests attach their own."""
    ex = HighThroughputExecutor(
        label="htex_crash",
        workers_per_node=2,
        internal_managers=0,
        heartbeat_period=0.25,
        heartbeat_threshold=30.0,
    )
    ex.start()
    yield ex
    ex.shutdown()


def _claimed_worker(manager):
    """(worker, task_id) for the first worker currently holding a claim."""
    for worker_id, worker in enumerate(manager._workers):
        claimed = manager._claims[worker_id]
        if claimed != NO_CLAIM:
            return worker, int(claimed)
    return None


class TestWorkerCrashContainment:
    def test_kill_mid_task_redispatches_and_completes(self, htex_bare):
        """SIGKILL a worker holding a task: the task still completes.

        The worker loop reads the dead worker's claim, synthesizes a loss,
        respawns the slot; the interchange charges the kill to the task and
        redispatches it (kill 1 < threshold), so the future resolves with the
        right answer — the caller never sees the crash.
        """
        manager = attach_process_manager(htex_bare.interchange, worker_count=2)
        try:
            assert wait_for(lambda: htex_bare.connected_workers >= 2)
            fut = htex_bare.submit(make_sleeper(1.5), {}, 42)
            found = wait_for(lambda: _claimed_worker(manager), timeout=10)
            assert found, "no worker ever claimed the task"
            worker, _claimed_task = found
            os.kill(worker.pid, signal.SIGKILL)
            assert fut.result(timeout=30) == 42
            assert manager.workers_lost >= 1
            assert manager.workers_respawned >= 1
            faults = htex_bare.interchange.fault_stats()
            assert faults["workers_lost"] >= 1
            assert faults["tasks_redispatched"] >= 1
            assert faults["tasks_poisoned"] == 0
            # Core-slot accounting converges back to zero on both sides.
            assert wait_for(lambda: htex_bare.interchange.fault_stats()["in_flight_cores"] == 0)
            assert wait_for(lambda: not manager._unsettled)
            # Every claim slot is clear once the dust settles.
            assert wait_for(
                lambda: all(manager._claims[i] == NO_CLAIM for i in range(manager.worker_count))
            )
        finally:
            manager.shutdown()

    def test_poison_task_quarantined_with_typed_error(self, htex_bare):
        """A task that os._exit()s its worker fails typed, within 2 kills."""
        manager = attach_process_manager(htex_bare.interchange, worker_count=2)
        try:
            assert wait_for(lambda: htex_bare.connected_workers >= 2)
            fut = htex_bare.submit(make_poison_task(13), {})
            with pytest.raises(WorkerPoisonError) as excinfo:
                fut.result(timeout=60)
            assert excinfo.value.kills == htex_bare.poison_threshold == 2
            faults = htex_bare.interchange.fault_stats()
            assert faults["tasks_poisoned"] == 1
            assert faults["workers_lost"] == 2  # exactly threshold kills, then quarantine
            # The pool healed: respawned workers still run healthy tasks.
            assert htex_bare.submit(make_sleeper(0.0), {}, "ok").result(timeout=30) == "ok"
            assert manager.workers_respawned >= 2
        finally:
            manager.shutdown()

    def test_respawn_budget_exhaustion_ends_in_manager_lost(self):
        """Budget 0: one worker death fells the manager; futures get ManagerLost.

        The manager must exit (stop heartbeating) rather than limp on with an
        empty pool, so the interchange's ManagerLost machinery settles
        whatever it held — the submitted future fails instead of hanging.
        """
        ex = HighThroughputExecutor(
            label="htex_budget",
            workers_per_node=1,
            internal_managers=0,
            heartbeat_period=0.2,
            heartbeat_threshold=1.5,
        )
        ex.start()
        manager = attach_process_manager(
            ex.interchange, worker_count=1, worker_respawn_limit=0, heartbeat_threshold=30.0
        )
        try:
            assert wait_for(lambda: ex.connected_workers >= 1)
            fut = ex.submit(make_sleeper(30.0), {})
            found = wait_for(lambda: _claimed_worker(manager), timeout=10)
            assert found
            os.kill(found[0].pid, signal.SIGKILL)
            # The worker loop sends the synthesized loss, then stops the manager.
            assert wait_for(manager._stop_event.is_set, timeout=10)
            with pytest.raises(ManagerLost):
                fut.result(timeout=30)
            assert manager.workers_respawned == 0
            assert wait_for(lambda: ex.interchange.fault_stats()["managers_lost"] == 1)
            assert ex.interchange.fault_stats()["in_flight_cores"] == 0
            # The loss went out ahead of the stop: the interchange
            # charged the kill to the task.
            assert ex.interchange.fault_stats()["workers_lost"] == 1
        finally:
            manager.shutdown()
            ex.shutdown()


class TestWorkerLostProtocol:
    """Interchange-side handling of worker_lost items, via fake managers."""

    @staticmethod
    def _fake_manager(interchange, identity, block_id=None):
        return MessageClient(
            interchange.host,
            interchange.port,
            identity=identity,
            registration_info=msg.manager_registration_info(
                block_id=block_id or identity, hostname=identity, worker_count=1
            ),
        )

    @staticmethod
    def _await_tasks(client, timeout=5.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            message = client.recv(timeout=0.2)
            if message is not None and message.get("type") == "tasks":
                return message["items"]
        return None

    def test_worker_lost_without_survivors_fails_typed(self):
        """No eligible manager left: the task fails WorkerLost, not strands."""
        results = []
        interchange = Interchange(result_callback=results.append, heartbeat_threshold=60)
        interchange.start()
        client = self._fake_manager(interchange, "mgr-solo", block_id="blk-solo")
        try:
            assert wait_for(lambda: interchange.connected_manager_count == 1)
            interchange.submit_task(3, b"payload")
            assert self._await_tasks(client) is not None
            # Draining managers are not survivors; with the only manager
            # draining, a requeue would strand the task in the pending queue.
            interchange.drain_block("blk-solo")
            client.send(msg.results_message([msg.worker_lost_item(3, 0, "hostx", 9)]))
            assert wait_for(lambda: len(results) == 1)
            exc = results[0]["exception"]
            assert isinstance(exc, WorkerLost)
            assert "exit code 9" in str(exc)
            assert interchange.fault_stats()["workers_lost"] == 1
        finally:
            client.close()
            interchange.stop()

    def test_second_kill_trips_poison_threshold(self):
        """Kill counts ride the task item across redispatches."""
        results = []
        interchange = Interchange(
            result_callback=results.append, heartbeat_threshold=60, poison_threshold=2
        )
        interchange.start()
        client = self._fake_manager(interchange, "mgr-p")
        try:
            assert wait_for(lambda: interchange.connected_manager_count == 1)
            interchange.submit_task(11, b"payload")
            assert self._await_tasks(client) is not None
            client.send(msg.results_message([msg.worker_lost_item(11, 0, "hostp", 13)]))
            # Kill 1 < threshold: redispatched back to the (sole) manager.
            redelivered = self._await_tasks(client)
            assert redelivered is not None and redelivered[0]["task_id"] == 11
            assert redelivered[0]["worker_kills"] == 1
            client.send(msg.results_message([msg.worker_lost_item(11, 0, "hostp", 13)]))
            assert wait_for(lambda: len(results) == 1)
            exc = results[0]["exception"]
            assert isinstance(exc, WorkerPoisonError)
            assert exc.kills == 2
            stats = interchange.scheduling_stats()
            assert stats["faults"]["tasks_poisoned"] == 1
            assert stats["faults"]["workers_lost"] == 2
        finally:
            client.close()
            interchange.stop()

    def test_redispatch_exhaustion_mid_drain_fails_not_hangs(self):
        """Manager loss while every other manager drains: ManagerLost, fast.

        Redispatch budget alone is not enough to requeue — there must be a
        *non-draining* survivor. With the only other block mid-drain, the
        victim's in-flight task must fail with ManagerLost immediately
        instead of stranding in the pending queue forever.
        """
        results = []
        interchange = Interchange(
            result_callback=results.append, heartbeat_threshold=60, max_task_redispatches=5
        )
        interchange.start()
        a = self._fake_manager(interchange, "mgr-a", block_id="blk-a")
        b = self._fake_manager(interchange, "mgr-b", block_id="blk-b")
        try:
            assert wait_for(lambda: interchange.connected_manager_count == 2)
            interchange.submit_task(21, b"payload")
            items = self._await_tasks(a)
            victim, victim_blk, survivor_blk = (a, "blk-a", "blk-b") if items else (b, "blk-b", "blk-a")
            if items is None:
                items = self._await_tasks(victim)
            assert items is not None
            interchange.drain_block(survivor_blk)
            victim.close()
            assert wait_for(lambda: len(results) == 1, timeout=15)
            assert results[0]["task_id"] == 21
            assert isinstance(results[0]["exception"], ManagerLost)
        finally:
            a.close()
            b.close()
            interchange.stop()
