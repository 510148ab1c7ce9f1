"""Requeue ordering under manager loss and drains (the scheduling subsystem).

A task dispatched to a manager that is then lost — heartbeat loss, send
failure, or a drain that times out — must re-enter the pending queue at its
*original* priority (and accrued age), not at the back. These tests drive a
real Interchange with fake managers (raw MessageClients) so the exact
dispatch order is observable.
"""

import time

from repro.comms import MessageClient
from repro.executors.htex import messages as msg
from repro.executors.htex.interchange import Interchange


def wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def fake_manager(interchange, identity, block_id=None, workers=2):
    return MessageClient(
        interchange.host,
        interchange.port,
        identity=identity,
        registration_info=msg.manager_registration_info(
            block_id=block_id or identity, hostname=identity, worker_count=workers, prefetch_capacity=0
        ),
    )


def collect_task_ids(client, n, timeout=10.0):
    """Receive task messages until ``n`` task ids have arrived, in order."""
    ids = []
    deadline = time.time() + timeout
    while len(ids) < n and time.time() < deadline:
        message = client.recv(timeout=0.2)
        if message is not None and message.get("type") == "tasks":
            ids.extend(item["task_id"] for item in message["items"])
    return ids


def first_message_of_type(client, mtype, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        message = client.recv(timeout=0.2)
        if message is not None and message.get("type") == mtype:
            return message
    return None


class TestManagerLostRequeueOrdering:
    def test_requeued_tasks_reenter_at_original_priority(self):
        """Victim's in-flight tasks overtake later, lower-priority arrivals.

        A *helper* manager is kept full for the whole test: it exists so the
        loss path requeues (it only does so while a surviving manager could
        run the work) but can never accept a task, keeping dispatch order
        observable on the fresh manager that registers afterwards.
        """
        results = []
        interchange = Interchange(result_callback=results.append, heartbeat_threshold=60)
        interchange.start()
        helper = fake_manager(interchange, "helper", workers=1)
        victim = fresh = None
        try:
            assert wait_for(lambda: interchange.connected_manager_count == 1)
            interchange.submit_task(0, b"p")  # fills the helper forever
            assert collect_task_ids(helper, 1) == [0]
            victim = fake_manager(interchange, "victim", workers=2)
            assert wait_for(lambda: interchange.connected_manager_count == 2)
            # Two tasks fill the victim (priority 9 and 5)...
            interchange.submit_task(1, b"p", priority=9)
            interchange.submit_task(2, b"p", priority=5)
            assert collect_task_ids(victim, 2) == [1, 2]
            # ...then lower-priority work arrives and queues (nobody has room).
            interchange.submit_task(3, b"p", priority=1)
            interchange.submit_task(4, b"p", priority=0)
            victim.close()  # lost with 1 and 2 in flight
            assert wait_for(lambda: interchange.connected_manager_count == 1)
            fresh = fake_manager(interchange, "fresh", workers=4)
            # The requeued tasks kept their priorities: 9, 5 dispatch before
            # the younger priority-1 and priority-0 tasks, not after them.
            assert collect_task_ids(fresh, 4) == [1, 2, 3, 4]
        finally:
            for client in (helper, victim, fresh):
                if client is not None:
                    client.close()
            interchange.stop()

    def test_multicore_task_requeues_with_its_cores(self):
        """A lost 2-core task still consumes 2 slots where it lands next."""
        results = []
        interchange = Interchange(result_callback=results.append, heartbeat_threshold=60)
        interchange.start()
        helper = fake_manager(interchange, "helper", workers=1)
        victim = fresh = None
        try:
            assert wait_for(lambda: interchange.connected_manager_count == 1)
            interchange.submit_task(0, b"p")  # fills the helper forever
            assert collect_task_ids(helper, 1) == [0]
            victim = fake_manager(interchange, "victim", workers=2)
            assert wait_for(lambda: interchange.connected_manager_count == 2)
            interchange.submit_task(1, b"p", cores=2)
            assert collect_task_ids(victim, 1) == [1]
            victim.close()
            assert wait_for(lambda: interchange.connected_manager_count == 1)
            fresh = fake_manager(interchange, "fresh", workers=2)
            assert collect_task_ids(fresh, 1) == [1]
            # The interchange records the accounting just after the send that
            # our fake client already received — poll rather than race it.
            assert wait_for(
                lambda: interchange.scheduling_stats()["managers"].get("fresh", {}).get("in_flight_cores") == 2
            )
            assert interchange.scheduling_stats()["oversubscription_events"] == 0
        finally:
            for client in (helper, victim, fresh):
                if client is not None:
                    client.close()
            interchange.stop()


class TestDrainRequeueOrdering:
    def test_drain_timeout_requeues_at_original_priority_with_midrain_registration(self):
        """A manager registering mid-drain serves queued work first, then the
        stuck block's requeued tasks — each at its original priority."""
        results = []
        interchange = Interchange(
            result_callback=results.append, heartbeat_threshold=60, drain_timeout=0.5
        )
        interchange.start()
        stuck = fake_manager(interchange, "stuck", block_id="blk-1", workers=2)
        fresh = None
        try:
            assert wait_for(lambda: interchange.connected_manager_count == 1)
            interchange.submit_task(1, b"p", priority=9)
            interchange.submit_task(2, b"p", priority=5)
            assert collect_task_ids(stuck, 2) == [1, 2]
            # More work queues while the stuck manager is full.
            interchange.submit_task(3, b"p", priority=7)
            interchange.submit_task(4, b"p", priority=0)
            # Drain the block; the stuck manager never settles its tasks.
            assert interchange.drain_block("blk-1") == 1
            # A manager registering mid-drain (different block) immediately
            # serves the queued tasks...
            fresh = fake_manager(interchange, "fresh", block_id="blk-2", workers=4)
            assert collect_task_ids(fresh, 2) == [3, 4]
            # ...and once the drain times out, the stuck tasks requeue at
            # their original priorities: 9 before 5, both ahead of nothing
            # else — they do NOT go to the back of the queue.
            assert collect_task_ids(fresh, 2) == [1, 2]
        finally:
            stuck.close()
            if fresh is not None:
                fresh.close()
            interchange.stop()

    def test_manager_registering_into_draining_block_is_not_dispatched(self):
        """Scale-in racing a registration: the late manager drains on arrival."""
        results = []
        interchange = Interchange(
            result_callback=results.append, heartbeat_threshold=60, drain_timeout=30
        )
        interchange.start()
        stuck = fake_manager(interchange, "stuck", block_id="blk-1", workers=1)
        late = None
        try:
            assert wait_for(lambda: interchange.connected_manager_count == 1)
            interchange.submit_task(1, b"p")
            assert collect_task_ids(stuck, 1) == [1]
            interchange.drain_block("blk-1")
            late = fake_manager(interchange, "late", block_id="blk-1", workers=1)
            # The late manager is told to drain and receives no tasks even
            # though work is queued.
            interchange.submit_task(2, b"p", priority=9)
            assert first_message_of_type(late, "drain") is not None
            assert collect_task_ids(late, 1, timeout=0.5) == []
        finally:
            stuck.close()
            if late is not None:
                late.close()
            interchange.stop()
