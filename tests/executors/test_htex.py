"""Tests for the HighThroughputExecutor (internal and provider modes) and its fault tolerance."""

import time

import pytest

from repro.comms import MessageClient
from repro.errors import ManagerLost, ResourceSpecError
from repro.executors import HighThroughputExecutor
from repro.executors.htex.interchange import Interchange
from repro.executors.htex.manager import Manager
from repro.executors.htex import messages as msg
from repro.providers import LocalProvider


def square(x):
    return x * x


def fail_task():
    raise RuntimeError("task failed on worker")


def wait_for(predicate, timeout=10.0, interval=0.05):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def htex_internal():
    ex = HighThroughputExecutor(label="htex_t", workers_per_node=4, internal_managers=1)
    ex.start()
    assert wait_for(lambda: ex.connected_workers >= 4)
    yield ex
    ex.shutdown()


class TestHTEXInternal:
    def test_results_round_trip(self, htex_internal):
        futures = [htex_internal.submit(square, {}, i) for i in range(40)]
        assert sum(f.result(timeout=30) for f in futures) == sum(i * i for i in range(40))

    def test_exceptions_propagate(self, htex_internal):
        with pytest.raises(RuntimeError, match="task failed on worker"):
            htex_internal.submit(fail_task, {}).result(timeout=30)

    def test_outstanding_counts(self, htex_internal):
        futures = [htex_internal.submit(square, {}, i) for i in range(10)]
        for f in futures:
            f.result(timeout=30)
        assert wait_for(lambda: htex_internal.outstanding == 0)

    def test_resource_specification_accepted(self, htex_internal):
        """Specs within the executor's slots run; a multi-core task completes."""
        fut = htex_internal.submit(square, {"cores": 4, "priority": 2}, 2)
        assert fut.result(timeout=30) == 4

    def test_resource_specification_unsatisfiable_or_malformed_rejected(self, htex_internal):
        with pytest.raises(ResourceSpecError):
            htex_internal.submit(square, {"cores": 99}, 2)  # more than any manager has
        with pytest.raises(ResourceSpecError):
            htex_internal.submit(square, {"coars": 2}, 2)  # typoed key must not be dropped

    def test_submit_before_start_rejected(self):
        ex = HighThroughputExecutor(label="unstarted")
        with pytest.raises(RuntimeError):
            ex.submit(square, {}, 1)

    def test_connected_managers_report(self, htex_internal):
        managers = htex_internal.connected_managers
        assert len(managers) == 1
        assert managers[0]["worker_count"] == 4

    def test_lambda_and_closure_tasks(self, htex_internal):
        offset = 100
        fut = htex_internal.submit(lambda x: x + offset, {}, 1)
        assert fut.result(timeout=30) == 101

    def test_multicore_task_not_starved_by_sustained_onecore_stream(self, htex_internal):
        """A cores=4 task under a stream of 1-core tasks (default prefetch).

        Multi-core placement needs free *execution* slots, and sustained
        1-core traffic keeps every slot busy — without the interchange's
        reservation (holding one capable manager back so it drains), the
        4-core task would only run after the whole backlog."""
        order = []
        backlog = [htex_internal.submit(time.sleep, {}, 0.003) for _ in range(150)]
        for fut in backlog:
            fut.add_done_callback(lambda _f: order.append("bulk"))
        wide = htex_internal.submit(time.sleep, {"cores": 4, "priority": 9}, 0)
        wide.add_done_callback(lambda _f: order.append("wide"))
        for fut in backlog:
            fut.result(timeout=60)
        wide.result(timeout=60)
        position = order.index("wide") + 1
        assert position <= len(order) // 4, f"4-core task starved: finished {position}/{len(order)}"
        stats = htex_internal.interchange.scheduling_stats()
        assert stats["oversubscription_events"] == 0


class TestHTEXProviderMode:
    def test_blocks_launch_real_managers(self, tmp_path):
        provider = LocalProvider(init_blocks=1, max_blocks=2, script_dir=str(tmp_path / "scripts"))
        ex = HighThroughputExecutor(label="htex_prov", provider=provider, workers_per_node=2, heartbeat_threshold=15)
        ex.start()
        try:
            assert wait_for(lambda: ex.connected_workers >= 2, timeout=20)
            # Tasks are defined locally so they travel to the worker processes
            # by value (the test module itself is not importable there).
            local_square = lambda x: x * x  # noqa: E731
            futures = [ex.submit(local_square, {}, i) for i in range(20)]
            assert sum(f.result(timeout=60) for f in futures) == sum(i * i for i in range(20))
            assert len(ex.blocks) == 1
        finally:
            ex.shutdown()

    def test_scale_out_and_in(self, tmp_path):
        provider = LocalProvider(init_blocks=1, max_blocks=3, script_dir=str(tmp_path / "scripts"))
        ex = HighThroughputExecutor(label="htex_scale", provider=provider, workers_per_node=1, heartbeat_threshold=15)
        ex.start()
        try:
            assert wait_for(lambda: ex.connected_workers >= 1, timeout=20)
            new_blocks = ex.scale_out(1)
            assert len(new_blocks) == 1
            assert wait_for(lambda: ex.connected_workers >= 2, timeout=20)
            removed = ex.scale_in(1)
            assert len(removed) == 1
            # Scale-in drains: the block leaves `blocks` only after its
            # manager settles and is shut down, then the job is cancelled.
            assert wait_for(lambda: len(ex.blocks) == 1, timeout=20)
            assert wait_for(lambda: ex.connected_workers <= 1, timeout=20)
            record = ex.block_registry.get(removed[0])
            assert record is not None and record.state.terminal
        finally:
            ex.shutdown()


class TestHTEXFaultTolerance:
    def test_manager_loss_raises_for_outstanding_tasks(self):
        """Killing a manager mid-task produces ManagerLost on its futures (§4.3.1)."""
        ex = HighThroughputExecutor(
            label="htex_faulty",
            workers_per_node=1,
            internal_managers=1,
            heartbeat_period=0.2,
            heartbeat_threshold=1.0,
        )
        ex.start()
        try:
            assert wait_for(lambda: ex.connected_workers >= 1)
            fut = ex.submit(time.sleep, {}, 30)
            # Let the task get dispatched, then kill the manager abruptly.
            time.sleep(0.5)
            manager = ex._internal_manager_objs[0]
            manager._stop_event.set()
            manager._client.close()
            with pytest.raises(ManagerLost):
                fut.result(timeout=30)
        finally:
            ex.shutdown()

    def test_blacklist_command(self, htex_internal):
        managers = htex_internal.connected_managers
        identity = managers[0]["identity"]
        assert htex_internal.interchange.blacklist(identity) is True
        listed = htex_internal.interchange.connected_managers()
        assert listed[0]["blacklisted"] is True

    def test_interchange_outstanding_command(self, htex_internal):
        assert htex_internal.interchange.outstanding() == 0
        assert htex_internal.interchange.connected_worker_count == 4


class TestManagerLossRequeue:
    """On manager loss, batched in-flight tasks are settled individually."""

    @staticmethod
    def _fake_manager(interchange, identity):
        return MessageClient(
            interchange.host,
            interchange.port,
            identity=identity,
            registration_info=msg.manager_registration_info(
                block_id=identity, hostname=identity, worker_count=1, prefetch_capacity=0
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

    def test_task_requeued_to_surviving_manager(self):
        results = []
        interchange = Interchange(result_callback=results.append, heartbeat_threshold=60)
        interchange.start()
        first = self._fake_manager(interchange, "mgr-a")
        second = self._fake_manager(interchange, "mgr-b")
        try:
            assert wait_for(lambda: interchange.connected_manager_count == 2)
            interchange.submit_task(0, b"payload")
            # Whichever manager received the task dies holding it.
            items = self._await_tasks(first)
            victim, survivor = (first, second) if items else (second, first)
            if items is None:
                items = self._await_tasks(victim)
            assert items is not None and items[0]["task_id"] == 0
            victim.close()
            # The task is requeued onto the survivor rather than failed.
            requeued = self._await_tasks(survivor)
            assert requeued is not None and requeued[0]["task_id"] == 0
            survivor.send(msg.results_message([{"task_id": 0, "buffer": b"done"}]))
            assert wait_for(lambda: len(results) == 1)
            assert results[0]["task_id"] == 0
            assert results[0]["buffer"] == b"done"
            # The result is annotated with the manager that actually ran it.
            assert results[0]["manager"] in ("mgr-a", "mgr-b")
        finally:
            first.close()
            second.close()
            interchange.stop()

    def test_exhausted_redispatch_budget_fails_each_task_individually(self):
        results = []
        interchange = Interchange(result_callback=results.append, heartbeat_threshold=60)
        interchange.start()
        first = self._fake_manager(interchange, "mgr-a")
        second = self._fake_manager(interchange, "mgr-b")
        try:
            assert wait_for(lambda: interchange.connected_manager_count == 2)
            interchange.submit_task(7, b"payload")
            items = self._await_tasks(first)
            victim, survivor = (first, second) if items else (second, first)
            if items is None:
                items = self._await_tasks(victim)
            assert items is not None
            victim.close()
            assert self._await_tasks(survivor) is not None  # one redispatch allowed
            survivor.close()  # second loss: budget exhausted, no survivors
            assert wait_for(lambda: len(results) == 1)
            assert results[0]["task_id"] == 7
            assert isinstance(results[0]["exception"], ManagerLost)
        finally:
            first.close()
            second.close()
            interchange.stop()


class TestInterchangeUnit:
    def test_round_robin_policy(self):
        results = []
        interchange = Interchange(result_callback=results.append, scheduling_policy="round_robin")
        interchange.start()
        try:
            managers = []
            for i in range(2):
                m = Manager(
                    interchange_host=interchange.host,
                    interchange_port=interchange.port,
                    worker_count=1,
                    worker_mode="thread",
                    heartbeat_threshold=30,
                )
                m.start()
                managers.append(m)
            deadline = time.time() + 5
            while interchange.connected_manager_count < 2 and time.time() < deadline:
                time.sleep(0.05)
            assert interchange.connected_manager_count == 2
            assert interchange.connected_worker_count == 2
            for m in managers:
                m.shutdown()
        finally:
            interchange.stop()
