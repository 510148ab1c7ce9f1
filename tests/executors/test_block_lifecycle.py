"""Tests for the block lifecycle: registry transitions, idle-aware scale-in
selection, the HTEX drain protocol, and max_idletime hysteresis (§3.6, §4.4)."""

import time

from repro.core.strategy import Strategy
from repro.executors.base import ReproExecutor
from repro.executors.blocks import BlockRegistry, BlockState
from repro.executors.htex import HighThroughputExecutor
from repro.providers.base import ExecutionProvider, JobState, JobStatus


def wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class FakeProvider(ExecutionProvider):
    """Provider that records scaling calls without running anything."""

    label = "fake"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.submitted = []
        self.cancelled = []
        self._counter = 0

    def submit(self, command, tasks_per_node, job_name="blk"):
        self._counter += 1
        job_id = f"fake.{self._counter}"
        self.submitted.append(job_id)
        return job_id

    def status(self, job_ids):
        return [
            JobStatus(JobState.CANCELLED if j in self.cancelled else JobState.RUNNING)
            for j in job_ids
        ]

    def cancel(self, job_ids):
        self.cancelled.extend(job_ids)
        return [True] * len(job_ids)


class FakeExecutor(ReproExecutor):
    """Executor with test-controlled outstanding count and activity reports."""

    def __init__(self, label="fake_ex", provider=None, workers_per_block=4):
        super().__init__(label=label, provider=provider)
        self._outstanding = 0
        self._workers_per_block = workers_per_block
        self.block_activity = None

    def start(self):
        pass

    def submit(self, func, resource_specification, *args, **kwargs):
        raise NotImplementedError

    def shutdown(self, block=True):
        pass

    def _launch_block_command(self, block_id):
        return f"start-workers --block {block_id}"

    def update_block_activity(self):
        if self.block_activity is None:
            return False
        for block_id, outstanding in self.block_activity.items():
            self.block_registry.observe_activity(block_id, managers=1, outstanding=outstanding)
        return True

    @property
    def outstanding(self):
        return self._outstanding

    @property
    def workers_per_block(self):
        return self._workers_per_block


# ---------------------------------------------------------------------------
# Registry state machine
# ---------------------------------------------------------------------------
class TestBlockRegistry:
    def test_new_block_is_pending(self):
        reg = BlockRegistry()
        record = reg.add("b1", "job1")
        assert record.state is BlockState.PENDING
        assert reg.active_count() == 1

    def test_provider_running_moves_pending_to_idle(self):
        """The boot window counts as idle so never-used blocks stay reclaimable."""
        reg = BlockRegistry()
        reg.add("b1", "job1")
        reg.observe_provider("b1", JobState.RUNNING)
        record = reg.get("b1")
        assert record.state is BlockState.IDLE
        assert record.idle_since is not None

    def test_activity_reports_drive_running_idle_edge(self):
        reg = BlockRegistry()
        reg.add("b1", "job1")
        reg.observe_activity("b1", managers=1, outstanding=3)
        assert reg.get("b1").state is BlockState.RUNNING
        reg.observe_activity("b1", managers=1, outstanding=0)
        record = reg.get("b1")
        assert record.state is BlockState.IDLE
        first_idle = record.idle_since
        # Repeated idle reports must NOT reset the idle clock (hysteresis input).
        reg.observe_activity("b1", managers=1, outstanding=0)
        assert reg.get("b1").idle_since == first_idle

    def test_terminal_provider_states_retire_the_block(self):
        reg = BlockRegistry()
        reg.add("ok", "j1")
        reg.add("bad", "j2")
        reg.observe_provider("ok", JobState.COMPLETED)
        reg.observe_provider("bad", JobState.FAILED)
        assert reg.get("ok").state is BlockState.TERMINATED
        assert reg.get("bad").state is BlockState.FAILED
        assert reg.active_count() == 0

    def test_draining_block_ignores_activity_and_records_idle_time(self):
        reg = BlockRegistry()
        reg.add("b1", "j1")
        reg.observe_activity("b1", managers=1, outstanding=0)
        time.sleep(0.05)
        reg.mark_draining("b1")
        record = reg.get("b1")
        assert record.state is BlockState.DRAINING
        assert record.idle_at_drain >= 0.05
        # Activity reports arriving after the drain decision do not resurrect it.
        reg.observe_activity("b1", managers=1, outstanding=2)
        assert reg.get("b1").state is BlockState.DRAINING
        reg.mark_terminated("b1", reason="drained")
        assert reg.get("b1").state is BlockState.TERMINATED

    def test_idle_blocks_filters_and_sorts_by_idle_duration(self):
        reg = BlockRegistry()
        reg.add("old", "j1")
        reg.add("young", "j2")
        reg.add("busy", "j3")
        reg.observe_activity("old", 1, 0)
        time.sleep(0.08)
        reg.observe_activity("young", 1, 0)
        reg.observe_activity("busy", 1, 5)
        eligible = reg.idle_blocks(min_idle=0.0)
        assert [r.block_id for r in eligible] == ["old", "young"]
        assert [r.block_id for r in reg.idle_blocks(min_idle=0.05)] == ["old"]

    def test_managers_lost_makes_running_block_idle(self):
        """Managers dying while the provider job survives must not freeze the
        block in RUNNING forever — it becomes idle and thus reclaimable."""
        reg = BlockRegistry()
        reg.add("b1", "j1")
        reg.observe_activity("b1", managers=2, outstanding=5)
        assert reg.get("b1").state is BlockState.RUNNING
        reg.observe_managers_lost("b1")
        record = reg.get("b1")
        assert record.state is BlockState.IDLE
        assert record.managers == 0 and record.outstanding_tasks == 0
        assert record.idle_since is not None

    def test_terminal_records_are_pruned_beyond_the_cap(self):
        reg = BlockRegistry(max_terminal_records=5)
        for i in range(20):
            reg.add(f"b{i}", f"j{i}")
            reg.mark_terminated(f"b{i}")
        reg.add("live", "jlive")
        assert reg.active_count() == 1
        snapshot = reg.snapshot()
        terminal = [r for r in snapshot if r.state.terminal]
        # Only the newest 5 retired records are kept; the live one survives.
        assert len(terminal) == 5
        assert {r.block_id for r in terminal} == {f"b{i}" for i in range(15, 20)}
        assert reg.get("live") is not None

    def test_transition_events_fire(self):
        events = []
        reg = BlockRegistry(on_transition=lambda r, old, new: events.append((r.block_id, old, new)))
        reg.add("b1", "j1")
        reg.observe_activity("b1", 1, 1)
        reg.observe_activity("b1", 1, 0)
        reg.mark_draining("b1")
        reg.mark_terminated("b1")
        assert [(old, new) for _, old, new in events] == [
            (None, BlockState.PENDING),
            (BlockState.PENDING, BlockState.RUNNING),
            (BlockState.RUNNING, BlockState.IDLE),
            (BlockState.IDLE, BlockState.DRAINING),
            (BlockState.DRAINING, BlockState.TERMINATED),
        ]


# ---------------------------------------------------------------------------
# Scale-in selection
# ---------------------------------------------------------------------------
class TestScaleInSelection:
    def test_scale_in_picks_the_idle_block_not_the_busy_one(self):
        provider = FakeProvider(min_blocks=0, max_blocks=4, init_blocks=0)
        ex = FakeExecutor(provider=provider, workers_per_block=2)
        ids = ex.scale_out(2)
        busy, idle = ids[0], ids[1]
        ex.block_registry.observe_activity(busy, managers=1, outstanding=2)
        ex.block_registry.observe_activity(idle, managers=1, outstanding=0)
        removed = ex.scale_in(1)
        assert removed == [idle]
        assert busy in ex.blocks and idle not in ex.blocks

    def test_scale_in_with_max_idletime_only_takes_sufficiently_idle_blocks(self):
        provider = FakeProvider(min_blocks=0, max_blocks=4)
        ex = FakeExecutor(provider=provider)
        ids = ex.scale_out(2)
        ex.block_registry.observe_activity(ids[0], 1, 0)
        time.sleep(0.08)
        ex.block_registry.observe_activity(ids[1], 1, 0)
        removed = ex.scale_in(2, max_idletime=0.05)
        # Only the first block has been idle >= 0.05 s; the second survives.
        assert removed == [ids[0]]
        assert ids[1] in ex.blocks

    def test_scale_in_without_idle_info_falls_back_to_newest_first(self):
        provider = FakeProvider(min_blocks=0, max_blocks=4)
        ex = FakeExecutor(provider=provider)
        ids = ex.scale_out(3)
        removed = ex.scale_in(1)
        assert removed == [ids[-1]]

    def test_scale_in_never_reselects_a_draining_block(self):
        provider = FakeProvider(min_blocks=0, max_blocks=4)
        ex = FakeExecutor(provider=provider)
        ids = ex.scale_out(2)
        ex.block_registry.mark_draining(ids[-1])
        removed = ex.scale_in(1)
        # The newest block is mid-drain; terminating it again would kill the
        # in-flight tasks its drain is waiting on — the older one goes instead.
        assert removed == [ids[0]]

    def test_scale_in_batches_provider_cancels(self):
        calls = []
        provider = FakeProvider(min_blocks=0, max_blocks=8)
        orig_cancel = provider.cancel
        provider.cancel = lambda job_ids: calls.append(list(job_ids)) or orig_cancel(job_ids)
        ex = FakeExecutor(provider=provider)
        ex.scale_out(4)
        ex.scale_in(4)
        # One batched provider RPC, not one per block.
        assert len(calls) == 1 and len(calls[0]) == 4


# ---------------------------------------------------------------------------
# Hysteresis under bursty load
# ---------------------------------------------------------------------------
class TestHysteresis:
    def test_bursty_load_resets_the_idle_clock(self):
        provider = FakeProvider(min_blocks=1, max_blocks=3, init_blocks=3, parallelism=1.0)
        ex = FakeExecutor(provider=provider, workers_per_block=4)
        for _ in range(3):
            ex.scale_out(1)
        strategy = Strategy("simple", max_idletime=0.3)

        ex._outstanding = 0
        strategy.strategize([ex])       # blocks go idle; clock starts
        assert len(ex.blocks) == 3
        time.sleep(0.1)
        ex._outstanding = 5             # burst arrives before max_idletime
        strategy.strategize([ex])       # busy again: idle clock resets
        assert len(ex.blocks) == 3
        ex._outstanding = 0
        strategy.strategize([ex])       # idle anew; clock restarts from here
        time.sleep(0.15)
        strategy.strategize([ex])       # idle only 0.15 s < 0.3 s: no scale-in
        assert len(ex.blocks) == 3
        time.sleep(0.2)
        strategy.strategize([ex])       # now idle >= 0.3 s: shrink to min_blocks
        assert len(ex.blocks) == 1
        scale_ins = [h for h in strategy.history if h["action"] == "scale_in"]
        assert len(scale_ins) == 1
        assert all(v >= 0.3 for v in scale_ins[0]["idle_s"].values())


# ---------------------------------------------------------------------------
# HTEX drain protocol
# ---------------------------------------------------------------------------
class TestHTEXDrain:
    def test_draining_manager_receives_no_new_dispatches(self):
        ex = HighThroughputExecutor(
            label="htex_drain", workers_per_node=1, internal_managers=2, heartbeat_period=0.2
        )
        ex.start()
        try:
            assert wait_for(lambda: ex.connected_workers >= 2)
            m0, m1 = ex._internal_manager_objs
            assert ex.interchange.drain_block(m0.block_id) == 1
            futures = [ex.submit(lambda x: x + 1, {}, i) for i in range(10)]
            assert sorted(f.result(timeout=30) for f in futures) == list(range(1, 11))
            # Every task went to the surviving manager.
            assert m0.tasks_received == 0
            assert m1.tasks_received == 10
            # With nothing in flight, the drained manager is shut down.
            assert wait_for(lambda: m0._stop_event.is_set(), timeout=10)
            assert not m1._stop_event.is_set()
        finally:
            ex.shutdown()

    def test_drain_waits_for_in_flight_tasks_to_settle(self):
        drained = []
        ex = HighThroughputExecutor(
            label="htex_settle", workers_per_node=1, internal_managers=1, heartbeat_period=0.2
        )
        ex.start()
        try:
            ex.interchange.block_drained_callback = drained.append
            assert wait_for(lambda: ex.connected_workers >= 1)
            manager = ex._internal_manager_objs[0]
            fut = ex.submit(time.sleep, {}, 0.8)
            assert wait_for(lambda: manager.tasks_received == 1)
            ex.interchange.drain_block(manager.block_id)
            time.sleep(0.2)
            # The task is still running: the manager must not be shut down yet.
            assert not manager._stop_event.is_set()
            assert fut.result(timeout=30) is None
            # Once the in-flight task settled, the drain completes.
            assert wait_for(lambda: manager._stop_event.is_set(), timeout=10)
            assert wait_for(lambda: drained == [manager.block_id], timeout=10)
        finally:
            ex.shutdown()

    def test_manager_registering_into_draining_block_is_drained_on_arrival(self):
        """A manager that boots into a block already selected for scale-in
        must never become dispatch-eligible; its late registration would
        otherwise stall the drain (or run tasks on a job about to be killed)."""
        from repro.executors.htex.interchange import Interchange
        from repro.executors.htex.manager import Manager
        from repro.serialize import pack_apply_message

        results = []
        drained = []
        ix = Interchange(result_callback=results.append, block_drained_callback=drained.append)
        ix.start()
        m1 = m2 = None
        try:
            m1 = Manager(ix.host, ix.port, worker_count=1, block_id="b1", worker_mode="thread")
            m1.start()
            assert wait_for(lambda: ix.connected_manager_count == 1)
            # Keep the drain open: one in-flight task on m1.
            ix.submit_task(1, pack_apply_message(time.sleep, (0.8,), {}))
            assert wait_for(lambda: m1.tasks_received == 1)
            assert ix.drain_block("b1") == 1
            # A second manager of the SAME block registers mid-drain.
            m2 = Manager(ix.host, ix.port, worker_count=1, block_id="b1", worker_mode="thread")
            m2.start()
            assert wait_for(lambda: ix.connected_manager_count == 2)
            managers = ix.connected_managers()
            assert all(m["draining"] for m in managers)
            # Once the in-flight task settles, the whole block drains.
            assert wait_for(lambda: drained == ["b1"], timeout=15)
            assert len(results) == 1 and results[0]["task_id"] == 1
            assert m2.tasks_received == 0
        finally:
            for m in (m1, m2):
                if m is not None:
                    m.shutdown()
            ix.stop()

    def test_drain_timeout_with_only_draining_survivors_fails_tasks(self):
        """Stuck tasks from a timed-out drain must fail with ManagerLost when
        the only other managers are themselves draining — requeueing onto a
        queue nobody serves would hang the caller forever."""
        from repro.errors import ManagerLost
        from repro.executors.htex.interchange import Interchange, ManagerRecord

        results = []
        ix = Interchange(result_callback=results.append)
        try:
            stuck = ManagerRecord(identity="m-stuck", block_id="b1", hostname="h", worker_count=1)
            stuck.draining = True
            stuck.outstanding = {7: {"task_id": 7, "buffer": b"", "redispatches": 0}}
            other = ManagerRecord(identity="m-other", block_id="b2", hostname="h", worker_count=1)
            other.draining = True
            with ix._managers_lock:
                ix._managers = {"m-stuck": stuck, "m-other": other}
            ix._manager_lost("m-stuck", reason="drain timeout")
            assert len(results) == 1
            assert isinstance(results[0]["exception"], ManagerLost)
            assert ix.pending_tasks.qsize() == 0
        finally:
            ix.server.close()

    def test_scale_in_of_managerless_block_cancels_immediately(self):
        provider = FakeProvider(min_blocks=0, max_blocks=2, init_blocks=0)
        ex = HighThroughputExecutor(label="htex_pending", provider=provider, workers_per_node=1)
        ex.start()
        try:
            (block_id,) = ex.scale_out(1)
            # No manager ever connects (FakeProvider runs nothing): scale-in
            # must not wait for a drain that cannot complete.
            removed = ex.scale_in(1)
            assert removed == [block_id]
            assert ex.blocks == {}
            assert provider.cancelled == provider.submitted
            assert ex.block_registry.get(block_id).state is BlockState.TERMINATED
        finally:
            ex.shutdown()


# ---------------------------------------------------------------------------
# Monitoring integration
# ---------------------------------------------------------------------------
class TestBlockMonitoring:
    def test_block_transitions_emit_block_info_events(self):
        from repro.monitoring.messages import MessageType

        events = []

        class Radio:
            def send(self, message_type, payload):
                events.append((message_type, payload))

        ex = FakeExecutor(provider=FakeProvider())
        ex.monitoring_radio = Radio()
        (block_id,) = ex.scale_out(1)
        ex.block_registry.observe_activity(block_id, managers=1, outstanding=0)
        ex.scale_in(1)
        assert all(mtype is MessageType.BLOCK_INFO for mtype, _ in events)
        assert [p["new_state"] for _, p in events] == ["PENDING", "IDLE", "TERMINATED"]
        assert all(p["executor"] == ex.label and p["block_id"] == block_id for _, p in events)


# ---------------------------------------------------------------------------
# Strategy end-to-end over the registry (no real processes)
# ---------------------------------------------------------------------------
class TestStrategyBlockAwareness:
    def test_strategy_never_drains_a_busy_block(self):
        provider = FakeProvider(min_blocks=0, max_blocks=3, init_blocks=0, parallelism=1.0)
        ex = FakeExecutor(provider=provider, workers_per_block=2)
        ids = ex.scale_out(3)
        # One busy block (2 tasks) and two long-idle blocks.
        ex._outstanding = 2
        ex.block_activity = {ids[0]: 2, ids[1]: 0, ids[2]: 0}
        strategy = Strategy("htex_auto_scale", max_idletime=0.05)
        strategy.strategize([ex])
        time.sleep(0.1)
        strategy.strategize([ex])
        assert set(ex.blocks) == {ids[0]}

    def test_draining_blocks_count_against_max_blocks(self):
        provider = FakeProvider(min_blocks=0, max_blocks=3, init_blocks=0, parallelism=1.0)
        ex = FakeExecutor(provider=provider, workers_per_block=1)
        ids = ex.scale_out(3)
        for block_id in ids[:2]:
            ex.block_registry.mark_draining(block_id)
        ex._outstanding = 10  # wants 3 blocks, but 2 jobs are still draining
        Strategy("simple").strategize([ex])
        # active=1, draining=2: no headroom — total live jobs stay at max_blocks.
        assert len(provider.submitted) == 3

    def test_failed_block_is_retired_and_replaced(self):
        provider = FakeProvider(min_blocks=0, max_blocks=2, init_blocks=0, parallelism=1.0)
        ex = FakeExecutor(provider=provider, workers_per_block=1)
        (block_id,) = ex.scale_out(1)
        ex.block_registry.observe_provider(block_id, JobState.FAILED)
        assert ex.block_registry.active_count() == 0
        ex._outstanding = 1
        Strategy("simple").strategize([ex])
        # The dead block no longer counts toward capacity: a new one is added.
        assert len(provider.submitted) == 2
