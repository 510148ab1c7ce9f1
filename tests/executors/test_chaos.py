"""Chaos acceptance campaign: sustained SIGKILLs against a live workflow.

Marked ``chaos`` and excluded from the default (tier-1) run — these tests
fire real signals at real processes on a timer, which is the point, but it
makes them load-sensitive. Run with ``pytest -m chaos tests/executors`` (the
CI chaos-smoke step does, at reduced scale via ``REPRO_BENCH_FAST=1``).

The acceptance criteria, from the fault-containment design:

* every non-poison task completes **exactly once from the client's view**:
  its AppFuture resolves once, with the right value, despite the kills,
* side effects are **at-least-once with every duplicate accounted for**:
  each task appends a marker line at completion, and any task with more
  than one line must be explained by a fault-triggered redispatch (a kill
  landing between a task's completion and its result reaching the
  interchange re-runs it — the documented price of redispatch-for-
  availability; what must never happen is a *spontaneous* duplicate),
* every poison task fails with a typed
  :class:`~repro.errors.WorkerPoisonError` after exactly
  ``poison_threshold`` worker kills,
* zero unresolved AppFutures at the end,
* the interchange's in-flight core accounting returns to zero.
"""

import os

import pytest

import repro
from repro import Config, RetryPolicy
from repro.apps.app import python_app
from repro.errors import WorkerPoisonError
from repro.executors import HighThroughputExecutor

from chaos import (
    ChaosMonkey,
    ExternalManagerProc,
    attach_process_manager,
    make_poison_task,
    wait_for,
)

FAST = os.environ.get("REPRO_BENCH_FAST", "").lower() in ("1", "true", "yes")

N_TASKS = 60 if FAST else 500
N_POISON = 2 if FAST else 5
#: Long enough that the monkey's kills land mid-task, not between tasks.
TASK_SLEEP = 0.2 if FAST else 0.25
MONKEY_KILLS = 6 if FAST else 25
MONKEY_INTERVAL = 0.15 if FAST else 0.3

pytestmark = pytest.mark.chaos


@pytest.mark.timeout(280)
def test_chaos_campaign_completes_every_task_exactly_once(tmp_path, run_dir):
    markers = tmp_path / "markers"
    markers.mkdir()
    marker_root = str(markers)

    executor = HighThroughputExecutor(
        label="htex_chaos",
        workers_per_node=4,
        internal_managers=0,
        heartbeat_period=0.25,
        heartbeat_threshold=5.0,
        # Under sustained random kills a *healthy* task can eat two unlucky
        # SIGKILLs; threshold 4 keeps false-positive quarantines out of the
        # campaign while still bounding what a real poison task can destroy.
        poison_threshold=4,
        worker_respawn_limit=200,  # the monkey must not out-kill the budget
    )
    cfg = Config(
        executors=[executor],
        retries=3,
        retry_policy=RetryPolicy(base_backoff_s=0.05, factor=2.0, cap_s=0.5, jitter=0.5),
        strategy="none",
        run_dir=run_dir,
    )
    repro.load(cfg)

    task_sleep = TASK_SLEEP

    @python_app
    def stamped(i, root):
        import os
        import time
        time.sleep(task_sleep)
        with open(os.path.join(root, f"task_{i}"), "a") as fh:
            fh.write("done\n")
        return i

    poison_app = python_app(make_poison_task(13))

    managers = [
        attach_process_manager(executor.interchange, worker_count=4, worker_respawn_limit=200,
                               block_id=f"chaos-{i}")
        for i in range(2)
    ]
    external = ExternalManagerProc(executor.interchange, worker_count=4, block_id="chaos-ext")
    monkey = None
    try:
        assert wait_for(lambda: executor.connected_workers >= 12, timeout=30)

        futures = [stamped(i, marker_root) for i in range(N_TASKS)]
        poisons = [poison_app() for _ in range(N_POISON)]
        monkey = ChaosMonkey(
            managers, interval=MONKEY_INTERVAL, max_kills=MONKEY_KILLS, seed=1234
        ).start()

        # One whole manager (plus all its workers) dies mid-campaign.
        wait_for(lambda: sum(f.done() for f in futures) >= N_TASKS // 4, timeout=120)
        external.kill()
        assert not external.alive()

        results = [f.result(timeout=240) for f in futures]
        assert results == list(range(N_TASKS))
        for fut in poisons:
            with pytest.raises(WorkerPoisonError) as excinfo:
                fut.result(timeout=240)
            # Quarantined at exactly poison_threshold kills, never more.
            assert excinfo.value.kills == executor.poison_threshold
        monkey_kills = monkey.stop()
        monkey = None

        # Every task really ran, and every *duplicate* execution is explained
        # by a fault-triggered redispatch (a kill in the window between task
        # completion and result delivery re-runs the task). Spontaneous
        # duplicates — extras without a matching redispatch — are a bug.
        extras = 0
        for i in range(N_TASKS):
            path = markers / f"task_{i}"
            assert path.exists(), f"task {i} never completed"
            stamps = len(path.read_text().splitlines())
            assert stamps >= 1
            extras += stamps - 1

        # Zero unresolved AppFutures.
        repro.wait_for_current_tasks()
        assert all(f.done() for f in futures + poisons)

        faults = executor.interchange.fault_stats()
        assert extras <= faults["tasks_redispatched"], (
            f"{extras} duplicate executions but only "
            f"{faults['tasks_redispatched']} fault-triggered redispatches"
        )
        # The campaign actually hurt: the manager kill plus (usually) worker
        # kills that landed mid-task. Only the manager loss is guaranteed —
        # the monkey can only catch workers that were holding tasks.
        assert faults["managers_lost"] >= 1
        assert faults["tasks_poisoned"] == N_POISON
        if monkey_kills:
            assert faults["workers_lost"] >= 1
        # Core-slot accounting converges to zero once everything settles.
        assert wait_for(
            lambda: executor.interchange.fault_stats()["in_flight_cores"] == 0, timeout=30
        )
        assert executor.interchange.scheduling_stats()["oversubscription_events"] == 0
    finally:
        if monkey is not None:
            monkey.stop()
        external.close()
        for m in managers:
            m.shutdown()
        repro.clear()


@pytest.mark.timeout(120)
def test_manager_kill_mid_drain_settles_every_future(run_dir):
    """Kill a whole manager while work is in flight; retries absorb it."""
    executor = HighThroughputExecutor(
        label="htex_mgr_kill",
        workers_per_node=4,
        internal_managers=0,
        heartbeat_period=0.25,
        heartbeat_threshold=3.0,
    )
    cfg = Config(
        executors=[executor],
        retries=2,
        retry_policy=RetryPolicy(base_backoff_s=0.05, factor=2.0, cap_s=0.5),
        strategy="none",
        run_dir=run_dir,
    )
    repro.load(cfg)

    @python_app
    def slow_square(x):
        import time
        time.sleep(0.05)
        return x * x

    survivor = attach_process_manager(executor.interchange, worker_count=4, block_id="keep")
    doomed = ExternalManagerProc(executor.interchange, worker_count=4, block_id="doom")
    try:
        assert wait_for(lambda: executor.connected_workers >= 8, timeout=30)
        n = 20 if FAST else 80
        futures = [slow_square(i) for i in range(n)]
        wait_for(lambda: sum(f.done() for f in futures) >= n // 8, timeout=60)
        doomed.kill()
        assert [f.result(timeout=120) for f in futures] == [i * i for i in range(n)]
        assert executor.interchange.fault_stats()["managers_lost"] == 1
        assert wait_for(
            lambda: executor.interchange.fault_stats()["in_flight_cores"] == 0, timeout=30
        )
    finally:
        doomed.close()
        survivor.shutdown()
        repro.clear()
