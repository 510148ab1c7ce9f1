"""Execution-layer chaos harness: kill workers and managers on purpose.

The fault-containment stack (worker supervision in the manager, poison
quarantine in the interchange, retry classification in the DFK) is only
trustworthy if it survives *real* SIGKILLs of real processes, not mocks.
This module provides the knives:

* :func:`attach_process_manager` — an embedded :class:`Manager` whose
  workers are genuine OS processes (the executor's internal managers use
  thread workers, which cannot be killed), attached to a running
  interchange;
* :class:`ExternalManagerProc` — a whole manager running in its own
  process *group* (the child calls ``os.setpgrp()`` before spawning
  workers), so :meth:`ExternalManagerProc.kill` takes out the manager and
  every worker it forked in one ``killpg`` — no orphan processes leak into
  CI;
* :func:`kill_random_worker` / :class:`ChaosMonkey` — one targeted SIGKILL,
  or a background thread delivering them on a cadence for the duration of a
  campaign;
* :func:`make_poison_task` — a task that ``os._exit``\\ s its worker: the
  canonical poison pill the quarantine exists for.

Used by ``tests/executors/test_worker_crash.py`` (deterministic, tier-1),
``tests/executors/test_chaos.py`` (the ``chaos``-marked acceptance runs)
and ``benchmarks/test_chaos_recovery.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time
from typing import List, Optional

from repro.executors.htex.manager import Manager


def wait_for(predicate, timeout=10.0, interval=0.05):
    """Poll ``predicate`` until truthy or ``timeout``; returns the last value."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    return predicate()


def attach_process_manager(
    interchange,
    worker_count: int = 2,
    worker_respawn_limit: int = 8,
    block_id: Optional[str] = None,
    heartbeat_period: float = 0.25,
    heartbeat_threshold: float = 30.0,
    prefetch_capacity: int = 0,
) -> Manager:
    """Start an embedded manager with *process* workers on ``interchange``.

    The returned manager's ``_workers`` are real OS processes whose pids can
    be SIGKILLed; its worker loop runs in this process, so its
    ``workers_lost`` / ``workers_respawned`` counters are directly
    assertable. Caller owns shutdown.
    """
    manager = Manager(
        interchange_host=interchange.host,
        interchange_port=interchange.port,
        worker_count=worker_count,
        prefetch_capacity=prefetch_capacity,
        block_id=block_id,
        heartbeat_period=heartbeat_period,
        heartbeat_threshold=heartbeat_threshold,
        worker_mode="process",
        worker_respawn_limit=worker_respawn_limit,
    )
    manager.start()
    return manager


def kill_random_worker(manager: Manager, rng: Optional[random.Random] = None) -> Optional[int]:
    """SIGKILL one live worker process of ``manager``; returns its pid.

    Returns ``None`` when no worker is currently alive (all mid-respawn, or
    the manager has stopped). Safe to race the worker loop: killing an
    already-dead pid is caught.
    """
    rng = rng or random
    live = [w for w in manager._workers if getattr(w, "exitcode", 0) is None and w.pid]
    if not live:
        return None
    victim = rng.choice(live)
    try:
        os.kill(victim.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return None
    return victim.pid


class ChaosMonkey:
    """Background thread SIGKILLing random workers on a cadence.

    Picks a random manager from ``managers`` (skipping stopped ones) every
    ``interval`` seconds and kills one of its live workers. ``max_kills``
    bounds the damage so a campaign's respawn budgets are not exhausted by
    accident; :attr:`kills` records what was actually delivered.
    """

    def __init__(
        self,
        managers: List[Manager],
        interval: float = 0.25,
        max_kills: int = 1_000_000,
        seed: Optional[int] = None,
    ):
        self.managers = managers
        self.interval = interval
        self.max_kills = max_kills
        self.kills = 0
        self._rng = random.Random(seed)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="chaos-monkey", daemon=True)

    def start(self) -> "ChaosMonkey":
        self._thread.start()
        return self

    def stop(self) -> int:
        """Stop killing; returns the number of kills delivered."""
        self._stop.set()
        self._thread.join(timeout=5)
        return self.kills

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if self.kills >= self.max_kills:
                return
            candidates = [m for m in self.managers if not m._stop_event.is_set()]
            if not candidates:
                continue
            if kill_random_worker(self._rng.choice(candidates), self._rng) is not None:
                self.kills += 1


def _external_manager_main(host, port, worker_count, block_id, worker_respawn_limit):
    # New process group: our forked workers inherit it, so one killpg later
    # reaps the whole family. Keeps CI free of orphan worker processes.
    os.setpgrp()
    manager = Manager(
        interchange_host=host,
        interchange_port=port,
        worker_count=worker_count,
        block_id=block_id,
        heartbeat_period=0.25,
        heartbeat_threshold=30.0,
        worker_mode="process",
        worker_respawn_limit=worker_respawn_limit,
    )
    manager.run_forever()


class ExternalManagerProc:
    """A manager living in its own process group, built to be murdered.

    The embedded managers above run their worker loop inside the test
    process, which is the right shape for asserting on worker-level
    containment — but killing *the manager itself* needs a separate
    process. :meth:`kill` SIGKILLs the whole group (manager + its forked
    workers), giving the interchange's heartbeat sweep a genuine
    ``ManagerLost`` to detect.
    """

    def __init__(
        self,
        interchange,
        worker_count: int = 2,
        block_id: str = "chaos-ext",
        worker_respawn_limit: int = 8,
    ):
        ctx = multiprocessing.get_context("fork")
        self.proc = ctx.Process(
            target=_external_manager_main,
            args=(interchange.host, interchange.port, worker_count, block_id, worker_respawn_limit),
            name=f"external-manager-{block_id}",
            daemon=False,  # daemons cannot fork the worker children
        )
        self.proc.start()

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.exitcode is None

    def kill(self) -> None:
        """SIGKILL the manager's whole process group, workers included."""
        if self.proc.pid is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.join(timeout=5)

    def close(self) -> None:
        """Best-effort cleanup for tests that did not get to the kill."""
        if self.alive():
            self.kill()


def make_poison_task(exit_code: int = 13):
    """A task whose execution takes its worker down with ``os._exit``.

    ``os._exit`` skips every ``finally``/atexit hook, exactly like a
    segfault or the OOM killer from the manager's point of view: the worker
    vanishes with its claim still published, which is what the worker loop
    and the interchange's poison quarantine are built to contain. Defined as
    a closure so it serializes by value into worker processes.
    """

    def poison_pill():
        os._exit(exit_code)

    return poison_pill


def make_sleeper(duration: float = 0.05):
    """A task that holds a worker long enough for the monkey to find it."""

    def sleeper(task_tag=None):
        time.sleep(duration)
        return task_tag

    return sleeper
