"""HTEX worker: executes tasks handed to it by its manager.

Workers are deliberately dumb: a process worker blocks in ``recv()`` on a
private duplex pipe to its manager, runs each task through the common
execution kernel, and sends the serialized outcome back over the same pipe.
All protocol complexity lives in the manager and interchange. Thread workers
run the same loop, fed from an in-process queue, and hand their results
straight to the manager's worker loop.

Each worker owns a **private pipe** rather than sharing
``multiprocessing.Queue``\\ s with its siblings. The shared-queue design has
a fatal flaw under crash-containment: a blocked ``Queue.get`` holds the
queue's cross-process read lock, so a SIGKILL landing on an idle worker
(which is where a worker spends most of its life) takes the lock to the
grave and permanently wedges every sibling — and every future respawn — in
that pool, while the manager keeps heartbeating over a frozen pool. A
``Connection`` has no shared locks: a kill can only sever the victim's own
pipe, which the manager's worker loop then salvages and replaces.

The one piece of bookkeeping a worker does own is its **claim**: before
executing a task it writes the task id into its slot of the manager's shared
claims array, and clears the slot (to ``NO_CLAIM``) only after the result has
been handed off. If the worker dies mid-task — segfault, OOM kill,
``os._exit`` in user code — the claim survives in shared memory, so the
manager knows exactly which task went down with the process and can
synthesize a :class:`~repro.errors.WorkerLost` result for it instead of
stranding its future forever.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Optional

from repro.executors.execute_task import execute_task

#: Poison pill sent down a worker's pipe to terminate it.
STOP = None

#: Claims-array value meaning "this worker holds no task".
NO_CLAIM = -1


def worker_loop(
    worker_id: int,
    recv: Callable[[], Any],
    send: Callable[[Any], Any],
    sandbox_root: Optional[str] = None,
    claims=None,
) -> int:
    """Run tasks until a poison pill arrives; returns the number executed.

    ``recv`` blocks for the next task and ``send`` returns a result: a
    process worker's pipe end provides both, a thread worker gets its
    manager's in-process equivalents. Tasks are dicts with ``task_id``,
    ``buffer`` and, optionally, ``walltime_s``; results carry the serialized
    outcome and the execution endpoints.
    ``claims`` (when given) is a shared array indexed by worker id: the task
    id currently being executed is published there *before* execution
    starts and cleared only after the result is handed off, so a crash
    between the two leaves a readable tombstone for the manager.
    """
    executed = 0
    sandbox_dir = None
    if sandbox_root:
        sandbox_dir = os.path.join(sandbox_root, f"worker_{worker_id}")
    try:
        while True:
            item = recv()
            if item is STOP:
                break
            if claims is not None:
                claims[worker_id] = item["task_id"]
            # Execution endpoints are stamped unconditionally (two time.time()
            # calls): the interchange turns them into span events when the
            # task carries a trace and into the execution-latency histogram
            # always.
            exec_start = time.time()
            buffer = execute_task(
                item["buffer"], sandbox_dir=sandbox_dir, walltime_s=item.get("walltime_s")
            )
            exec_end = time.time()
            send(
                {
                    "task_id": item["task_id"],
                    "buffer": buffer,
                    "exec_start": exec_start,
                    "exec_end": exec_end,
                }
            )
            if claims is not None:
                # Cleared only after the result is handed off: a kill landing
                # between the send and this line leaves the claim set, and
                # the manager's dedup (first settle wins) discards whichever
                # of the genuine result / synthesized loss arrives second.
                claims[worker_id] = NO_CLAIM
            executed += 1
    except (EOFError, OSError):
        pass  # the manager closed its end of the pipe
    return executed


def worker_process_main(
    worker_id: int,
    conn,
    sandbox_root: Optional[str] = None,
    claims=None,
) -> None:
    """Entry point used when the worker runs as a separate OS process."""
    try:
        worker_loop(worker_id, conn.recv, conn.send, sandbox_root, claims)
    except KeyboardInterrupt:
        pass
    finally:
        conn.close()
