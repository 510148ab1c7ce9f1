"""Message shapes exchanged between the executor client, interchange, and managers.

Keeping these as plain dict constructors (rather than classes) mirrors how the
real system ships msgpack/pickle dicts over ZeroMQ, keeps every message
trivially picklable, and makes the protocol easy to assert on in tests.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional


# ---------------------------------------------------------------------------
# Manager -> Interchange
# ---------------------------------------------------------------------------

def manager_registration_info(
    block_id: Optional[str],
    hostname: str,
    worker_count: int,
    prefetch_capacity: int = 0,
    kind: str = "manager",
) -> Dict[str, Any]:
    """The registration payload a manager announces when it connects."""
    return {
        "kind": kind,
        "block_id": block_id,
        "hostname": hostname,
        "worker_count": worker_count,
        "prefetch_capacity": prefetch_capacity,
        "registered_at": time.time(),
    }


def heartbeat_message() -> Dict[str, Any]:
    return {"type": "heartbeat", "timestamp": time.time()}


def results_message(items: List[Dict[str, Any]]) -> Dict[str, Any]:
    """A batch of completed tasks; each item has ``task_id`` and ``buffer``."""
    return {"type": "results", "items": items}


def drain_ack_message() -> Dict[str, Any]:
    return {"type": "drain_ack"}


def worker_lost_item(
    task_id: int,
    worker_id: int,
    hostname: str,
    exitcode: Optional[int] = None,
) -> Dict[str, Any]:
    """A synthesized result for a task whose worker died mid-execution.

    Travels inside a normal ``results`` message (so ordering relative to
    genuine results is preserved) but carries a ``worker_lost`` record
    instead of a ``buffer``. The interchange settles the task's capacity,
    bumps its worker-kill count, and either redispatches it or — past the
    poison threshold — fails it with
    :class:`~repro.errors.WorkerPoisonError`.
    """
    return {
        "task_id": task_id,
        "worker_lost": {
            "worker_id": worker_id,
            "hostname": hostname,
            "exitcode": exitcode,
            "lost_at": time.time(),
        },
    }


# ---------------------------------------------------------------------------
# Task items (executor -> interchange -> manager)
# ---------------------------------------------------------------------------

def task_item(
    task_id: int,
    buffer: bytes,
    priority: int = 0,
    cores: int = 1,
    walltime_s: Optional[float] = None,
    trace: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One task as it travels the dispatch path.

    ``priority`` orders the interchange's pending queue (higher runs sooner);
    ``cores`` is the number of worker core-slots the task occupies on the one
    manager it is placed on; ``walltime_s`` is the runtime limit the worker
    *enforces* (the task is killed past it). ``trace`` is the task's trace
    context (:mod:`repro.observability.trace`) — carried by reference inside
    the interchange so its span stamps land on the DFK's own dict. All
    default to the pre-scheduling behaviour (FIFO one-slot unlimited tasks),
    and the optional fields are simply absent from the minimal form so old
    captures/tests remain valid.
    """
    item: Dict[str, Any] = {"task_id": task_id, "buffer": buffer}
    if priority:
        item["priority"] = priority
    if cores != 1:
        item["cores"] = cores
    if walltime_s is not None:
        item["walltime_s"] = float(walltime_s)
    if trace is not None:
        item["trace"] = trace
    return item


def task_cores(item: Dict[str, Any]) -> int:
    """Core-slots an in-flight task item occupies (1 when unspecified)."""
    return int(item.get("cores") or 1)


# ---------------------------------------------------------------------------
# Interchange -> Manager
# ---------------------------------------------------------------------------

def tasks_message(items: List[Dict[str, Any]]) -> Dict[str, Any]:
    """A batch of tasks; each item has ``task_id`` and ``buffer``."""
    return {"type": "tasks", "items": items}


def drain_message() -> Dict[str, Any]:
    """Scale-in notice: no more tasks will come; the manager logs it and acks.

    The interchange has already taken the manager out of dispatch, and shuts
    it down once its in-flight tasks settle.
    """
    return {"type": "drain"}


def shutdown_message() -> Dict[str, Any]:
    return {"type": "shutdown"}


def heartbeat_reply_message() -> Dict[str, Any]:
    return {"type": "heartbeat_reply", "timestamp": time.time()}
