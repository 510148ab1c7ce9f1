"""Lightweight per-task distributed tracing (no third-party deps).

A *trace context* is a plain dict so it can ride, unchanged, inside every
existing wire shape in the stack: the gateway's queued item, the DFK's
:class:`~repro.core.taskrecord.TaskRecord`, the interchange dispatch item,
and the pickled manager->worker channel. Shape::

    {
        "id": "trace-...",   # stable across retries/redispatches
        "task": 17,          # DFK task id (-1 until the DFK assigns one)
        "attempt": 1,        # bumped by the DFK retry path after flushing
        "events": [["submitted", 1712.345], ...],  # (hop name, wall time)
        "flushed": 0,        # events[:flushed] already sent to monitoring
    }

Within one process (gateway, DFK, and interchange share one) the *same*
dict object is threaded through, so a hop stamps with a GIL-atomic
``list.append`` — no locks, no copies. The only process boundary is the
manager/worker hop, where the dict travels pickled; workers report their
timestamps as plain keys on the result dict (``exec_start``/``exec_end``/
``sent_at``) and the interchange merges them back into the live context.

Canonical hop order (one row set per attempt)::

    submitted -> queued -> routed -> dispatched -> executing -> exec_done
              -> result_sent -> result_committed -> delivered

``submitted`` is stamped where the trace is minted (the gateway at
admission, or the DFK when it first hands the task to an executor, with the
task's submit time); ``delivered`` only exists for gateway tasks.
Flushing emits one ``TASK_SPAN`` monitoring row per event through the
MonitoringHub's batched path, which also stamps the hub-order ``seq`` used
to keep same-millisecond events stable in reports.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.utils.ids import make_uid

__all__ = ["SPAN_EVENTS", "new_trace", "stamp", "next_attempt", "flush_spans"]

#: Canonical hop names in pipeline order (used by reports to order columns
#: and by the waterfall CLI to label rows).
SPAN_EVENTS: List[str] = [
    "submitted",
    "queued",
    "routed",
    "dispatched",
    "executing",
    "exec_done",
    "result_sent",
    "result_committed",
    "delivered",
]


def new_trace(task_id: int = -1, trace_id: Optional[str] = None) -> Dict[str, Any]:
    """Mint a fresh trace context (does not stamp any event)."""
    return {
        "id": trace_id or make_uid("trace"),
        "task": task_id,
        "attempt": 1,
        "events": [],
        "flushed": 0,
    }


def stamp(trace: Optional[Dict[str, Any]], event: str,
          t: Optional[float] = None) -> None:
    """Append one span event to ``trace`` (no-op when ``trace`` is None).

    ``t`` defaults to ``time.time()`` — wall time, because events from the
    worker process must land on the same axis as in-process stamps.
    """
    if trace is None:
        return
    trace["events"].append([event, time.time() if t is None else t])


def next_attempt(trace: Optional[Dict[str, Any]]) -> None:
    """Advance to the next attempt (call after flushing the current one)."""
    if trace is not None:
        trace["attempt"] += 1


def flush_spans(trace: Optional[Dict[str, Any]], monitoring: Any,
                run_id: Optional[str], task_id: Optional[int] = None) -> int:
    """Send the unflushed tail of ``trace`` as TASK_SPAN monitoring rows.

    Idempotent per event: the context tracks a ``flushed`` high-water mark,
    so the DFK can flush at ``result_committed`` and the gateway can flush
    again after stamping ``delivered`` without duplicating rows. Returns
    the number of rows sent (0 when tracing or monitoring is off).
    """
    if trace is None or monitoring is None:
        return 0
    events = trace["events"]
    start = trace["flushed"]
    if start >= len(events):
        return 0
    # Imported lazily: monitoring imports stay out of the no-monitoring path.
    from repro.monitoring.messages import MessageType

    tid = trace.get("task", -1) if task_id is None else task_id
    sent = 0
    for name, t in events[start:]:
        monitoring.send(
            MessageType.TASK_SPAN,
            {
                "run_id": run_id,
                "task_id": tid,
                "state": name,
                "t": t,
                "trace_id": trace["id"],
                "attempt": trace["attempt"],
            },
        )
        sent += 1
    trace["flushed"] = len(events)
    return sent
