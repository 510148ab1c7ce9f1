"""The per-task bookkeeping structure held by the DataFlowKernel.

A TaskRecord is a node of the dynamic task graph (§3.4): it carries the
function and arguments, the futures it depends on (the graph's in-edges),
its own AppFuture (through which out-edges are expressed as callbacks), and
all execution metadata (state, chosen executor, retries, memoization hash,
timings).

Once a task reaches a final state none of the heavy references — the
callable, its arguments, the executor future, the dependency futures — are
needed again, but a naive task table would pin them (and everything they
transitively reference) for the lifetime of the run. :meth:`TaskRecord.retire`
therefore drops them in place, leaving the record as a compact shell whose
immutable essentials are frozen into a :class:`RetiredTaskSummary`, so a
million-task run holds O(1) memory per completed task. Retirement is the
DFK's default; set ``Config(retain_task_records=True)`` to keep full records
for post-run debugging.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


from repro.core.states import States


@dataclass(frozen=True)
class RetiredTaskSummary:
    """The immutable compact view a retired task leaves behind."""

    task_id: int
    func_name: str
    executor: str
    fail_count: int
    memoize: bool
    from_memo: bool
    hashsum: Optional[str]
    depends_ids: Tuple[Optional[int], ...]
    time_invoked: float
    time_returned: Optional[float]


@dataclass
class TaskRecord:
    """State for one task in the dynamic task graph."""

    id: int
    func: Callable
    func_name: str
    args: Sequence[Any] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    executor: str = "all"
    status: States = States.unsched
    depends: List[Any] = field(default_factory=list)
    app_fu: Any = None
    exec_fu: Any = None
    fail_count: int = 0
    fail_cost: float = 0.0
    fail_history: List[str] = field(default_factory=list)
    memoize: bool = True
    hashsum: Optional[str] = None
    from_memo: bool = False
    is_staging: bool = False
    join: bool = False
    joins: Any = None
    resource_specification: Dict[str, Any] = field(default_factory=dict)
    #: Dispatch priority from the task's resource spec (higher runs sooner);
    #: kept as a scalar so monitoring rows carry it even after retirement.
    priority: int = 0
    #: Opaque submitter tag (the gateway sets the tenant name here); carried
    #: into TASK_STATE monitoring rows and surviving retirement, so a
    #: multi-tenant run's per-tenant timeline is reconstructable post-run.
    tag: Optional[str] = None
    #: Identity of the manager that ran the task (set on completion).
    placed_manager: Optional[str] = None
    #: Trace context (:func:`repro.observability.trace.new_trace` shape):
    #: trace id + per-hop span events, shared by reference with the gateway
    #: item and the interchange dispatch item. None when tracing is off.
    #: Survives retirement — it is a small dict
    #: whose spans are already flushed by then, but the gateway still reads
    #: the id for its ``delivered`` stamp.
    trace: Optional[Dict[str, Any]] = None
    outputs: List[Any] = field(default_factory=list)
    time_invoked: float = field(default_factory=time.time)
    time_returned: Optional[float] = None
    task_launch_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    retired: Optional[RetiredTaskSummary] = field(default=None, repr=False)

    def state_name(self) -> str:
        return self.status.name

    def _depends_ids(self) -> Tuple[Optional[int], ...]:
        return tuple(
            getattr(d, "task_record", None) and getattr(d.task_record, "id", None)
            for d in self.depends
        )

    def retire(self) -> RetiredTaskSummary:
        """Drop the heavy references, leaving a compact frozen summary.

        Only valid once the task is in a final state: the callable, the raw
        arguments, the executor future, and the dependency futures are all
        released so the garbage collector can reclaim them (and whatever
        they pin). The AppFuture is kept — it holds the user-visible result
        — as are the cheap scalar fields. Idempotent.
        """
        if self.retired is not None:
            return self.retired
        summary = RetiredTaskSummary(
            task_id=self.id,
            func_name=self.func_name,
            executor=self.executor,
            fail_count=self.fail_count,
            memoize=self.memoize,
            from_memo=self.from_memo,
            hashsum=self.hashsum,
            depends_ids=self._depends_ids(),
            time_invoked=self.time_invoked,
            time_returned=self.time_returned,
        )
        self.retired = summary
        self.func = _retired_func
        self.args = ()
        self.kwargs = {}
        self.exec_fu = None
        self.depends = []
        self.joins = None
        self.resource_specification = {}
        return summary

    def summary(self) -> Dict[str, Any]:
        """A compact picklable view used by monitoring and debugging."""
        depends = self.retired.depends_ids if self.retired is not None else self._depends_ids()
        return {
            "task_id": self.id,
            "func_name": self.func_name,
            "status": self.status.name,
            "executor": self.executor,
            "fail_count": self.fail_count,
            "memoize": self.memoize,
            "from_memo": self.from_memo,
            "depends": list(depends),
            "time_invoked": self.time_invoked,
            "time_returned": self.time_returned,
        }


def _retired_func(*_args, **_kwargs):
    """Placeholder installed in ``TaskRecord.func`` after retirement."""
    raise RuntimeError("task record has been retired; its callable was released")
