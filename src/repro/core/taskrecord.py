"""The per-task bookkeeping structure held by the DataFlowKernel.

A TaskRecord is a node of the dynamic task graph (§3.4): it carries the
function and arguments, the futures it depends on (the graph's in-edges),
its own AppFuture (through which out-edges are expressed as callbacks), and
all execution metadata (state, chosen executor, retries, memoization hash,
timings).

The DFK keeps no table of records. A record lives as long as something
needs it: a dependency's callback, its executor future's callback, a retry
timer, or the caller's AppFuture (``future.task_record``). When the task
reaches a final state the DFK calls :meth:`TaskRecord.release`, which drops
the callable, the arguments, the executor future and the dependency
futures, so a held AppFuture keeps only its own record (its scalars, trace
and result) and not the arguments or the upstream records.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.states import States


@dataclass
class TaskRecord:
    """State for one task in the dynamic task graph."""

    id: int
    func: Optional[Callable]
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
    #: kept as a scalar so monitoring rows carry it after the spec is released.
    priority: int = 0
    #: Opaque submitter tag (the gateway sets the tenant name here); carried
    #: into TASK_STATE monitoring rows and kept by :meth:`release`, so a
    #: multi-tenant run's per-tenant timeline is reconstructable post-run.
    tag: Optional[str] = None
    #: Identity of the manager that ran the task (set on completion).
    placed_manager: Optional[str] = None
    #: Trace context (:func:`repro.observability.trace.new_trace` shape):
    #: trace id + per-hop span events, shared by reference with the gateway
    #: item and the interchange dispatch item. None when tracing is off.
    #: Kept by :meth:`release` — it is a small dict whose spans are already
    #: flushed by then, but the gateway still reads the id for its
    #: ``delivered`` stamp.
    trace: Optional[Dict[str, Any]] = None
    outputs: List[Any] = field(default_factory=list)
    time_invoked: float = field(default_factory=time.time)
    time_returned: Optional[float] = None
    task_launch_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def release(self) -> None:
        """Drop what a finished task no longer needs.

        Called once the task is final and its completion hooks have run:
        the callable, the arguments, the executor future, the dependency
        futures (which would pin every upstream record) and the resource
        spec go; the AppFuture, the scalars and the trace stay.
        """
        self.func = None
        self.args = ()
        self.kwargs = {}
        self.exec_fu = None
        self.depends = []
        self.joins = None
        self.resource_specification = {}
