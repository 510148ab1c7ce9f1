"""Per-layer timings taken from outside the program, for the traced run.

:class:`Tracer` wraps public functions of each layer (``core``,
``serialize``, ``comms``, ``executors.htex``, ``scheduling``, ``service``
and ``observability``) for the length of one phase and removes the
wrappers afterwards; no program file changes. Spans ``(name, start, end,
parent, task)``, per-task boundary marks and counts stay in memory and
are written when the run ends.

The wrappers run in the benchmark process only. The HTEX manager and
workers live in the worker-pool processes, so their work shows in
``htex.roundtrip_ms`` and in the end-to-end CPU, not in the ``comms``
counts.
"""

from __future__ import annotations

import collections
import functools
import gzip
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.comms import protocol
from repro.comms.client import MessageClient
from repro.comms.server import MessageServer
from repro.core.dflow import DataFlowKernel
from repro.executors.htex import executor as htex_executor
from repro.executors.htex.interchange import Interchange
from repro.observability.metrics import Counter, Gauge, Histogram
from repro.scheduling.queues import WeightedFairShareQueue
from repro.service import aclient as service_aclient
from repro.service import api_types
from repro.service import client as service_client
from repro.service.store import SessionStore

#: Per-layer metrics in the order they are printed, with their units. The
#: ``loadgen.*`` and ``harness.*`` rows are diagnostics of the harness.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.submit_us", "us"),
    ("core.dispatch_wait_ms", "ms"),
    ("core.batch_tasks", "count"),
    ("core.complete_ms", "ms"),
    ("serialize.pack_us", "us"),
    ("serialize.unpack_us", "us"),
    ("serialize.task_bytes", "bytes"),
    ("comms.msgs_per_task", "count"),
    ("comms.bytes_per_task", "bytes"),
    ("comms.idle_polls_per_task", "count"),
    ("htex.submit_us", "us"),
    ("htex.queue_wait_ms", "ms"),
    ("htex.roundtrip_ms", "ms"),
    ("scheduling.fairshare_wait_ms", "ms"),
    ("service.client_submit_us", "us"),
    ("service.http_submit_ms", "ms"),
    ("service.admit_ms", "ms"),
    ("service.deliver_ms", "ms"),
    ("service.store_writes_per_task", "count"),
    ("service.store_lag_ms", "ms"),
    ("observability.records_per_task", "count"),
    ("loadgen.latency_p99_ms", "ms"),
    ("loadgen.samples", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.cpu_probe_ms", "ms"),
)

#: Per-task hops derived from boundary marks: (span name, from mark, to mark).
HOPS = (
    ("hop.admit", "service.client_submit", "core.submit_start"),
    ("hop.dispatch_wait", "core.submit_end", "core.batch"),
    ("hop.roundtrip", "core.batch", "htex.exec_done"),
    ("hop.complete", "htex.exec_done", "core.app_done"),
    ("hop.deliver", "service.hook", "service.client_done"),
)

_ABSENT = object()

Factory = Callable[[Callable], Callable]


def _dfk_key(args: tuple, kwargs: dict) -> Any:
    """The task key of ``DataFlowKernel.submit(self, func, app_args, ...)``:
    its first argument, distinct per task in every workload."""
    app_args = kwargs.get("app_args", args[2] if len(args) > 2 else ())
    return app_args[0] if app_args else None


def _client_key(args: tuple, kwargs: dict) -> Any:
    """The task key of ``submit(self, fn, *args)`` on either client."""
    return args[2] if len(args) > 2 else None


def _idle_poll(args: tuple, kwargs: dict, result: Any) -> int:
    """1 for a ``recv(timeout=...)`` with a positive timeout that got nothing."""
    timeout = kwargs.get("timeout", args[1] if len(args) > 1 else None)
    return 1 if result is None and timeout else 0


def _task_id(key: Any) -> Any:
    """A JSON-friendly task id: the index, or a payload's index prefix."""
    return int.from_bytes(key[:8], "big") if isinstance(key, bytes) else key


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Tracer:
    """Times calls into the program's public functions during one phase."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.active = False
        self.store: Any = None
        self.spans: List[Tuple[str, float, float, Any, Any]] = []
        #: mark -> {task key: time}: when each task crossed a boundary.
        self.marks: Dict[str, Dict[Any, float]] = collections.defaultdict(dict)
        #: queue -> waits in seconds between put and pop of one item.
        self.waits: Dict[str, List[float]] = collections.defaultdict(list)
        self.lag_ms: List[float] = []
        self._put_times: Dict[str, Dict[int, float]] = collections.defaultdict(dict)
        self._counts: Dict[str, int] = collections.Counter()
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        with self._count_lock:
            self._counts[name] += amount

    def mark(self, name: str, key: Any) -> None:
        self.marks[name][key] = self.clock()

    def completion_hook(self, task: Any, state: Any) -> None:
        """A kernel completion hook, registered through the public
        ``add_completion_hook`` ahead of the gateway's: where delivery starts."""
        if not self.active:
            return
        self.mark("service.hook", task.args[0] if task.args else None)
        if self.store is not None:
            self.lag_ms.append(self.store.lag_ms())

    # -- wrappers ----------------------------------------------------------
    def _span(self, name: str, key: Callable[[tuple, dict], Any] = None,
              after: Callable[..., None] = None) -> Factory:
        def factory(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                parent = getattr(self._local, "span", None)
                self._local.span = name
                start = self.clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._local.span = parent
                end = self.clock()
                self.spans.append((name, start, end, parent, key(args, kwargs) if key else None))
                if after is not None:
                    after(args, kwargs, result, start)
                return result
            return wrapper
        return factory

    def _async_span(self, name: str, key: Callable[[tuple, dict], Any],
                    after: Callable[..., None]) -> Factory:
        def factory(original: Callable) -> Callable:
            @functools.wraps(original)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = self.clock()
                result = await original(*args, **kwargs)
                self.spans.append((name, start, self.clock(), None, key(args, kwargs)))
                after(args, kwargs, result, start)
                return result
            return wrapper
        return factory

    def _counting(self, name: str,
                  amount: Callable[[tuple, dict, Any], int] = lambda a, k, r: 1) -> Factory:
        def factory(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                result = original(*args, **kwargs)
                n = amount(args, kwargs, result)
                if n:
                    self.count(name, n)
                return result
            return wrapper
        return factory

    def _enqueued(self, queue: str) -> Factory:
        """Wrap ``put(..., item)``: remember when ``item`` went in."""
        put_times = self._put_times[queue]

        def factory(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                put_times[id(args[-1])] = self.clock()
                return original(*args, **kwargs)
            return wrapper
        return factory

    def _dequeued(self, queue: str, item_of: Callable[[Any], Any]) -> Factory:
        """Wrap ``pop()``: record how long the popped item waited."""
        put_times, waits = self._put_times[queue], self.waits[queue]

        def factory(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                result = original(*args, **kwargs)
                if result is not None:
                    put = put_times.pop(id(item_of(result)), None)
                    if put is not None:
                        waits.append(self.clock() - put)
                return result
            return wrapper
        return factory

    def _after_dfk_submit(self, args: tuple, kwargs: dict, future: Any, start: float) -> None:
        key = _dfk_key(args, kwargs)
        self.marks["core.submit_start"][key] = start
        self.mark("core.submit_end", key)
        future.add_done_callback(lambda _f: self.mark("core.app_done", key))

    def _after_submit_batch(self, args: tuple, kwargs: dict, futures: Any, start: float) -> None:
        requests = args[1]
        self.count("core.batches")
        self.count("core.batch_tasks", len(requests))
        for request, future in zip(requests, futures):
            key = request[2][0] if request[2] else None
            self.marks["core.batch"][key] = start
            future.add_done_callback(lambda _f, key=key: self.mark("htex.exec_done", key))

    def _after_client_submit(self, args: tuple, kwargs: dict, future: Any, start: float) -> None:
        key = _client_key(args, kwargs)
        self.marks["service.client_submit"][key] = start
        future.add_done_callback(lambda _f: self.mark("service.client_done", key))

    def _after_http_submit(self, args: tuple, kwargs: dict, handle: Any, start: float) -> None:
        self._after_client_submit(args, kwargs, handle.future, start)

    def _patch(self, owner: Any, attr: str, factory: Factory) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, factory(getattr(owner, attr)))

    def install(self, stack: Any) -> None:
        """Wrap every layer's public entry points for the coming phase."""
        self.store = stack.store
        patch = self._patch
        patch(DataFlowKernel, "submit", self._span("core.submit", _dfk_key, self._after_dfk_submit))
        patch(htex_executor.HighThroughputExecutor, "submit_batch",
              self._span("htex.submit_batch", after=self._after_submit_batch))
        for module in (htex_executor, service_client, service_aclient):
            patch(module, "pack_apply_message", self._span(
                "serialize.pack", after=lambda a, k, r, s: self.count("serialize.bytes", len(r))))
        for module in (htex_executor, service_client, api_types):
            patch(module, "deserialize", self._span("serialize.unpack"))
        patch(protocol, "encode_message", self._counting("comms.bytes", lambda a, k, r: len(r)))
        for cls in (MessageServer, MessageClient):
            patch(cls, "send", self._counting("comms.msgs"))
            patch(cls, "send_many", self._counting(
                "comms.msgs", lambda a, k, r: len(k.get("messages", a[-1]))))
            patch(cls, "recv", self._counting("comms.idle_polls", _idle_poll))
        patch(Interchange, "submit_tasks", self._span("htex.submit_tasks"))
        pending = stack.interchange.pending_tasks
        patch(pending, "put", self._enqueued("htex.queue"))
        patch(pending, "pop", self._dequeued("htex.queue", lambda item: item))
        patch(WeightedFairShareQueue, "put", self._enqueued("scheduling.fairshare"))
        patch(WeightedFairShareQueue, "pop", self._dequeued("scheduling.fairshare", lambda r: r[1]))
        patch(service_client.ServiceClient, "submit",
              self._span("service.client_submit", _client_key, self._after_client_submit))
        patch(service_aclient.AsyncServiceClient, "submit",
              self._async_span("service.http_submit", _client_key, self._after_http_submit))
        for method in ("save_session", "append_task", "append_result"):
            patch(SessionStore, method, self._counting("service.store_writes"))
        for cls, method in ((Counter, "inc"), (Gauge, "set"), (Histogram, "observe")):
            patch(cls, method, self._counting("observability.records"))
        self.active = True

    def remove(self) -> None:
        """Restore every wrapped attribute; calls already in a wrapper finish."""
        self.active = False
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- results -----------------------------------------------------------
    def _gaps(self, begin: str, end: str) -> List[Tuple[Any, float, float]]:
        """``(task, begin time, end time)`` for tasks that crossed both marks."""
        first, second = self.marks.get(begin, {}), self.marks.get(end, {})
        return [(key, first[key], second[key]) for key in first.keys() & second.keys()]

    def layer_metrics(self, completed: int) -> Dict[str, float]:
        """The per-layer metrics of the traced phase, ``completed`` being its
        count of correct results (the base of every per-task ratio)."""
        counts = self._counts

        def per_task(name: str) -> float:
            return counts[name] / completed if completed else 0.0

        durations: Dict[str, List[float]] = collections.defaultdict(list)
        for name, start, end, _parent, _task in self.spans:
            durations[name].append(end - start)

        def gap_ms(begin: str, end: str) -> float:
            return _median([t1 - t0 for _key, t0, t1 in self._gaps(begin, end)]) * 1e3

        return {
            "core.submit_us": _median(durations["core.submit"]) * 1e6,
            "core.dispatch_wait_ms": gap_ms("core.submit_end", "core.batch"),
            "core.batch_tasks": counts["core.batch_tasks"] / counts["core.batches"] if counts["core.batches"] else 0.0,
            "core.complete_ms": gap_ms("htex.exec_done", "core.app_done"),
            "serialize.pack_us": _median(durations["serialize.pack"]) * 1e6,
            "serialize.unpack_us": _median(durations["serialize.unpack"]) * 1e6,
            "serialize.task_bytes": per_task("serialize.bytes"),
            "comms.msgs_per_task": per_task("comms.msgs"),
            "comms.bytes_per_task": per_task("comms.bytes"),
            "comms.idle_polls_per_task": per_task("comms.idle_polls"),
            "htex.submit_us": _median(durations["htex.submit_tasks"]) * 1e6,
            "htex.queue_wait_ms": _median(self.waits["htex.queue"]) * 1e3,
            "htex.roundtrip_ms": gap_ms("core.batch", "htex.exec_done"),
            "scheduling.fairshare_wait_ms": _median(self.waits["scheduling.fairshare"]) * 1e3,
            "service.client_submit_us": _median(durations["service.client_submit"]) * 1e6,
            "service.http_submit_ms": _median(durations["service.http_submit"]) * 1e3,
            "service.admit_ms": gap_ms("service.client_submit", "core.submit_start"),
            "service.deliver_ms": gap_ms("service.hook", "service.client_done"),
            "service.store_writes_per_task": per_task("service.store_writes"),
            "service.store_lag_ms": statistics.fmean(self.lag_ms) if self.lag_ms else 0.0,
            "observability.records_per_task": per_task("observability.records"),
        }

    def write(self, path: Path) -> None:
        """Write every span, wrapped calls and derived per-task hops, as
        gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": _task_id(task)}) + "\n")
            for name, begin, end_mark in HOPS:
                for key, start, end in self._gaps(begin, end_mark):
                    fh.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": "task", "task": _task_id(key)}) + "\n")
