"""The stack under test, built and torn down through its public API.

Every workload runs one DataFlowKernel with one HighThroughputExecutor fed
by one LocalProvider block of two process workers: the paper's deployment
at laptop scale. Strategy is ``"none"``; everything else keeps the
``Config`` defaults, so memoization, metrics and the program's own trace
stamps stay on. A ``tcp`` stack puts a WorkflowGateway with a durable
SessionStore and one ServiceClient in front of the kernel; an ``http``
stack puts an in-memory gateway, an HttpEdge and one AsyncServiceClient
there.
"""

from __future__ import annotations

import asyncio
import os
import resource
import signal
import subprocess
import sys
import time
import traceback
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Callable, List, Optional, Set

from repro import Config, DataFlowKernel
from repro.channels import LocalChannel
from repro.executors import HighThroughputExecutor
from repro.providers import LocalProvider
from repro.service import AsyncServiceClient, HttpEdge, ServiceClient, SessionStore, WorkflowGateway

WORKERS = 2
TENANT = "bench"
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class _PoolChannel(LocalChannel):
    """A LocalChannel that records each worker pool it starts.

    The provider starts every block in a new session, so a pool's pid is
    also its process group: the benchmark counts the group's CPU and, at
    teardown, waits until the group is gone.
    """

    def __init__(self, script_dir: str, envs: dict, pgids: Set[int]):
        super().__init__(script_dir=script_dir, envs=envs)
        self.pgids = pgids
        self.procs: List[subprocess.Popen] = []

    def execute_no_wait(self, cmd: str) -> subprocess.Popen:
        proc = super().execute_no_wait(cmd)
        self.procs.append(proc)
        self.pgids.add(proc.pid)
        return proc


def group_members(pgids: Set[int]) -> List[List[str]]:
    """The ``/proc/<pid>/stat`` fields after the command name of every live
    (non-zombie) process in one of the process groups ``pgids``."""
    members: List[List[str]] = []
    if not pgids:
        return members
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(os.path.join(entry.path, "stat")) as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we looked
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) in pgids:
            members.append(fields)
    return members


def cpu_seconds(pgids: Set[int]) -> float:
    """User plus system CPU of this process and of the live pool processes."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    ticks = sum(int(fields[11]) + int(fields[12]) for fields in group_members(pgids))
    return usage.ru_utime + usage.ru_stime + ticks / _CLK_TCK


def reap(pgids: Set[int], grace: float = 10.0) -> None:
    """Wait until every pool process group is gone; after ``grace`` seconds
    SIGKILL what is left and wait up to 5 s more."""
    for limit, kill in ((grace, False), (5.0, True)):
        if kill:
            for pgid in pgids:
                try:
                    os.killpg(pgid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        deadline = time.monotonic() + limit
        while time.monotonic() < deadline:
            if not group_members(pgids):
                return
            time.sleep(0.05)
    if group_members(pgids):
        print("perfbench: worker-pool processes outlived SIGKILL", file=sys.stderr)


class Stack:
    """One stack of ``kind`` ``dfk``, ``tcp`` or ``http``.

    ``pgids`` collects the process groups of the worker pools it starts;
    ``hook`` is registered with the kernel before anything else (the traced
    run uses it to see each completion before the gateway does).
    """

    def __init__(self, kind: str, workdir: Path, pythonpath: str, pgids: Set[int],
                 hook: Optional[Callable[[Any, Any], None]] = None):
        self.kind = kind
        self.workdir = workdir
        self.pythonpath = pythonpath
        self.pgids = pgids
        self.hook = hook
        self.dfk: Optional[DataFlowKernel] = None
        self.store: Optional[SessionStore] = None
        self.gateway: Optional[WorkflowGateway] = None
        self.edge: Optional[HttpEdge] = None
        self.client: Any = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._channel: Optional[_PoolChannel] = None

    def start(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._channel = _PoolChannel(str(self.workdir), {"PYTHONPATH": self.pythonpath}, self.pgids)
        executor = HighThroughputExecutor(
            label="htex", workers_per_node=WORKERS, provider=LocalProvider(channel=self._channel)
        )
        self.dfk = DataFlowKernel(
            Config(executors=[executor], strategy="none", run_dir=str(self.workdir / "runinfo"))
        )
        if self.hook is not None:
            self.dfk.add_completion_hook(self.hook)
        if self.kind == "tcp":
            self.store = SessionStore(str(self.workdir / "sessions.db"))
            self.gateway = WorkflowGateway(self.dfk, store=self.store).start()
            self.client = ServiceClient(self.gateway.host, self.gateway.port, tenant=TENANT)
        elif self.kind == "http":
            self.gateway = WorkflowGateway(self.dfk).start()
            self.edge = HttpEdge(self.gateway).start()
            self.loop = asyncio.new_event_loop()
            self.client = self.run(self._open_http_client(), 30.0)

    async def _open_http_client(self) -> AsyncServiceClient:
        # Built on the loop that drives it: one request connection plus the
        # SSE stream.
        assert self.edge is not None
        client = AsyncServiceClient(
            f"http://{self.edge.host}:{self.edge.port}", tenant=TENANT, max_connections=1
        )
        await client.open()
        return client

    def run(self, coro: Any, timeout: float) -> Any:
        """Drive a coroutine on this stack's event loop (``http`` only)."""
        assert self.loop is not None
        return self.loop.run_until_complete(asyncio.wait_for(coro, timeout))

    def submit(self, fn: Callable, arg: Any) -> Future:
        """Submit ``fn(arg)`` through a ``dfk`` or ``tcp`` stack."""
        if self.kind == "dfk":
            assert self.dfk is not None
            return self.dfk.submit(fn, app_args=(arg,))
        return self.client.submit(fn, arg)

    async def submit_async(self, fn: Callable, arg: Any) -> Any:
        """Submit ``fn(arg)`` through the ``http`` stack and await its result."""
        handle = await self.client.submit(fn, arg)
        return await handle.future

    def first_result(self, fn: Callable, arg: Any, timeout: float) -> Any:
        if self.kind == "http":
            return self.run(self.submit_async(fn, arg), timeout)
        return self.submit(fn, arg).result(timeout=timeout)

    @property
    def interchange(self) -> Any:
        assert self.dfk is not None
        return self.dfk.executors["htex"].interchange

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pgids)

    def close(self) -> None:
        """Tear the stack down, then wait for every worker-pool process to exit."""
        steps: List[Callable[[], Any]] = []
        if self.client is not None:
            if self.loop is not None:
                steps.append(lambda: self.run(self.client.close(), 10.0))
            else:
                steps.append(self.client.close)
        steps += [part.stop for part in (self.edge, self.gateway) if part is not None]
        if self.dfk is not None:
            steps.append(self.dfk.cleanup)
        for step in steps:
            try:
                step()
            except Exception:  # noqa: BLE001 - keep tearing down; the pools must still be reaped
                traceback.print_exc()
        if self.loop is not None:
            self.loop.close()
        reap(self.pgids)
        for proc in self._channel.procs if self._channel is not None else []:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                print(f"perfbench: worker pool {proc.pid} did not exit", file=sys.stderr)
