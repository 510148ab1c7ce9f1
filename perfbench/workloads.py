"""The four workloads: what each sends, in which loop, and how it is checked."""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List

from perfbench import apps, loadgen


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``stack`` names what sits in front of the DataFlowKernel: ``dfk`` (the
    benchmark calls it directly), ``tcp`` or ``http``. ``loop`` is
    ``serial`` (closed, one task in flight) or ``open`` (seeded Poisson
    arrivals). ``rate`` sizes the fixed work of the closed loop, in tasks
    per second of ``--seconds``, and is the offered load of an open one.
    """

    name: str
    stack: str
    loop: str
    rate: float
    why: str
    payload: bool = False

    def inputs(self, seed: int, phase: int, seconds: float) -> loadgen.Inputs:
        count = max(1, round(self.rate * seconds))
        return loadgen.make_inputs(
            seed, phase, count, payloads=self.payload,
            rate=self.rate if self.loop == "open" else 0.0,
        )


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "serial_noop", "dfk", "serial", 150.0,
        why="Fig. 3 protocol: closed loop, one no-op in flight, so latency is the "
            "fixed per-task path plus its wake-ups",
    ),
    Workload(
        "payload_open", "dfk", "open", 500.0, payload=True,
        why="Fig. 4 / Table 2 task path at fixed load: Poisson 500/s open loop echoing "
            "distinct 2 KiB payloads, so serialize and comms volume shows in CPU per task",
    ),
    Workload(
        "gateway_tcp", "tcp", "open", 100.0,
        why="production service path: Poisson 100/s open loop through ServiceClient, "
            "WorkflowGateway and a durable SessionStore",
    ),
    Workload(
        "gateway_http", "http", "open", 100.0,
        why="same schedule through HttpEdge and AsyncServiceClient with in-memory "
            "sessions: the only http_edge/aclient path, and no store",
    ),
)}


@dataclass
class Phase:
    """What one phase measured: task outcomes, the CPU seconds the stack
    spent from its start to its end, and how late an open loop sent."""

    tally: loadgen.Tally
    cpu_s: float
    late: List[float] = field(default_factory=list)

    @property
    def cpu_us_per_task(self) -> float:
        """CPU over the whole phase per correct result."""
        done = len(self.tally.latencies)
        return self.cpu_s / done * 1e6 if done else 0.0


def run_phase(workload: Workload, stack: Any, inputs: loadgen.Inputs, timeout: float) -> Phase:
    """Send ``inputs`` through ``stack`` in the workload's loop and check
    every result against the value the task must return."""
    fn = apps.echo if workload.payload else apps.noop
    arg = inputs.payload if workload.payload else inputs.indices.__getitem__
    tally = loadgen.Tally(len(inputs.indices))
    late: List[float] = []
    cpu_start = stack.cpu_seconds()
    if workload.loop == "serial":
        loadgen.run_serial(lambda i: stack.submit(fn, arg(i)), arg, tally, timeout)
    elif workload.stack == "http":
        async def send_async(i: int, due: float) -> None:
            value = arg(i)
            try:
                result = await stack.submit_async(fn, value)
            except Exception as exc:  # noqa: BLE001 - a failed task is counted, not fatal
                tally.record(due, error=exc)
            else:
                tally.record(due, result, value)

        try:
            late = stack.run(loadgen.run_open_loop_async(inputs.schedule, send_async), timeout)
        except asyncio.TimeoutError:
            pass  # tasks not settled by now count as unfinished
    else:
        def send(i: int, due: float) -> None:
            value = arg(i)
            stack.submit(fn, value).add_done_callback(lambda f: tally.settle(f, due, value))

        late = loadgen.run_open_loop(inputs.schedule, send)
        tally.wait(timeout)
    return Phase(tally, stack.cpu_seconds() - cpu_start, late)
