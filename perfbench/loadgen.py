"""Seeded inputs, the closed and open load loops, and percentile helpers.

Everything a phase sends is generated here from the workload seed before
the phase starts: task indices, payload bytes and the open-loop arrival
schedule. One seed therefore gives byte-identical inputs, and the amount
of work a phase does never depends on timing.
"""

from __future__ import annotations

import asyncio
import math
import random
import statistics
import threading
import time
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, List, Optional, Sequence, Tuple

PAYLOAD_BYTES = 2048
#: Payloads are 2 KiB windows into one seeded pool, prefixed by the task's
#: index: distinct per task, and cheap to rebuild when a result is checked.
_POOL_BYTES = 1 << 16
#: Indices of different phases of one run never collide, so memoization
#: hashes every task and never hits, whatever the phase order.
PHASE_STRIDE = 10_000_000


@dataclass
class Inputs:
    """The fixed work of one phase.

    ``indices`` are the tasks' distinct integer arguments; ``offsets`` and
    ``pool`` define the 2 KiB payloads; ``schedule`` holds open-loop send
    times in seconds from the phase start.
    """

    indices: List[int]
    offsets: List[int] = field(default_factory=list)
    pool: bytes = b""
    schedule: List[float] = field(default_factory=list)

    def payload(self, i: int) -> bytes:
        """Task ``i``'s payload: its index, then seeded bytes."""
        start = self.offsets[i]
        return self.indices[i].to_bytes(8, "big") + self.pool[start:start + PAYLOAD_BYTES - 8]


def make_inputs(seed: int, phase: int, count: int, payloads: bool = False,
                rate: float = 0.0) -> Inputs:
    """Generate ``count`` tasks for ``phase`` of a run seeded with ``seed``.

    With ``rate`` > 0 the tasks also get an arrival schedule: a Poisson
    process conditioned on ``count`` arrivals, i.e. sorted uniform times
    over ``count / rate`` seconds, so the offered load is exactly ``rate``.
    """
    rng = random.Random(f"perfbench:{seed}:{phase}")
    base = random.Random(f"perfbench:{seed}").randrange(1 << 32) + phase * PHASE_STRIDE
    inputs = Inputs([base + i for i in range(count)])
    if payloads:
        inputs.pool = rng.randbytes(_POOL_BYTES)
        inputs.offsets = [rng.randrange(_POOL_BYTES - PAYLOAD_BYTES) for _ in range(count)]
    if rate > 0:
        duration = count / rate
        inputs.schedule = sorted(rng.uniform(0.0, duration) for _ in range(count))
    return inputs


class Tally:
    """Outcomes of one phase's tasks, settled from any thread.

    A task is fine, failed (raised), wrong (returned another value) or, at
    the end of the phase, unfinished. Latency samples come from fine tasks
    only and run from the ``start`` passed in: the submit time in a closed
    loop, the scheduled send time in an open loop. ``starts[k]`` is the
    start of ``latencies[k]``.
    """

    def __init__(self, attempted: int, clock: Callable[[], float] = time.perf_counter):
        self.attempted = attempted
        self.clock = clock
        self.latencies: List[float] = []
        self.starts: List[float] = []
        self.failed = 0
        self.wrong = 0
        self.first_start = math.inf
        self.last_done = 0.0
        self._settled = 0
        self._lock = threading.Lock()
        self._all_settled = threading.Event()

    def record(self, start: float, value: Any = None, expected: Any = None,
               error: Optional[BaseException] = None) -> None:
        done = self.clock()
        with self._lock:
            self._settled += 1
            if error is not None:
                self.failed += 1
            elif value != expected:
                self.wrong += 1
            else:
                self.latencies.append(done - start)
                self.starts.append(start)
            self.first_start = min(self.first_start, start)
            self.last_done = max(self.last_done, done)
            if self._settled >= self.attempted:
                self._all_settled.set()

    def settle(self, future: Future, start: float, expected: Any) -> None:
        """Done-callback form of :meth:`record` for a concurrent future."""
        if future.cancelled():
            self.record(start, error=CancelledError())
        elif future.exception() is not None:
            self.record(start, error=future.exception())
        else:
            self.record(start, future.result(), expected)

    def wait(self, timeout: float) -> bool:
        return self._all_settled.wait(timeout)

    @property
    def errors(self) -> int:
        """Failed, wrong and unfinished tasks."""
        with self._lock:
            return self.failed + self.wrong + (self.attempted - self._settled)

    @property
    def tasks_per_s(self) -> float:
        """Fine tasks over the time from the first start to the last result."""
        span = self.last_done - self.first_start
        return len(self.latencies) / span if span > 0 else 0.0


def run_serial(submit: Callable[[int], Future], expected: Callable[[int], Any],
               tally: Tally, timeout: float) -> None:
    """Closed loop, one task in flight: submit, wait for the result, repeat."""
    for i in range(tally.attempted):
        start = tally.clock()
        future = submit(i)
        try:
            value = future.result(timeout=timeout)
        except FutureTimeout:
            return  # this task and the rest stay unfinished
        except Exception as exc:  # noqa: BLE001 - a failed task is counted, not fatal
            tally.record(start, error=exc)
            continue
        tally.record(start, value, expected(i))


def run_open_loop(schedule: Sequence[float], send: Callable[[int, float], None],
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep,
                  lead: float = 0.05) -> List[float]:
    """Open loop: call ``send(i, due)`` at ``due = start + schedule[i]``.

    Sends never wait for earlier results. A send that blocks delays the
    ones behind it, but they keep their original ``due`` time, which the
    caller times latency from (no coordinated omission). Returns how late
    each send went out, in seconds.
    """
    start = clock() + lead
    late = []
    for i, offset in enumerate(schedule):
        due = start + offset
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        late.append(max(0.0, clock() - due))
        send(i, due)
    return late


async def run_open_loop_async(schedule: Sequence[float],
                              send: Callable[[int, float], Awaitable[None]],
                              clock: Callable[[], float] = time.perf_counter,
                              lead: float = 0.05) -> List[float]:
    """:func:`run_open_loop` on an event loop: each send is its own task."""
    start = clock() + lead
    late = []
    tasks = []
    for i, offset in enumerate(schedule):
        due = start + offset
        wait = due - clock()
        if wait > 0:
            await asyncio.sleep(wait)
        late.append(max(0.0, clock() - due))
        tasks.append(asyncio.ensure_future(send(i, due)))
    await asyncio.gather(*tasks)
    return late


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``, linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def sliced_percentile(starts: Sequence[float], values: Sequence[float], q: float,
                      slices: int) -> float:
    """The median over ``slices`` consecutive, equally sized slices of
    ``values`` (taken in order of their ``starts``) of each slice's ``q``-th
    percentile; the plain percentile when there are fewer values than slices.

    A stall that lasts less than half the run moves fewer than half the
    slices and so not the median; a cost every slice pays moves it.
    """
    ordered = [value for _start, value in sorted(zip(starts, values))]
    n = len(ordered)
    if n < slices:
        return percentile(ordered, q)
    return statistics.median(
        percentile(ordered[j * n // slices:(j + 1) * n // slices], q) for j in range(slices)
    )


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)`` for the highest of p99.9, p99, p90 and p50 that has at
    least ten samples beyond it (p50 when even p90 has fewer)."""
    for q in (99.9, 99.0, 90.0):
        if round(len(values) * (100.0 - q) / 100.0, 6) >= 10:  # 100 - 99.9 is not exact
            return q, percentile(values, q)
    return 50.0, percentile(values, 50.0)
