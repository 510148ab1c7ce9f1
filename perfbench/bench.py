"""Run one workload, check every result, and print every metric with its unit.

With ``--trace 0`` the run sets the stack up :data:`SETUPS` times
(``setup_s`` is the median), warms up, then runs the workload's fixed work
once and reports the end-to-end metrics. With ``--trace 1`` it sets up
once, runs half the work untraced and then as much fresh work traced,
and reports the per-layer metrics and diagnostics. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
task failed, returned a wrong value or did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from perfbench import apps
from perfbench.loadgen import percentile, sliced_percentile, tail_percentile
from perfbench.stack import Stack, reap
from perfbench.tracing import PER_LAYER, Tracer
from perfbench.workloads import WORKLOADS, Phase, Workload, run_phase

#: End-to-end metrics in the order they are printed, with their units.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_us_per_task", "us"),
    ("peak_rss_mb", "MB"),
)
#: Stacks built by an untraced run; ``setup_s`` is their median.
SETUPS = 9
#: Warm-up work before the measured phase, in seconds at the workload's rate.
WARMUP_S = 0.5
#: Latency percentiles are the median over this many consecutive slices of
#: the measured tasks (2 s each in a 20 s run), so that a neighbour's burst
#: on the shared machine, which stalls one slice, does not move them.
LATENCY_SLICES = 10
#: A stack that gives no first result within this fails the run.
SETUP_DEADLINE_S = 60.0
#: Past this the run aborts, so it always ends within 180 s.
RUN_DEADLINE_S = 170.0
#: Machine-speed probes taken before and after a traced run, each.
PROBE_ROUNDS = 3


class SetupFailed(Exception):
    """A stack gave no first result within :data:`SETUP_DEADLINE_S`."""


def cpu_probe_ms() -> float:
    """Milliseconds for a fixed pure-Python loop: a reading of machine speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


class Run:
    """One invocation: what it runs, where it writes, the worker pools it
    started, and the tasks it attempted and got wrong."""

    def __init__(self, workload: Workload, seed: int, seconds: float, root: Path, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.workdir = workdir
        self.pythonpath = os.pathsep.join([str(root / "src"), str(root)])
        self.pgids: Set[int] = set()
        self.attempted = 0
        self.failed = 0
        self.timeout = 60.0 + 4.0 * seconds
        self._stacks = 0

    def build(self, hook: Optional[Any] = None) -> Tuple[Stack, float]:
        """Set a stack up; returns it with the seconds from the start of its
        construction to its first result."""
        index = self._stacks
        self._stacks += 1
        expected = -1 - index  # set-up tasks never share arguments with measured ones
        self.attempted += 1
        start = time.perf_counter()
        stack = Stack(self.workload.stack, self.workdir / f"stack-{index}", self.pythonpath,
                      self.pgids, hook)
        try:
            stack.start()
            value = stack.first_result(apps.noop, expected, SETUP_DEADLINE_S)
        except Exception as exc:  # noqa: BLE001 - any set-up failure fails the run
            self.failed += 1
            stack.close()
            raise SetupFailed(f"stack {index} gave no first result: {exc!r}") from exc
        elapsed = time.perf_counter() - start
        if value != expected:
            self.failed += 1
        return stack, elapsed

    def phase(self, stack: Stack, number: int, seconds: float) -> Phase:
        """Run phase ``number`` (its own seeded inputs) on ``stack``."""
        inputs = self.workload.inputs(self.seed, number, seconds)
        result = run_phase(self.workload, stack, inputs, self.timeout)
        self.attempted += result.tally.attempted
        self.failed += result.tally.errors
        return result


def end_to_end(run: Run) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The untraced run: set-ups, a warm-up, then the measured phase."""
    setups: List[float] = []
    for k in range(SETUPS):
        stack, seconds = run.build()
        setups.append(seconds)
        if k < SETUPS - 1:
            stack.close()
    try:
        run.phase(stack, 0, WARMUP_S)
        measured = run.phase(stack, 1, run.seconds)
    finally:
        stack.close()
    tally = measured.tally
    return {
        "setup_s": statistics.median(setups),
        "tasks_per_s": tally.tasks_per_s,
        "latency_p50_ms": sliced_percentile(tally.starts, tally.latencies, 50, LATENCY_SLICES) * 1e3,
        "latency_p90_ms": sliced_percentile(tally.starts, tally.latencies, 90, LATENCY_SLICES) * 1e3,
        "cpu_us_per_task": measured.cpu_us_per_task,
        "peak_rss_mb": peak_rss_mb(),
    }, {}


def per_layer(run: Run) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The traced run: one set-up, a warm-up, half the work untraced, then
    as much again traced."""
    probes = [cpu_probe_ms() for _ in range(PROBE_ROUNDS)]
    tracer = Tracer()
    stack, _ = run.build(hook=tracer.completion_hook)
    try:
        run.phase(stack, 0, WARMUP_S)
        plain = run.phase(stack, 1, run.seconds / 2)
        tracer.install(stack)
        try:
            traced = run.phase(stack, 2, run.seconds / 2)
        finally:
            tracer.remove()
    finally:
        stack.close()
    probes += [cpu_probe_ms() for _ in range(PROBE_ROUNDS)]
    metrics = tracer.layer_metrics(len(traced.tally.latencies))
    q, tail = tail_percentile(plain.tally.latencies)
    base = plain.cpu_us_per_task
    metrics.update({
        "loadgen.latency_p99_ms": tail * 1e3,
        "loadgen.samples": float(len(plain.tally.latencies)),
        "loadgen.late_p99_ms": percentile(plain.late, 99) * 1e3,
        "harness.trace_overhead_pct": (traced.cpu_us_per_task / base - 1.0) * 100.0 if base else 0.0,
        "harness.cpu_probe_ms": statistics.median(probes),
    })
    tracer.write(run.root / ".perfbench" / "traces" / f"{run.workload.name}-seed{run.seed}.jsonl.gz")
    return metrics, {"loadgen.latency_p99_ms": f"  (p{q:g} of the untraced phase)"}


def _abort(run: Run) -> None:
    """Watchdog: fail the run rather than let a hang outlive the time limit."""
    print(f"perfbench: no result within {RUN_DEADLINE_S:.0f} s; aborting", file=sys.stderr)
    attempted = max(run.attempted, 1)
    print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted,
                      "metrics": {}}), flush=True)
    reap(run.pgids, grace=0.0)
    shutil.rmtree(run.workdir, ignore_errors=True)
    os._exit(3)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str], root: Path, workdir: Path) -> int:
    args = parse_args(argv)
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, root, workdir)
    table = PER_LAYER if args.trace else END_TO_END
    watchdog = threading.Timer(RUN_DEADLINE_S, _abort, args=(run,))
    watchdog.daemon = True
    watchdog.start()
    metrics: Dict[str, float] = {}
    notes: Dict[str, str] = {}
    try:
        metrics, notes = (per_layer if args.trace else end_to_end)(run)
    except SetupFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
    finally:
        watchdog.cancel()
        shutil.rmtree(workdir, ignore_errors=True)
    correct = bool(metrics) and run.failed == 0
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, unit in table:
        if name in metrics:
            print(f"  {name:<32} {metrics[name]:>12.6g} {unit}{notes.get(name, '')}")
    print(f"  {'error_rate':<32} {run.failed / max(run.attempted, 1):>12.6g}   ({run.failed} of "
          f"{run.attempted} tasks failed, returned a wrong value or did not finish)")
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table
                    if name in metrics},
    }), flush=True)
    return 0 if correct else 1
