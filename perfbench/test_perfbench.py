"""Self-tests of the benchmark harness; none of them starts a stack."""

import json
import pickle
from pathlib import Path

import pytest

from perfbench import loadgen
from perfbench.bench import END_TO_END
from perfbench.tracing import PER_LAYER
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _all_inputs(seed):
    """Every value each workload would send in one phase, pickled."""
    parts = []
    for workload in WORKLOADS.values():
        inputs = workload.inputs(seed, phase=1, seconds=1.0)
        payloads = [inputs.payload(i) for i in range(len(inputs.indices))] if workload.payload else []
        parts.append((workload.name, inputs.indices, payloads, inputs.schedule))
    return pickle.dumps(parts)


def test_one_seed_gives_identical_inputs_and_two_seeds_differ():
    assert _all_inputs(11) == _all_inputs(11)
    assert _all_inputs(11) != _all_inputs(12)


def test_task_arguments_are_distinct_across_tasks_and_phases():
    workload = WORKLOADS["payload_open"]
    first, second = workload.inputs(3, 1, 1.0), workload.inputs(3, 2, 1.0)
    n = len(first.indices)
    assert len(set(first.indices) | set(second.indices)) == 2 * n
    payloads = {first.payload(i) for i in range(n)}
    assert len(payloads) == n
    assert {len(p) for p in payloads} == {loadgen.PAYLOAD_BYTES}


def test_open_loop_offers_exactly_its_rate():
    inputs = WORKLOADS["gateway_tcp"].inputs(5, 1, 2.0)
    assert len(inputs.schedule) == 200
    assert inputs.schedule == sorted(inputs.schedule)
    assert 0.0 <= inputs.schedule[0] and inputs.schedule[-1] < 2.0


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_times_requests_from_their_scheduled_send_time():
    """A send that stalls delays the ones behind it; their latency must still
    run from when each was due (no coordinated omission), and the lateness
    the generator reports must show the stall."""
    clock = _FakeClock()
    tally = loadgen.Tally(10, clock=clock)
    schedule = [i / 10 for i in range(10)]  # one request every 100 ms

    def send(i, due):
        if i == 3:
            clock.now += 0.5  # this send blocks for 500 ms
        tally.record(due, i, i)  # the system answers at once

    late = loadgen.run_open_loop(schedule, send, clock=clock, sleep=clock.sleep, lead=0.0)
    # Requests 4-7 were due during the stall and went out when it ended, at 0.8 s.
    assert tally.latencies == pytest.approx([0, 0, 0, 0.5, 0.4, 0.3, 0.2, 0.1, 0, 0], abs=1e-9)
    assert late == pytest.approx([0, 0, 0, 0, 0.4, 0.3, 0.2, 0.1, 0, 0], abs=1e-9)
    assert loadgen.percentile(late, 99) > 0.39
    assert tally.errors == 0


def test_tally_counts_wrong_failed_and_unfinished_tasks():
    tally = loadgen.Tally(4, clock=_FakeClock())
    tally.record(0.0, 1, 1)
    tally.record(0.0, 2, 3)
    tally.record(0.0, error=RuntimeError("boom"))
    assert (tally.wrong, tally.failed, tally.errors) == (1, 1, 3)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    values = list(range(1000))
    assert loadgen.tail_percentile(values)[0] == 99.0
    assert loadgen.tail_percentile(values * 10)[0] == 99.9
    assert loadgen.tail_percentile(values[:50])[0] == 50.0


def test_sliced_percentile_ignores_a_short_stall_but_not_a_steady_cost():
    starts = [i / 100 for i in range(1000)]
    steady = [0.008] * 1000
    stalled = [0.2 if 500 <= i < 650 else 0.008 for i in range(1000)]  # two slices in ten
    slower = [0.009] * 1000
    assert loadgen.percentile(stalled, 90) > 0.1
    assert loadgen.sliced_percentile(starts, stalled, 90, 10) == pytest.approx(0.008)
    assert loadgen.sliced_percentile(starts, slower, 90, 10) == pytest.approx(0.009)
    # Samples are sliced in order of their start, not of their arrival.
    assert loadgen.sliced_percentile(starts[::-1], stalled[::-1], 90, 10) == pytest.approx(0.008)
    assert loadgen.sliced_percentile(starts[:5], steady[:5], 90, 10) == pytest.approx(0.008)


def test_benchmark_json_matches_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
