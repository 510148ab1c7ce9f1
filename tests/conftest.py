"""Shared pytest fixtures.

The heavyweight fixture here is ``local_dfk``: a DataFlowKernel backed by an
internal-mode HighThroughputExecutor (real interchange + manager + thread
workers, all in-process) plus a ThreadPoolExecutor, which most integration
tests use. Executor start-up costs a few hundred milliseconds, so the
fixture is module-scoped where possible and every test that loads its own
DFK must clear the loader afterwards (enforced by ``_loader_guard``).
"""

from __future__ import annotations

import pathlib
import re
import threading
import time

import pytest

import repro
from repro import Config
from repro.core.dflow import DataFlowKernelLoader
from repro.executors import HighThroughputExecutor, ThreadPoolExecutor


@pytest.fixture(autouse=True)
def _loader_guard():
    """Guarantee no DataFlowKernel leaks between tests."""
    yield
    if DataFlowKernelLoader._dfk is not None:
        try:
            DataFlowKernelLoader.clear()
        except Exception:
            DataFlowKernelLoader._dfk = None


@pytest.fixture
def run_dir(tmp_path):
    d = tmp_path / "runinfo"
    d.mkdir(exist_ok=True)
    return str(d)


def make_local_config(run_dir: str, **overrides) -> Config:
    """A fast, fully local configuration used across integration tests."""
    defaults = dict(
        executors=[
            HighThroughputExecutor(label="htex_local", workers_per_node=4, internal_managers=1),
            ThreadPoolExecutor(label="threads", max_threads=2),
        ],
        retries=0,
        run_dir=run_dir,
        strategy="none",
    )
    defaults.update(overrides)
    return Config(**defaults)


@pytest.fixture
def local_dfk(run_dir):
    """A loaded DataFlowKernel with an internal HTEX and a thread pool."""
    dfk = repro.load(make_local_config(run_dir))
    yield dfk
    repro.clear()


@pytest.fixture
def threads_dfk(run_dir):
    """A minimal thread-pool-only DataFlowKernel (fastest startup)."""
    cfg = Config(
        executors=[ThreadPoolExecutor(label="threads", max_threads=4)],
        run_dir=run_dir,
        strategy="none",
    )
    dfk = repro.load(cfg)
    yield dfk
    repro.clear()


# ---------------------------------------------------------------------------
# Prometheus text-format (version 0.0.4) validation, shared by the metrics
# unit tests and the HTTP edge's /metrics endpoint tests.
# ---------------------------------------------------------------------------

_PROM_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_PROM_LABEL = r"[a-zA-Z_][a-zA-Z0-9_]*"
_PROM_SAMPLE = re.compile(
    rf"^({_PROM_NAME})"
    rf"(\{{{_PROM_LABEL}=\"(?:[^\"\\\n]|\\[\\\"n])*\""
    rf"(?:,{_PROM_LABEL}=\"(?:[^\"\\\n]|\\[\\\"n])*\")*\}})?"
    r" (-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|Inf)|\+Inf|NaN)"
    r"( -?\d+)?$"
)
_PROM_COMMENT = re.compile(rf"^# (HELP|TYPE) ({_PROM_NAME})(?: (.*))?$")
_PROM_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


def _strip_le(labels: str) -> str:
    """Drop the ``le`` pair from a rendered label block, keeping the rest."""
    rest = re.sub(r'le="[^"]*",?', "", labels).replace(",}", "}")
    return "" if rest == "{}" else rest


def validate_prometheus_text(text: str) -> None:
    """Assert ``text`` parses as Prometheus exposition format 0.0.4.

    Checks the line grammar (HELP/TYPE comments, sample lines with quoted
    escaped label values, float values), that TYPE appears at most once per
    family and before its samples, and histogram invariants: cumulative
    ``_bucket`` counts are non-decreasing in ``le`` order and the ``+Inf``
    bucket equals ``_count``. Raises ``AssertionError`` with the offending
    line on any violation.
    """
    typed: dict = {}
    seen_samples: set = set()
    buckets: dict = {}  # family -> {labelset-minus-le: [(le, value)]}
    counts: dict = {}  # family -> {labelset: value}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            m = _PROM_COMMENT.match(line)
            assert m, f"malformed comment line: {line!r}"
            if m.group(1) == "TYPE":
                name = m.group(2)
                assert name not in typed, f"duplicate TYPE for {name}"
                assert m.group(3) in _PROM_TYPES, f"bad type in: {line!r}"
                assert not any(s.startswith(name) for s in seen_samples), (
                    f"TYPE for {name} after its samples"
                )
                typed[name] = m.group(3)
            continue
        m = _PROM_SAMPLE.match(line)
        assert m, f"malformed sample line: {line!r}"
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        seen_samples.add(name)
        if name.endswith("_bucket") and typed.get(name[:-7]) == "histogram":
            le = re.search(r'le="([^"]*)"', labels)
            assert le, f"histogram bucket without le label: {line!r}"
            family_buckets = buckets.setdefault(name[:-7], {})
            family_buckets.setdefault(_strip_le(labels), []).append(
                (le.group(1), float(value))
            )
        elif name.endswith("_count") and typed.get(name[:-6]) == "histogram":
            counts.setdefault(name[:-6], {})[labels] = float(value)
    for family, by_labels in buckets.items():
        for rest, entries in by_labels.items():
            values = [v for _le, v in entries]
            assert values == sorted(values), (
                f"{family}{rest}: bucket counts not cumulative: {entries}"
            )
            by_le = dict(entries)
            assert "+Inf" in by_le, f"{family}{rest}: no +Inf bucket"
            count = counts.get(family, {}).get(rest)
            assert count is not None and by_le["+Inf"] == count, (
                f"{family}{rest}: +Inf bucket {by_le['+Inf']} != count {count}"
            )


@pytest.fixture
def prom_validator():
    """The Prometheus text-format validator, as a fixture both the metrics
    unit tests and the service-layer scrape tests share."""
    return validate_prometheus_text


# ---------------------------------------------------------------------------
# Idle wake-ups: how often a thread that should be blocked runs anyway.
# ---------------------------------------------------------------------------
def _context_switches(thread) -> int:
    status = pathlib.Path(f"/proc/self/task/{thread.native_id}/status").read_text()
    return sum(
        int(line.split()[1])
        for line in status.splitlines()
        if line.startswith(("voluntary_ctxt_switches:", "nonvoluntary_ctxt_switches:"))
    )


def count_context_switches(thread, window: float) -> int:
    """Context switches ``thread`` makes over ``window`` seconds.

    A thread blocked with no timeout makes none; one that polls makes one per
    poll. The window opens once the thread has been still for 50 ms, so the
    switches of its start-up are not counted.
    """
    deadline = time.monotonic() + 5.0
    before = _context_switches(thread)
    while time.monotonic() < deadline:
        time.sleep(0.05)
        settled, before = before, _context_switches(thread)
        if settled == before:
            break
    time.sleep(window)
    return _context_switches(thread) - before


@pytest.fixture
def context_switches():
    """:func:`count_context_switches`, skipping where /proc has no per-thread status."""
    if not pathlib.Path(f"/proc/self/task/{threading.get_native_id()}/status").exists():
        pytest.skip("needs /proc/self/task/<tid>/status")
    return count_context_switches
