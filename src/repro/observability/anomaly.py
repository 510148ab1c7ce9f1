"""Streaming straggler detection over live task spans.

The tracing plane stamps every task's hop timeline but only post-mortem
tools read it; this module watches the *live* population. The detector
learns, from completed traces, how long a healthy task spends between
entering each hop and finishing (its **hop-to-completion** time — measured
to completion rather than to the next hop because a live task's
worker-side stamps only merge back at result time, so its "current" hop is
wherever the gateway-side timeline stopped). A live task whose age in its
current hop exceeds ``k ×`` the rolling p99 of that hop's hop-to-completion
time is flagged a straggler, carrying its trace id, tenant, and worker so
an operator (or ``tools/repro_top.py``) can act on it; per-worker
aggregation names a sick worker/manager rather than just its tasks.

Guards against false positives, in order:

* ``min_samples`` completed observations per hop before that hop may flag
  anything (an empty model flags nothing);
* ``min_age_s`` floors the flagging age, so microsecond p99s on no-op
  workloads cannot flag tasks that are merely scheduled a tick later;
* the threshold is ``max(k × p99, min_age_s)`` — scale-free on slow
  workloads, absolute on fast ones.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.observability.slo import RollingQuantile

__all__ = ["StragglerDetector"]

#: Rolling window (seconds) for the per-hop hop-to-completion model.
MODEL_WINDOW_S = 300.0

#: Bucket bounds (seconds) for hop-to-completion times: finer than the
#: latency defaults at the sub-millisecond end (hops are often tiny) and
#: stretching to multi-minute tails.
HOP_BOUNDS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Hops a live task can never be *seen in*: worker-side stamps
#: (``executing``/``exec_done``/``result_sent``) merge into the gateway's
#: timeline only when the result arrives, and the commit/delivery stamps
#: postdate completion by definition. Modeling them would be pure
#: per-completion overhead — :meth:`StragglerDetector.scan` can never
#: match them as a current hop. Kept as a blocklist (not an allowlist of
#: today's pre-result hops) so custom stamp sites are modeled by default.
NON_LIVE_HOPS = frozenset({
    "executing", "exec_done", "result_sent", "result_committed", "delivered",
})

#: Buffered completions that force an inline drain on the recording
#: thread; normally the gateway's 1 Hz tick (or any read) drains first.
PENDING_CAP = 1024


class StragglerDetector:
    """Flag live tasks whose current hop age exceeds k × rolling p99.

    Feed completions via :meth:`complete`; ask for verdicts on the live
    population via :meth:`scan`. Both are thread-safe and O(1)-per-sample /
    O(live tasks)-per-scan. ``complete`` only buffers the finished
    timeline (one lock acquisition on the completion thread); the hop
    model is updated — with each completion's original timestamps — by
    :meth:`drain`, which every read calls first and the gateway's service
    loop ticks at 1 Hz.
    """

    def __init__(self, factor: float = 4.0, min_age_s: float = 0.5,
                 min_samples: int = 20, window_s: float = MODEL_WINDOW_S,
                 time_fn: Callable[[], float] = time.time):
        if factor <= 0 or min_age_s < 0 or min_samples < 1 or window_s <= 0:
            raise ValueError("straggler detector parameters out of range")
        self.factor = float(factor)
        self.min_age_s = float(min_age_s)
        self.min_samples = int(min_samples)
        self.window_s = float(window_s)
        self._time = time_fn
        self._lock = threading.Lock()
        #: hop name -> rolling hop-to-completion distribution.
        self._hops: Dict[str, RollingQuantile] = {}
        #: Finished timelines awaiting absorption, (events-copy, t).
        self._pending: List[Tuple[List[Any], float]] = []
        self._completed = 0

    # ------------------------------------------------------------------
    # Learning from completions
    # ------------------------------------------------------------------
    def _hop(self, name: str) -> RollingQuantile:
        est = self._hops.get(name)
        if est is None:
            with self._lock:
                est = self._hops.get(name)
                if est is None:
                    est = RollingQuantile(window_s=self.window_s,
                                          bounds=HOP_BOUNDS,
                                          time_fn=self._time)
                    self._hops[name] = est
        return est

    def complete(self, trace: Optional[Dict[str, Any]],
                 now: Optional[float] = None) -> None:
        """Absorb one finished task's timeline into the per-hop model.

        For every stamped hop the observation is ``final_t − hop_t``: how
        long a task entering that hop normally has left. Traceless tasks
        (tracing disabled) contribute nothing.
        """
        if not trace:
            return
        events = trace.get("events") or []
        if len(events) < 2:
            return
        t = self._time() if now is None else now
        with self._lock:
            # Copy the timeline: a retry may append hops to the live list
            # between now and the drain.
            self._pending.append((list(events), t))
            overfull = len(self._pending) >= PENDING_CAP
        if overfull:
            self.drain()

    def drain(self) -> None:
        """Absorb buffered completions into the per-hop model.

        Every read calls this first; the gateway also ticks it at 1 Hz so
        the model stays warm between polls. Concurrent drains each swap
        out and apply a disjoint batch.
        """
        with self._lock:
            batch, self._pending = self._pending, []
            self._completed += len(batch)
        hops = self._hops
        for events, t in batch:
            final_t = events[-1][1]
            for name, hop_t in events[:-1]:
                if name in NON_LIVE_HOPS:
                    continue
                est = hops.get(name)
                if est is None:
                    est = self._hop(name)
                left = final_t - hop_t
                est.record(left if left > 0.0 else 0.0, now=t)

    def completed_count(self) -> int:
        """Completions absorbed since construction (model freshness)."""
        self.drain()
        return self._completed

    def hop_p99(self, name: str, now: Optional[float] = None) -> Optional[float]:
        """Rolling p99 hop-to-completion for ``name`` (None = no data)."""
        self.drain()
        est = self._hops.get(name)
        return None if est is None else est.quantile(0.99, now=now)

    # ------------------------------------------------------------------
    # Judging the live population
    # ------------------------------------------------------------------
    def scan(self, live: Iterable[Tuple[Dict[str, Any], Dict[str, Any]]],
             now: Optional[float] = None,
             limit: int = 32) -> List[Dict[str, Any]]:
        """Flag stragglers among ``(trace, meta)`` pairs of in-flight tasks.

        ``meta`` supplies context the trace may lack (``tenant``); the
        worker comes from the trace's ``manager`` stamp (written by the
        interchange at dispatch). Returns JSON-ready records sorted by how
        far over threshold each task is, truncated to ``limit``.
        """
        self.drain()
        t = self._time() if now is None else now
        flagged: List[Dict[str, Any]] = []
        for trace, meta in live:
            if not trace:
                continue
            events = trace.get("events") or []
            if not events:
                continue
            hop, hop_t = events[-1]
            age = t - hop_t
            est = self._hops.get(hop)
            if est is None or est.count(now=t) < self.min_samples:
                continue
            p99 = est.quantile(0.99, now=t)
            if p99 is None:
                continue
            threshold = max(self.factor * p99, self.min_age_s)
            if age <= threshold:
                continue
            flagged.append({
                "trace_id": trace.get("id"),
                "task": trace.get("task"),
                "tenant": meta.get("tenant"),
                "hop": hop,
                "age_s": round(age, 4),
                "p99_s": round(p99, 4),
                "threshold_s": round(threshold, 4),
                "over": round(age / threshold, 2) if threshold > 0 else 0.0,
                "worker": trace.get("manager"),
            })
        flagged.sort(key=lambda r: r["over"], reverse=True)
        return flagged[:limit]

    @staticmethod
    def worker_report(stragglers: List[Dict[str, Any]],
                      sick_min: int = 3,
                      sick_fraction: float = 0.5) -> List[Dict[str, Any]]:
        """Aggregate flagged tasks per worker and name the sick ones.

        A worker is marked ``sick`` when it owns at least ``sick_min``
        stragglers *and* at least ``sick_fraction`` of all attributed
        ones — a concentration signal: one slow task is a task problem,
        most of the flagged population on one manager is a host problem.
        """
        by_worker: Dict[str, int] = {}
        attributed = 0
        for row in stragglers:
            worker = row.get("worker")
            if worker is None:
                continue
            by_worker[worker] = by_worker.get(worker, 0) + 1
            attributed += 1
        report = []
        for worker, n in sorted(by_worker.items(), key=lambda kv: -kv[1]):
            report.append({
                "worker": worker,
                "stragglers": n,
                "sick": n >= sick_min and attributed > 0
                        and n / attributed >= sick_fraction,
            })
        return report
