"""Per-tenant SLO engine: rolling-window quantiles and burn-rate alerts.

The metrics plane (:mod:`repro.observability.metrics`) accumulates
*forever*: a ``Histogram`` answers "p99 since the process started", which
is the wrong question for an operator watching a live service — one bad
minute drowns in a good day. This module adds the time-local half:

* :class:`RollingQuantile` — a fixed-memory sliding-window quantile
  estimator. The window is divided into ``slots`` sub-windows, each a
  fixed-bucket count array; recording is O(1) (a bucket index plus integer
  adds, bounded by the fixed bucket count) and querying merges the live
  sub-windows. Expiry is lazy: a slot is reset the first time its ring
  position is reused, so there is no sweeper thread.
* :class:`SloEngine` — per-tenant latency objectives (declared via
  ``WorkflowGateway(tenant_slos=...)``) evaluated Prometheus-alerting
  style over two windows (fast + slow) of error-budget **burn rate**,
  producing typed :class:`SloAlert` events, ``repro_slo_burn`` gauges,
  and a pluggable ``on_alert`` callback for schedulers that want to react
  (e.g. priority boosts on burn).

Burn-rate math, for an objective "p99 ≤ 250 ms": the error budget is the
fraction of requests *allowed* over the target, ``1 − 0.99 = 1%``. The
burn rate is ``(observed fraction over target) / budget`` — 1.0 means the
budget is being spent exactly as fast as it accrues, 10.0 means ten times
too fast. An alert fires only when **both** the fast window (the
objective's ``window_s``) and the slow window (default 10×) burn at or
above ``burn_threshold``: the slow window keeps a single spike from
paging, the fast window makes recovery reset the alert quickly.

Error bound (pinned by ``tests/observability/test_rolling_quantile_property.py``):
:meth:`RollingQuantile.quantile` returns a value inside the bucket that
contains the ``ceil(q·n)``-th smallest sample of the live window —
i.e. within ``(lower_bound, upper_bound]`` of that bucket, clamped to the
largest finite bound for overflow samples. ``frac_over`` is exact when the
threshold is one of the bucket bounds (the engine guarantees this by
splicing every SLO target into the bound list) and undercounts by at most
one bucket's population otherwise.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
)

__all__ = [
    "RollingQuantile",
    "SloObjective",
    "SloAlert",
    "SloEngine",
    "parse_tenant_slos",
]

#: Sub-windows per sliding window: expiry resolution is window_s / SLOTS.
DEFAULT_SLOTS = 8

#: Fallback window (seconds) for tenants/streams with no declared objective.
DEFAULT_WINDOW_S = 60.0

#: Slow window multiplier when an objective does not set ``slow_window_s``.
SLOW_WINDOW_FACTOR = 10.0

#: Objective keys understood in ``tenant_slos`` entries.
OBJECTIVE_QUANTILES = {"p50_ms": 0.50, "p95_ms": 0.95, "p99_ms": 0.99}

#: Buffered samples that force an inline drain on the recording thread.
#: Normally the 1 Hz ``evaluate()`` tick (or any read) drains the buffer;
#: the cap only bounds memory when nothing ever reads.
PENDING_CAP = 4096


class RollingQuantile:
    """Fixed-memory quantile estimates over a sliding time window.

    A ring of ``slots`` sub-window bucket-count arrays; ``record`` lands in
    the sub-window owning ``now`` (lazily resetting it when the ring
    position is reused by a newer sub-window), and queries merge every
    sub-window still inside ``window_s``. Memory is
    ``slots × (len(bounds)+1)`` integers regardless of traffic.
    """

    __slots__ = ("window_s", "bounds", "slots", "_slot_width", "_counts",
                 "_totals", "_sums", "_slot_ids", "_lock", "_time")

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 slots: int = DEFAULT_SLOTS,
                 time_fn: Callable[[], float] = time.time):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bounds must be a non-empty ascending sequence")
        self.window_s = float(window_s)
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.slots = int(slots)
        self._slot_width = self.window_s / self.slots
        width = len(self.bounds) + 1  # +1 overflow bucket
        self._counts = [[0] * width for _ in range(self.slots)]
        self._totals = [0] * self.slots
        self._sums = [0.0] * self.slots
        self._slot_ids = [-1] * self.slots
        self._lock = threading.Lock()
        self._time = time_fn

    def record(self, value: float, now: Optional[float] = None) -> None:
        """Record one sample at ``now`` (defaults to the injected clock)."""
        t = self._time() if now is None else now
        sid = int(t // self._slot_width)
        idx = sid % self.slots
        bucket = bisect_left(self.bounds, value)
        with self._lock:
            if self._slot_ids[idx] != sid:
                row = self._counts[idx]
                for i in range(len(row)):
                    row[i] = 0
                self._totals[idx] = 0
                self._sums[idx] = 0.0
                self._slot_ids[idx] = sid
            self._counts[idx][bucket] += 1
            self._totals[idx] += 1
            self._sums[idx] += value

    def _merged(self, now: Optional[float]) -> Tuple[List[int], int, float]:
        """Counts/total/sum over the sub-windows still inside the window."""
        t = self._time() if now is None else now
        current = int(t // self._slot_width)
        oldest = current - self.slots + 1
        merged = [0] * (len(self.bounds) + 1)
        total, total_sum = 0, 0.0
        with self._lock:
            for idx in range(self.slots):
                sid = self._slot_ids[idx]
                if sid < oldest or sid > current:
                    continue
                row = self._counts[idx]
                for i, c in enumerate(row):
                    merged[i] += c
                total += self._totals[idx]
                total_sum += self._sums[idx]
        return merged, total, total_sum

    def count(self, now: Optional[float] = None) -> int:
        """Number of samples currently inside the window."""
        return self._merged(now)[1]

    def mean(self, now: Optional[float] = None) -> Optional[float]:
        """Windowed mean, or ``None`` for an empty window."""
        _counts, total, total_sum = self._merged(now)
        return (total_sum / total) if total else None

    def quantile(self, q: float, now: Optional[float] = None) -> Optional[float]:
        """Windowed ``q``-quantile estimate, or ``None`` for an empty window.

        The estimate lies inside the bucket containing the ``ceil(q·n)``-th
        smallest live sample (linear interpolation within it); overflow
        samples clamp to the largest finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        counts, total, _sum = self._merged(now)
        if total == 0:
            return None
        rank = max(1, math.ceil(q * total))
        cumulative = 0
        for idx, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count > 0:
                upper = self.bounds[idx] if idx < len(self.bounds) else self.bounds[-1]
                lower = self.bounds[idx - 1] if 0 < idx <= len(self.bounds) else (
                    self.bounds[-1] if idx > len(self.bounds) else 0.0)
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.bounds[-1]

    def frac_over(self, threshold: float, now: Optional[float] = None) -> float:
        """Fraction of live samples strictly greater than ``threshold``.

        Exact when ``threshold`` is one of the bucket bounds; otherwise the
        bucket straddling the threshold is excluded (an undercount of at
        most that bucket's population). 0.0 for an empty window.
        """
        counts, total, _sum = self._merged(now)
        if total == 0:
            return 0.0
        idx = bisect_left(self.bounds, threshold)
        if idx < len(self.bounds) and self.bounds[idx] == threshold:
            under = sum(counts[:idx + 1])
        else:
            under = sum(counts[:idx + 1])  # straddling bucket counted as under
        return (total - under) / total


@dataclass(frozen=True)
class SloObjective:
    """One tenant latency objective (e.g. "interactive p99 ≤ 250 ms")."""

    tenant: str
    name: str            #: objective key, e.g. ``"p99_ms"``
    quantile: float      #: 0.50 / 0.95 / 0.99
    target_s: float      #: latency target in seconds
    window_s: float      #: fast evaluation window
    slow_window_s: float  #: slow evaluation window
    burn_threshold: float  #: both windows must burn >= this to fire

    @property
    def budget(self) -> float:
        """Allowed fraction of requests over target (``1 − quantile``)."""
        return max(1.0 - self.quantile, 1e-9)


@dataclass
class SloAlert:
    """A firing (or just-resolved) burn-rate alert for one objective."""

    tenant: str
    objective: str
    target_ms: float
    window_s: float
    slow_window_s: float
    fast_burn: float
    slow_burn: float
    threshold: float
    observed_ms: Optional[float]  #: current fast-window quantile, ms
    fired_t: float
    state: str = "firing"
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (what ``GET /v1/alerts`` serves)."""
        return {
            "kind": "slo_burn",
            "tenant": self.tenant,
            "objective": self.objective,
            "target_ms": self.target_ms,
            "window_s": self.window_s,
            "slow_window_s": self.slow_window_s,
            "fast_burn": round(self.fast_burn, 4),
            "slow_burn": round(self.slow_burn, 4),
            "threshold": self.threshold,
            "observed_ms": (None if self.observed_ms is None
                            else round(self.observed_ms, 3)),
            "fired_t": self.fired_t,
            "state": self.state,
        }


def parse_tenant_slos(raw: Optional[Dict[str, Dict[str, Any]]]
                      ) -> List[SloObjective]:
    """Turn a gateway's ``tenant_slos`` mapping into typed objectives.

    Each tenant entry may declare any of ``p50_ms``/``p95_ms``/``p99_ms``
    (milliseconds) plus optional ``window_s`` (fast window, default 60),
    ``slow_window_s`` (default 10× the fast window), and ``burn_threshold``
    (default 1.0). Raises ``ValueError`` on malformed entries; the
    :class:`~repro.service.gateway.WorkflowGateway` constructor surfaces
    this as a ``ConfigurationError`` before it binds its port.
    """
    objectives: List[SloObjective] = []
    for tenant, spec in (raw or {}).items():
        if not isinstance(spec, dict):
            raise ValueError(f"SLO spec for tenant {tenant!r} must be a mapping")
        window_s = float(spec.get("window_s", DEFAULT_WINDOW_S))
        slow_window_s = float(spec.get("slow_window_s",
                                       window_s * SLOW_WINDOW_FACTOR))
        threshold = float(spec.get("burn_threshold", 1.0))
        if window_s <= 0 or slow_window_s <= 0 or threshold <= 0:
            raise ValueError(
                f"SLO windows/threshold for tenant {tenant!r} must be positive")
        targets = [k for k in spec if k in OBJECTIVE_QUANTILES]
        if not targets:
            raise ValueError(
                f"SLO spec for tenant {tenant!r} declares no objective "
                f"(expected one of {sorted(OBJECTIVE_QUANTILES)})")
        unknown = set(spec) - set(OBJECTIVE_QUANTILES) - {
            "window_s", "slow_window_s", "burn_threshold"}
        if unknown:
            raise ValueError(
                f"SLO spec for tenant {tenant!r} has unknown keys {sorted(unknown)}")
        for key in targets:
            target_ms = spec[key]
            if not isinstance(target_ms, (int, float)) or target_ms <= 0:
                raise ValueError(
                    f"SLO target {key} for tenant {tenant!r} must be a "
                    f"positive number of milliseconds")
            objectives.append(SloObjective(
                tenant=str(tenant), name=key,
                quantile=OBJECTIVE_QUANTILES[key],
                target_s=float(target_ms) / 1000.0,
                window_s=window_s, slow_window_s=slow_window_s,
                burn_threshold=threshold,
            ))
    return objectives


class _TenantWindows:
    """One tenant's estimators: one per distinct window length."""

    __slots__ = ("estimators", "objectives", "_est_tuple")

    def __init__(self, objectives: List[SloObjective], bounds: Tuple[float, ...],
                 time_fn: Callable[[], float]):
        self.objectives = objectives
        windows = {DEFAULT_WINDOW_S}
        for obj in objectives:
            windows.add(obj.window_s)
            windows.add(obj.slow_window_s)
        self.estimators: Dict[float, RollingQuantile] = {
            w: RollingQuantile(window_s=w, bounds=bounds, time_fn=time_fn)
            for w in windows
        }
        #: Frozen iteration order for the hot path (no dict-view per record).
        self._est_tuple = tuple(self.estimators.values())

    def record(self, value: float, now: Optional[float]) -> None:
        for est in self._est_tuple:
            est.record(value, now=now)


class SloEngine:
    """Live per-tenant latency state plus burn-rate alerting.

    ``record(tenant, latency_s)`` is the hot path (fed by the gateway's
    completion hook); ``record_stream(name, latency_s)`` accepts auxiliary
    latency streams (e.g. per-executor worker execution time from the
    interchange). Both only timestamp the sample and append it to a
    buffer — one uncontended lock acquisition, well under a microsecond —
    so completion threads never pay for estimator updates. The buffer is
    applied (with each sample's *original* timestamp, so windowing is
    unaffected) by the next read: ``evaluate()``, which the gateway's
    service loop calls at 1 Hz and every alerts surface calls lazily, or
    either snapshot. ``PENDING_CAP`` bounds the buffer if nothing reads.
    """

    #: Minimum fast-window samples before an objective may fire (guards
    #: one-request windows from instantly burning at max rate).
    min_samples = 5

    def __init__(self, tenant_slos: Optional[Dict[str, Dict[str, Any]]] = None,
                 registry: MetricsRegistry = NULL_REGISTRY,
                 on_alert: Optional[Callable[[SloAlert], None]] = None,
                 time_fn: Callable[[], float] = time.time):
        self._time = time_fn
        self._registry = registry
        self._on_alert = on_alert
        self._lock = threading.Lock()
        objectives = parse_tenant_slos(tenant_slos)
        self._objectives_by_tenant: Dict[str, List[SloObjective]] = {}
        for obj in objectives:
            self._objectives_by_tenant.setdefault(obj.tenant, []).append(obj)
        # Splice every target into the bound list so frac_over() is exact
        # at each objective's threshold (see the module docstring).
        bounds = set(DEFAULT_LATENCY_BUCKETS)
        bounds.update(obj.target_s for obj in objectives)
        self._bounds = tuple(sorted(bounds))
        self._tenants: Dict[str, _TenantWindows] = {}
        self._streams: Dict[str, RollingQuantile] = {}
        #: Timestamped samples awaiting application, (key, value, t).
        self._pending: List[Tuple[str, float, float]] = []
        self._pending_streams: List[Tuple[str, float, float]] = []
        #: (tenant, objective-name) -> SloAlert for currently-firing alerts.
        self._active: Dict[Tuple[str, str], SloAlert] = {}

    # ------------------------------------------------------------------
    # Recording (hot path)
    # ------------------------------------------------------------------
    def _tenant(self, tenant: str) -> _TenantWindows:
        entry = self._tenants.get(tenant)
        if entry is None:
            with self._lock:
                entry = self._tenants.get(tenant)
                if entry is None:
                    entry = _TenantWindows(
                        self._objectives_by_tenant.get(tenant, []),
                        self._bounds, self._time)
                    self._tenants[tenant] = entry
        return entry

    def record(self, tenant: str, latency_s: float,
               now: Optional[float] = None) -> None:
        """Record one end-to-end latency sample for ``tenant`` (buffered)."""
        t = self._time() if now is None else now
        with self._lock:
            self._pending.append((tenant, latency_s, t))
            overfull = len(self._pending) >= PENDING_CAP
        if overfull:
            self._drain()

    def record_stream(self, name: str, latency_s: float,
                      now: Optional[float] = None) -> None:
        """Record into the named auxiliary stream (e.g. ``exec:htex``)."""
        t = self._time() if now is None else now
        with self._lock:
            self._pending_streams.append((name, latency_s, t))
            overfull = len(self._pending_streams) >= PENDING_CAP
        if overfull:
            self._drain()

    def _stream(self, name: str) -> RollingQuantile:
        est = self._streams.get(name)
        if est is None:
            with self._lock:
                est = self._streams.get(name)
                if est is None:
                    est = RollingQuantile(bounds=self._bounds, time_fn=self._time)
                    self._streams[name] = est
        return est

    def _drain(self) -> None:
        """Apply buffered samples to the estimators, off the hot path.

        Samples carry their recording-time timestamps, so a late drain
        lands each one in the sub-window it belongs to. Concurrent drains
        each swap out and apply a disjoint batch.
        """
        with self._lock:
            batch, self._pending = self._pending, []
            streams, self._pending_streams = self._pending_streams, []
        for tenant, value, t in batch:
            self._tenant(tenant).record(value, t)
        for name, value, t in streams:
            self._stream(name).record(value, now=t)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _burns(self, obj: SloObjective, entry: _TenantWindows,
               now: Optional[float]) -> Tuple[float, float, int]:
        fast = entry.estimators[obj.window_s]
        slow = entry.estimators[obj.slow_window_s]
        fast_burn = fast.frac_over(obj.target_s, now=now) / obj.budget
        slow_burn = slow.frac_over(obj.target_s, now=now) / obj.budget
        return fast_burn, slow_burn, fast.count(now=now)

    def evaluate(self, now: Optional[float] = None) -> List[SloAlert]:
        """Refresh burn gauges and the active-alert set; return it.

        Rising edges invoke ``on_alert`` (exceptions swallowed — a broken
        hook must not take the service loop down); falling edges clear the
        alert from the active set.
        """
        self._drain()
        t = self._time() if now is None else now
        fired: List[SloAlert] = []
        for tenant, objectives in self._objectives_by_tenant.items():
            entry = self._tenant(tenant)
            for obj in objectives:
                fast_burn, slow_burn, n_fast = self._burns(obj, entry, now)
                for window, burn in (("fast", fast_burn), ("slow", slow_burn)):
                    self._registry.gauge(
                        "repro_slo_burn",
                        "Error-budget burn rate per tenant SLO objective",
                        labels={"tenant": tenant, "objective": obj.name,
                                "window": window},
                    ).set(burn)
                key = (tenant, obj.name)
                burning = (n_fast >= self.min_samples
                           and fast_burn >= obj.burn_threshold
                           and slow_burn >= obj.burn_threshold)
                with self._lock:
                    active = self._active.get(key)
                    if burning and active is None:
                        observed = entry.estimators[obj.window_s].quantile(
                            obj.quantile, now=now)
                        alert = SloAlert(
                            tenant=tenant, objective=obj.name,
                            target_ms=obj.target_s * 1000.0,
                            window_s=obj.window_s,
                            slow_window_s=obj.slow_window_s,
                            fast_burn=fast_burn, slow_burn=slow_burn,
                            threshold=obj.burn_threshold,
                            observed_ms=(None if observed is None
                                         else observed * 1000.0),
                            fired_t=t,
                        )
                        self._active[key] = alert
                        fired.append(alert)
                    elif burning and active is not None:
                        active.fast_burn = fast_burn
                        active.slow_burn = slow_burn
                        observed = entry.estimators[obj.window_s].quantile(
                            obj.quantile, now=now)
                        active.observed_ms = (None if observed is None
                                              else observed * 1000.0)
                    elif not burning and active is not None:
                        del self._active[key]
        for alert in fired:
            if self._on_alert is not None:
                try:
                    self._on_alert(alert)
                except Exception:  # noqa: BLE001 - hook must not kill the loop
                    pass
        with self._lock:
            return list(self._active.values())

    def active_alerts(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Evaluate, then return the firing alerts as JSON-ready dicts."""
        return [a.to_dict() for a in self.evaluate(now=now)]

    # ------------------------------------------------------------------
    # Snapshots (what the ops surfaces serve)
    # ------------------------------------------------------------------
    def tenant_snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Per-tenant windowed latency + objective state, JSON-ready."""
        self._drain()
        out: Dict[str, Any] = {}
        with self._lock:
            tenants = dict(self._tenants)
        for tenant, entry in tenants.items():
            # The shortest window doubles as the tenant's "live" view.
            live = entry.estimators.get(DEFAULT_WINDOW_S)
            if live is None:  # pragma: no cover - DEFAULT always present
                live = next(iter(entry.estimators.values()))
            row: Dict[str, Any] = {"count": live.count(now=now)}
            for label, q in (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99)):
                value = live.quantile(q, now=now)
                row[label] = None if value is None else round(value * 1000.0, 3)
            row["objectives"] = []
            for obj in entry.objectives:
                fast_burn, slow_burn, n_fast = self._burns(obj, entry, now)
                observed = entry.estimators[obj.window_s].quantile(
                    obj.quantile, now=now)
                row["objectives"].append({
                    "objective": obj.name,
                    "target_ms": obj.target_s * 1000.0,
                    "window_s": obj.window_s,
                    "observed_ms": (None if observed is None
                                    else round(observed * 1000.0, 3)),
                    "fast_burn": round(fast_burn, 4),
                    "slow_burn": round(slow_burn, 4),
                    "threshold": obj.burn_threshold,
                    "firing": (tenant, obj.name) in self._active,
                })
            out[tenant] = row
        return out

    def stream_snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Auxiliary stream quantiles (e.g. per-executor worker latency)."""
        self._drain()
        out: Dict[str, Any] = {}
        with self._lock:
            streams = dict(self._streams)
        for name, est in streams.items():
            p50, p99 = est.quantile(0.50, now=now), est.quantile(0.99, now=now)
            out[name] = {
                "count": est.count(now=now),
                "p50_ms": None if p50 is None else round(p50 * 1000.0, 3),
                "p99_ms": None if p99 is None else round(p99 * 1000.0, 3),
            }
        return out
