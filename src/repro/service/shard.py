"""Sharding the gateway across N DataFlowKernels.

One :class:`~repro.service.gateway.WorkflowGateway` process can front more
concurrency than one DFK pipeline comfortably absorbs: the kernel's
dispatch/completion path is a per-kernel serialization point. This module
splits the execution fabric into **shards** — each shard wraps one DFK plus
its own fair-share queue, dispatch window and completion hook — while the
gateway keeps a single protocol/session brain in front of all of them. A
shard runs no thread of its own: a queued task enters its DFK on the thread
that queued it or on the one that freed a slot in its window.

Placement is the :class:`ShardRouter`'s job, reusing the two policy shapes
of :class:`~repro.scheduling.router.ExecutorRouter` at the coarser grain:

* **consistent hashing** on the tenant name (a hash ring with virtual
  nodes) gives every tenant a sticky *home shard*, so one tenant's tasks
  land on one kernel — warm caches, batched dispatch, and per-kernel
  fair-share state stay coherent without any cross-shard coordination;
* **load-aware spillover** breaks stickiness exactly when it would hurt:
  when the home shard's backlog exceeds ``spillover`` × the least-loaded
  live shard's (hysteresis against flapping), or the home shard is dead,
  the task goes to the least-loaded live shard instead (random tie-break,
  as in :meth:`ExecutorRouter._pick_least_loaded`).

Shard death is survivable: the gateway detaches the dead shard's completion
hook first (so nothing it still completes can be delivered — the dedup
table would otherwise see double results) and re-routes its queued *and*
in-flight tasks through this router onto the survivors.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.scheduling.queues import WeightedFairShareQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dflow import DataFlowKernel


def _ring_hash(key: str) -> int:
    """Stable 64-bit placement hash (Python's ``hash()`` is salted per run)."""
    return int.from_bytes(hashlib.md5(key.encode()).digest()[:8], "big")


class GatewayShard:
    """One DFK behind the gateway: queue + window + accounting.

    Owned by the gateway; all mutable fields are guarded by the gateway's
    lock, under which the thread that queues a task or frees a slot moves
    this shard's queue into its DFK.
    """

    def __init__(self, index: int, dfk: "DataFlowKernel", window: int,
                 default_weight: int):
        self.index = index
        self.dfk = dfk
        #: Dispatch window: how many of this shard's tasks may sit inside
        #: its DFK at once (queued-beyond stays in the fair-share queue).
        self.window = window
        self.queue = WeightedFairShareQueue(default_weight=default_weight)
        #: Tasks dispatched into the DFK and not yet final.
        self.inflight = 0
        self.dispatched_total = 0
        self.completed_total = 0
        self.alive = True
        #: True while a thread drains the queue into the DFK: a task that
        #: finishes inside ``dfk.submit`` must not start a nested drain.
        self.dispatching = False
        #: The completion-hook closure registered with this shard's DFK
        #: (kept so kill/stop can detach exactly the right hook).
        self.hook: Any = None

    def load(self) -> int:
        """Backlog metric the router compares shards by."""
        return self.inflight + self.queue.qsize()

    def stats(self) -> Dict[str, Any]:
        """Snapshot of this shard's counters for ``stats_reply``/healthz.

        Includes a ``faults`` row aggregating the execution-layer fault
        counters (managers lost, workers lost, tasks redispatched, tasks
        poisoned) across every interchange-backed executor behind this
        shard's DFK, so an operator polling gateway ``stats`` sees worker
        crashes without shelling into the cluster, and a ``metrics`` row
        with the flat per-shard summary of the kernel's live metrics
        registry (empty when ``Config(metrics_enabled=False)``).
        """
        faults: Dict[str, int] = {
            "managers_lost": 0,
            "workers_lost": 0,
            "tasks_redispatched": 0,
            "tasks_poisoned": 0,
        }
        for executor in getattr(self.dfk, "executors", {}).values():
            interchange = getattr(executor, "interchange", None)
            if interchange is None:
                continue
            try:
                for key, value in interchange.fault_stats().items():
                    if key in faults:
                        faults[key] += int(value)
            except Exception:  # noqa: BLE001 - stats must not kill the gateway
                continue
        registry = getattr(self.dfk, "metrics", None)
        try:
            metrics = registry.summary() if registry is not None else {}
        except Exception:  # noqa: BLE001 - stats must not kill the gateway
            metrics = {}
        return {
            "alive": int(self.alive),
            "inflight": self.inflight,
            "queued": self.queue.qsize(),
            "window": self.window,
            "dispatched": self.dispatched_total,
            "completed": self.completed_total,
            "faults": faults,  # type: ignore[dict-item]
            "metrics": metrics,  # type: ignore[dict-item]
        }


class ShardRouter:
    """Consistent-hash tenant placement with load-aware spillover.

    Thread-safety: :meth:`route` only reads shard counters (racy reads are
    fine — placement is a heuristic), so callers may invoke it with or
    without the gateway lock held.
    """

    def __init__(self, shards: Sequence[GatewayShard], vnodes: int = 64,
                 spillover: float = 2.0,
                 rng: Optional[random.Random] = None):
        if not shards:
            raise ValueError("ShardRouter needs at least one shard")
        self.shards = list(shards)
        self.vnodes = max(1, vnodes)
        #: Home-shard overload tolerance: spill only when home backlog
        #: exceeds ``spillover * (min live backlog + 1)``. The +1 keeps an
        #: idle fleet sticky (0 > 2*0 would spill on the first task).
        self.spillover = spillover
        self._rng = rng or random.Random()
        ring: List[tuple] = []
        for shard in self.shards:
            for v in range(self.vnodes):
                ring.append((_ring_hash(f"shard-{shard.index}/{v}"), shard.index))
        ring.sort()
        self._ring_keys = [key for key, _ in ring]
        self._ring_shards = [idx for _, idx in ring]

    def home(self, tenant: str) -> GatewayShard:
        """The tenant's hash-ring home shard, dead or alive."""
        point = _ring_hash(tenant)
        slot = bisect.bisect_right(self._ring_keys, point) % len(self._ring_keys)
        return self.shards[self._ring_shards[slot]]

    def route(self, tenant: str) -> Optional[GatewayShard]:
        """Pick the shard for one task of ``tenant``; ``None`` if none live.

        Sticky to :meth:`home` while it is alive and not overloaded
        relative to the least-loaded live shard; otherwise least-loaded
        live shard with a random tie-break.
        """
        live = [s for s in self.shards if s.alive]
        if not live:
            return None
        home = self.home(tenant)
        if len(live) == 1:
            return live[0] if home.alive else live[0]
        # Read each backlog once: a caller without the lock sees counters
        # move between reads, and a floor taken from one read may then match
        # no shard on the next.
        loads = [(s.load(), s) for s in live]
        floor = min(load for load, _ in loads)
        if home.alive and home.load() <= self.spillover * (floor + 1):
            return home
        return self._rng.choice([s for load, s in loads if load == floor])

    def live_count(self) -> int:
        """How many shards are currently alive."""
        return sum(1 for s in self.shards if s.alive)
