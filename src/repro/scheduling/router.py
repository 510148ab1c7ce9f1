"""The DFK-level multi-executor router.

Replaces the DataFlowKernel's hardcoded executor choice (random pick among
healthy executors) with a three-stage decision:

1. **label match** — the candidate set is the spec's ``executors`` affinity
   when given, else the app decorator's ``executors=`` hint, else every
   configured executor. Unknown labels raise
   :class:`~repro.errors.NoSuchExecutorError` at submit time.
2. **load-aware spillover** — among healthy candidates, pick the one with
   the lowest load score (outstanding tasks per connected worker); ties are
   broken randomly, so an idle fleet behaves exactly like the old random
   choice while a hot executor sheds new work to its peers.
3. **backpressure cap** — with ``Config.router_backpressure`` set, an
   executor already holding that many outstanding tasks is not considered
   while any candidate is below the cap; when every candidate is saturated
   the least-loaded one is used (the cap bounds skew, not admission).

The router holds no state of its own beyond the executor table reference, so
it is safe to call from every thread that launches or submits a task.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.errors import NoSuchExecutorError, ResourceSpecError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.executors.base import ReproExecutor
    from repro.scheduling.spec import ResourceSpec

#: The pseudo-label join apps run under (locally, inside the DFK).
INTERNAL_EXECUTOR = "_dfk_internal"


class ExecutorRouter:
    """Route each task to one executor label.

    One router instance lives on the DataFlowKernel
    (``DataFlowKernel._choose_executor`` delegates here for every task).
    The gateway's :class:`~repro.service.shard.ShardRouter` reuses the same
    load-aware/random-tie-break policy shape at the coarser tenant→kernel
    grain.
    """

    def __init__(
        self,
        executors: Dict[str, "ReproExecutor"],
        rng: Optional[random.Random] = None,
        backpressure: Optional[int] = None,
    ):
        """Wrap the DFK's executor table.

        :param executors: label → executor mapping (shared, not copied —
            the router always sees the DFK's current fleet).
        :param rng: tie-break randomness source; injectable for
            deterministic tests.
        :param backpressure: ``Config.router_backpressure`` — outstanding
            cap per executor before new work spills to peers; ``None``
            disables the cap.
        """
        if backpressure is not None and backpressure < 1:
            raise ValueError("backpressure must be >= 1 when set")
        self.executors = executors
        self.backpressure = backpressure
        self._rng = rng or random.Random()

    # ------------------------------------------------------------------
    def route(
        self,
        requested: Union[str, Sequence[str], None] = "all",
        spec: Optional["ResourceSpec"] = None,
        join: bool = False,
    ) -> str:
        """Pick the executor label for one task.

        :param requested: the app decorator's ``executors=`` hint — a
            label, a sequence of labels, or ``"all"``/``None`` for any.
            A spec-level ``executors`` affinity overrides it.
        :param spec: the task's :class:`ResourceSpec`; a non-default spec
            restricts candidates to executors that support specs (and a
            multi-core spec with no capable candidate raises
            :class:`~repro.errors.ResourceSpecError`).
        :param join: join apps bypass routing and run inside the DFK
            (:data:`INTERNAL_EXECUTOR`).
        :raises NoSuchExecutorError: for a label not in the config.
        """
        if join:
            return INTERNAL_EXECUTOR
        candidates = self._candidate_labels(requested, spec)
        if spec is not None and not spec.is_default:
            # A non-default spec needs an executor that honors it: one that
            # rejects specs (LLEX) would fail the task terminally, one that
            # ignores them (thread pool) would silently drop the cores
            # reservation.
            capable = [
                label for label in candidates if self.executors[label].supports_resource_specs
            ]
            if capable:
                candidates = capable
            elif spec.cores > 1:
                # A cores reservation is a hard constraint — silently running
                # a 64-core task as one slot would be wrong, so refuse in the
                # submitter's stack. Advisory fields (priority, hints)
                # degrade gracefully instead: the candidate executors simply
                # ignore or reject them on their own terms.
                raise ResourceSpecError(
                    f"task asks for {spec.cores} cores but none of the candidate executors "
                    f"{candidates} supports per-task resource specifications"
                )
        healthy = [label for label in candidates if not self.executors[label].bad_state_is_set]
        if not healthy:
            # Every candidate is bad: keep the requested placement; the
            # submission failure flows through the normal retry path.
            healthy = candidates
        return self._pick_least_loaded(healthy)

    # ------------------------------------------------------------------
    def _candidate_labels(
        self, requested: Union[str, Sequence[str], None], spec: Optional["ResourceSpec"]
    ) -> List[str]:
        labels: List[str]
        if spec is not None and spec.executors is not None:
            labels = list(spec.executors)
        elif requested == "all" or requested is None:
            labels = list(self.executors)
        elif isinstance(requested, str):
            labels = [requested]
        else:
            labels = [label for label in requested if label is not None]
            if not labels:
                labels = list(self.executors)
        for label in labels:
            if label not in self.executors:
                raise NoSuchExecutorError(label, list(self.executors))
        return labels

    def _load_score(self, label: str) -> float:
        executor = self.executors[label]
        return executor.outstanding / max(executor.connected_workers, 1)

    def _pick_least_loaded(self, labels: List[str]) -> str:
        if len(labels) == 1:
            return labels[0]
        if self.backpressure is not None:
            below_cap = [
                label for label in labels if self.executors[label].outstanding < self.backpressure
            ]
            if below_cap:
                labels = below_cap
        # Snapshot the scores once: executors' outstanding counters move
        # concurrently (result callbacks), and re-reading them between the
        # min() and the filter could leave no label matching the minimum.
        scores = {label: self._load_score(label) for label in labels}
        best_score = min(scores.values())
        best = [label for label, score in scores.items() if score == best_score]
        return self._rng.choice(best)
