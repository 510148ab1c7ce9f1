"""Concrete launchers.

Because this reproduction executes blocks on the local host (optionally under
the simulated LRM), the launchers emit POSIX-shell loops that behave like
their HPC counterparts: they replicate the worker command once per node (and,
for GNU-parallel style launchers, once per task slot), exporting the
environment variables real launchers would provide (node id, ranks per node)
so worker-pool code can use them identically.
"""

from __future__ import annotations

from repro.launchers.base import Launcher


class SimpleLauncher(Launcher):
    """Run the command exactly once for the whole block (no wrapping)."""

    def __call__(self, command: str, tasks_per_node: int, nodes_per_block: int) -> str:
        return command


class SingleNodeLauncher(Launcher):
    """Run one copy of the command per task slot on a single node.

    This is the default launcher for workstation-class providers: it starts
    ``tasks_per_node`` copies in the background and waits for all of them.
    """

    def __call__(self, command: str, tasks_per_node: int, nodes_per_block: int) -> str:
        return (
            "set -e\n"
            f"CORES={tasks_per_node}\n"
            'PIDS=""\n'
            "for RANK in $(seq 0 $((CORES-1))); do\n"
            f"  REPRO_NODE_RANK=0 REPRO_LOCAL_RANK=$RANK {command} &\n"
            '  PIDS="$PIDS $!"\n'
            "done\n"
            "wait $PIDS\n"
        )


class _PerNodeLoopLauncher(Launcher):
    """Shared implementation for srun/aprun/mpiexec-style launchers.

    Real launchers place one process per node (or per rank) across the
    allocation; the local equivalent is a loop that starts one copy per node
    with ``REPRO_NODE_RANK`` set to the node's index.
    """

    launcher_name = "generic"

    def __call__(self, command: str, tasks_per_node: int, nodes_per_block: int) -> str:
        return (
            "set -e\n"
            f"# emulating {self.launcher_name} across {nodes_per_block} node(s)\n"
            f"NODES={nodes_per_block}\n"
            'PIDS=""\n'
            "for NODE in $(seq 0 $((NODES-1))); do\n"
            f"  REPRO_NODE_RANK=$NODE REPRO_TASKS_PER_NODE={tasks_per_node} "
            f"REPRO_LAUNCHER={self.launcher_name} {command} &\n"
            '  PIDS="$PIDS $!"\n'
            "done\n"
            "wait $PIDS\n"
        )


class SrunLauncher(_PerNodeLoopLauncher):
    """Slurm ``srun``-style launcher."""

    launcher_name = "srun"


class AprunLauncher(_PerNodeLoopLauncher):
    """Cray ALPS ``aprun``-style launcher (what the Blue Waters runs used)."""

    launcher_name = "aprun"


class MpiExecLauncher(_PerNodeLoopLauncher):
    """``mpiexec``-style launcher used for MPI-capable partitions."""

    launcher_name = "mpiexec"


class GnuParallelLauncher(Launcher):
    """GNU-parallel-style launcher: one copy per (node, task-slot) pair."""

    launcher_name = "gnu-parallel"

    def __call__(self, command: str, tasks_per_node: int, nodes_per_block: int) -> str:
        total = tasks_per_node * nodes_per_block
        return (
            "set -e\n"
            f"# emulating GNU parallel with {total} slots\n"
            f"TOTAL={total}\n"
            f"PER_NODE={tasks_per_node}\n"
            'PIDS=""\n'
            "for SLOT in $(seq 0 $((TOTAL-1))); do\n"
            "  NODE=$((SLOT / PER_NODE))\n"
            "  RANK=$((SLOT % PER_NODE))\n"
            f"  REPRO_NODE_RANK=$NODE REPRO_LOCAL_RANK=$RANK REPRO_LAUNCHER={self.launcher_name} {command} &\n"
            '  PIDS="$PIDS $!"\n'
            "done\n"
            "wait $PIDS\n"
        )


class WrappedLauncher(Launcher):
    """Run the command through a user-supplied prefix (e.g. a container runtime).

    This is how container execution (§4.6) is expressed: the prepend string is
    typically ``singularity exec image.sif`` or ``docker run --rm image``.
    """

    def __init__(self, prepend: str, debug: bool = False):
        super().__init__(debug=debug)
        self.prepend = prepend.strip()

    def __call__(self, command: str, tasks_per_node: int, nodes_per_block: int) -> str:
        return f"{self.prepend} {command}"

    def __repr__(self) -> str:
        return f"WrappedLauncher(prepend={self.prepend!r})"
