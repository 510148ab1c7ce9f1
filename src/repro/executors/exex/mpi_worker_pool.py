"""EXEX worker pool: an MPI job whose rank 0 is the manager (§4.3.2).

Deployment matches the paper: the executor submits one multi-node batch job
per block; within that job, rank 0 takes the manager role (talking ZeroMQ —
here, the comms layer — to the interchange) while the remaining ranks are
workers that exchange tasks and results with rank 0 over MPI point-to-point
messages. Because a single rank failure kills the whole MPI job, the paper
recommends several smaller worker pools per scheduler job; the executor's
``ranks_per_pool`` parameter models exactly that.
"""

from __future__ import annotations

import argparse
import collections
import logging
import socket
import sys
import time
from typing import Any, Dict, List, Optional

from repro.comms.client import MessageClient
from repro.executors.execute_task import execute_task
from repro.executors.htex import messages as msg
from repro.mpisim import ANY_SOURCE, MPIAbort, SimComm, launch_processes, launch_threads
from repro.utils.ids import make_manager_id

logger = logging.getLogger(__name__)

#: MPI tags used inside an EXEX pool.
TAG_TASK = 1
TAG_RESULT = 2
TAG_SHUTDOWN = 3


def exex_pool_main(
    comm: SimComm,
    interchange_host: str,
    interchange_port: int,
    block_id: Optional[str] = None,
    heartbeat_period: float = 1.0,
    heartbeat_threshold: float = 10.0,
) -> Dict[str, Any]:
    """Entry function for every rank of an EXEX pool."""
    if comm.rank == 0:
        return _manager_rank(
            comm,
            interchange_host,
            interchange_port,
            block_id=block_id,
            heartbeat_period=heartbeat_period,
            heartbeat_threshold=heartbeat_threshold,
        )
    return _worker_rank(comm)


# ---------------------------------------------------------------------------
# Rank 0: manager
# ---------------------------------------------------------------------------

def _manager_rank(
    comm: SimComm,
    interchange_host: str,
    interchange_port: int,
    block_id: Optional[str],
    heartbeat_period: float,
    heartbeat_threshold: float,
) -> Dict[str, Any]:
    worker_ranks = list(range(1, comm.size))
    manager_id = make_manager_id()
    client = MessageClient(
        interchange_host,
        interchange_port,
        identity=manager_id,
        registration_info=msg.manager_registration_info(
            block_id=block_id,
            hostname=socket.gethostname(),
            worker_count=len(worker_ranks),
            kind="exex-manager",
        ),
    )
    idle_ranks = collections.deque(worker_ranks)
    task_backlog: collections.deque = collections.deque()
    rank_task: Dict[int, int] = {}
    result_batch: List[Dict[str, Any]] = []
    tasks_received = 0
    results_sent = 0
    last_heartbeat = 0.0
    last_contact = time.time()
    running = True

    def flush_results() -> None:
        nonlocal result_batch, results_sent
        if result_batch:
            client.send(msg.results_message(result_batch))
            results_sent += len(result_batch)
            result_batch = []

    try:
        while running:
            # 1. Interchange -> manager traffic.
            message = client.recv(timeout=0.01)
            if message is not None:
                mtype = message.get("type")
                if mtype == "tasks":
                    last_contact = time.time()
                    for item in message.get("items", []):
                        task_backlog.append(item)
                        tasks_received += 1
                elif mtype == "heartbeat_reply":
                    last_contact = time.time()
                elif mtype in ("shutdown", "connection_lost"):
                    running = False
            # 2. Distribute backlog to idle worker ranks.
            while task_backlog and idle_ranks:
                dest = idle_ranks.popleft()
                item = task_backlog.popleft()
                task = {"task_id": item["task_id"], "buffer": item["buffer"]}
                if item.get("walltime_s") is not None:
                    task["walltime_s"] = item["walltime_s"]
                comm.send(task, dest, tag=TAG_TASK)
                rank_task[dest] = item["task_id"]
            # 3. Collect results from workers.
            while comm.iprobe(source=ANY_SOURCE, tag=TAG_RESULT):
                result = comm.recv(source=ANY_SOURCE, tag=TAG_RESULT)
                source_rank = result["rank"]
                rank_task.pop(source_rank, None)
                idle_ranks.append(source_rank)
                result_batch.append({"task_id": result["task_id"], "buffer": result["buffer"]})
            flush_results()
            # 4. Heartbeats.
            now = time.time()
            if now - last_heartbeat > heartbeat_period:
                client.send(msg.heartbeat_message())
                last_heartbeat = now
            if now - last_contact > heartbeat_threshold:
                logger.warning("EXEX manager %s: interchange silent for %.1fs; shutting pool down", manager_id, heartbeat_threshold)
                running = False
    except MPIAbort:
        pass
    finally:
        flush_results()
        for dest in worker_ranks:
            try:
                comm.send({"shutdown": True}, dest, tag=TAG_SHUTDOWN)
            except MPIAbort:
                break
        client.close()
    return {"role": "manager", "tasks_received": tasks_received, "results_sent": results_sent}


# ---------------------------------------------------------------------------
# Ranks 1..N-1: workers
# ---------------------------------------------------------------------------

def _worker_rank(comm: SimComm) -> Dict[str, Any]:
    executed = 0
    try:
        while True:
            if comm.iprobe(source=0, tag=TAG_SHUTDOWN):
                comm.recv(source=0, tag=TAG_SHUTDOWN)
                break
            if not comm.iprobe(source=0, tag=TAG_TASK):
                time.sleep(0.001)
                continue
            item = comm.recv(source=0, tag=TAG_TASK)
            buffer = execute_task(item["buffer"], walltime_s=item.get("walltime_s"))
            comm.send({"task_id": item["task_id"], "buffer": buffer, "rank": comm.rank}, 0, tag=TAG_RESULT)
            executed += 1
    except MPIAbort:
        pass
    return {"role": "worker", "rank": comm.rank, "executed": executed}


# ---------------------------------------------------------------------------
# CLI entry point: one EXEX pool as an OS-level job
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro EXEX MPI worker pool")
    parser.add_argument("--host", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--ranks", type=int, default=4, help="total MPI ranks (rank 0 is the manager)")
    parser.add_argument("--block-id", default=None)
    parser.add_argument("--mode", choices=["threads", "processes"], default="processes")
    parser.add_argument("--heartbeat-period", type=float, default=1.0)
    parser.add_argument("--heartbeat-threshold", type=float, default=10.0)
    parser.add_argument("--debug", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.debug else logging.INFO)
    if args.ranks < 2:
        parser.error("--ranks must be >= 2 (one manager plus at least one worker)")
    launch = launch_processes if args.mode == "processes" else launch_threads
    job = launch(
        args.ranks,
        exex_pool_main,
        args.host,
        args.port,
        args.block_id,
        args.heartbeat_period,
        args.heartbeat_threshold,
    )
    job.wait()
    return 0


if __name__ == "__main__":
    sys.exit(main())
