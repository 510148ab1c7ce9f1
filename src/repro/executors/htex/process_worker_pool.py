"""CLI entry point for an HTEX manager (the per-node pilot agent).

This is the command the provider launches on every node of a block::

    python -m repro.executors.htex.process_worker_pool \
        --host 127.0.0.1 --port 54321 --workers 4 --block-id block-0

Each manager's identity is a fresh uuid-based id, and its registration
carries the node's hostname.
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro.executors.htex.manager import Manager


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="repro HTEX process worker pool (manager)")
    parser.add_argument("--host", required=True, help="interchange host")
    parser.add_argument("--port", type=int, required=True, help="interchange manager port")
    parser.add_argument("--workers", type=int, default=2, help="worker processes on this node")
    parser.add_argument("--prefetch", type=int, default=0, help="extra tasks to prefetch beyond worker count")
    parser.add_argument("--block-id", default=None, help="block id this manager belongs to")
    parser.add_argument("--heartbeat-period", type=float, default=1.0)
    parser.add_argument("--heartbeat-threshold", type=float, default=10.0)
    parser.add_argument(
        "--worker-respawn-limit",
        type=int,
        default=8,
        help="crashed-worker respawns before the manager gives up and exits",
    )
    parser.add_argument("--worker-mode", choices=["process", "thread"], default="process")
    parser.add_argument("--sandbox-root", default=None, help="directory for per-worker sandboxes")
    parser.add_argument("--debug", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.debug else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    manager = Manager(
        interchange_host=args.host,
        interchange_port=args.port,
        worker_count=args.workers,
        prefetch_capacity=args.prefetch,
        block_id=args.block_id,
        heartbeat_period=args.heartbeat_period,
        heartbeat_threshold=args.heartbeat_threshold,
        worker_respawn_limit=args.worker_respawn_limit,
        worker_mode=args.worker_mode,
        sandbox_root=args.sandbox_root,
    )
    manager.run_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
