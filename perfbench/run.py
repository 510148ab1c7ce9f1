"""The benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository. It uses the program's source in
``src/`` as it is (nothing is installed) and exits with code 2, printing
no result, when that source is missing. Everything it writes goes under
``.perfbench/`` in the checkout: a per-run work directory, removed at the
end, and the span files of traced runs. ``perfbench/README.md`` describes
the workloads and metrics.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"perfbench: no program source at {source.parent}; run from a checkout",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    # Set before the program is imported, and inherited by the worker
    # pools: temporary files and the data manager's object store stay
    # inside the checkout.
    os.environ["TMPDIR"] = str(workdir / "tmp")
    os.environ["REPRO_OBJECT_STORE_DIR"] = str(workdir / "objects")
    # Replace this script's directory on the path with the checkout's
    # source and root, so ``perfbench`` is imported as a package.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    return bench.main(sys.argv[1:], ROOT, workdir)


if __name__ == "__main__":
    sys.exit(main())
