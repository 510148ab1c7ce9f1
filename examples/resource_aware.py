"""Resource-aware scheduling: mixing 1-core and 4-core apps with priorities.

The HPDC'19 paper positions the system as serving heterogeneous workloads —
short Python calls next to multi-core applications. This example shows the
scheduling subsystem keeping such a mix safe:

* ``resource_spec={"cores": 4}`` makes an app occupy four worker slots on
  one manager (bin-packed so managers are never oversubscribed);
* ``priority=`` lets urgent work overtake a queued bulk backlog (the
  interchange's pending queue is a starvation-safe priority heap);
* both keywords work at decorator level (defaults) and at call time
  (per-invocation overrides).

Run with::

    python examples/resource_aware.py
"""

import time

import repro
from repro import Config, bash_app, python_app
from repro.executors import HighThroughputExecutor


# A bulk analysis step: one core, no special priority.
@python_app
def simulate_chunk(chunk_id, duration=0.02):
    time.sleep(duration)
    return f"chunk-{chunk_id}"


# A multi-core solver: four worker slots on a single manager, and a default
# priority so it does not starve behind bulk chunks.
@python_app(resource_spec={"cores": 4}, priority=5)
def solve_dense_block(block_id):
    time.sleep(0.05)  # stands in for a 4-thread numeric kernel
    return f"block-{block_id}"


# A multi-core bash step (e.g. "make -j4"), declared the same way.
@bash_app(resource_spec={"cores": 4})
def archive(tag):
    return f"echo 'archiving {tag} with 4 cores'"


def main():
    config = Config(
        executors=[
            HighThroughputExecutor(
                label="htex",
                workers_per_node=4,
                internal_managers=2,
                scheduling_policy="bin_pack",  # pack 1-core tasks so 4-core tasks fit
            )
        ],
        run_dir="runinfo",
    )
    repro.load(config)

    # A bulk backlog of 1-core chunks...
    chunks = [simulate_chunk(i) for i in range(40)]
    # ...and 4-core work submitted behind it, which the scheduler slots in
    # without ever oversubscribing a manager.
    blocks = [solve_dense_block(i) for i in range(3)]
    tarball = archive("results")

    # An urgent request arrives last but overtakes the queue: call-time
    # priority beats the decorator default.
    urgent = simulate_chunk("urgent", priority=9)

    print("urgent:", urgent.result())
    print("blocks:", [b.result() for b in blocks])
    print("chunks:", len([c.result() for c in chunks]), "done")
    print("archive exit code:", tarball.result())

    stats = repro.dfk().executors["htex"].interchange.scheduling_stats()
    for identity, m in stats["managers"].items():
        print(
            f"{identity}: registered {m['capacity']} cores, "
            f"peak in-flight {m['peak_in_flight_cores']}"
        )
    assert stats["oversubscription_events"] == 0

    repro.clear()


if __name__ == "__main__":
    main()
