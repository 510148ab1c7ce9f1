"""The workflow gateway service: many tenants sharing one kernel.

A tour of `repro.service` in a single process (the gateway and its clients
communicate over real TCP, so splitting this across terminals or machines
only changes the host/port):

1. host a DataFlowKernel behind a WorkflowGateway,
2. authenticate tenants with TokenStore-scoped tokens,
3. run two weighted tenants side by side and watch fair share shape their
   completions,
4. sever a client mid-run and watch it reconnect, resume its session, and
   recover the results it missed.

Run with::

    python examples/service_clients.py
"""

import os
import tempfile
import time

import repro
from repro import Config, ServiceClient, WorkflowGateway
from repro.auth import TokenStore
from repro.errors import AuthenticationError
from repro.executors import HighThroughputExecutor
from repro.service.protocol import token_scope


# ---------------------------------------------------------------------------
# The tenants' workload: any picklable callable works, exactly like an app.
# ---------------------------------------------------------------------------

def simulate(x, duration=0.01):
    time.sleep(duration)
    return x * x


def main():
    workdir = tempfile.mkdtemp(prefix="repro-service-")

    # 1. Host: one kernel, one gateway ----------------------------------
    dfk = repro.load(Config(
        executors=[HighThroughputExecutor(label="htex", workers_per_node=4)],
        run_dir=os.path.join(workdir, "runinfo"),
    ))

    # 2. Auth: mint a token for the 'prod' tenant (dev stays open).
    store = TokenStore(path=os.path.join(workdir, "tokens.json"))
    store.login([token_scope("prod")])
    prod_token = store.get_token(token_scope("prod"))

    gateway = WorkflowGateway(
        dfk,
        token_store=store,
        tenant_weights={"prod": 10, "dev": 1},   # prod gets 10x the share
        window=8,                   # small window => fair share, not FIFO, decides
        max_inflight_per_tenant=200,
    ).start()
    print(f"gateway serving {dfk.run_id} on {gateway.host}:{gateway.port}")

    # A forged token is rejected at the handshake.
    try:
        ServiceClient(gateway.host, gateway.port, tenant="prod", token="forged")
    except AuthenticationError as exc:
        print(f"forged token rejected: {exc}")

    # 3. Weighted tenants ------------------------------------------------
    prod = ServiceClient(gateway.host, gateway.port, tenant="prod", token=prod_token)
    dev = ServiceClient(gateway.host, gateway.port, tenant="dev")
    n = 120
    prod_futures = [prod.submit(simulate, i) for i in range(n)]
    dev_futures = [dev.submit(simulate, i) for i in range(n)]

    while True:
        stats = gateway.stats()
        done = stats["prod"]["completed"] + stats["dev"]["completed"]
        if done >= n:
            break
        time.sleep(0.02)
    print(
        "at the halfway mark: prod completed "
        f"{stats['prod']['completed']}, dev completed {stats['dev']['completed']} "
        "(~10:1, the configured weights)"
    )
    for f in prod_futures + dev_futures:
        f.result(timeout=60)

    # 4. Reconnect-and-resume -------------------------------------------
    flaky = ServiceClient(
        gateway.host, gateway.port, tenant="dev", reconnect_interval=0.05
    )
    futures = [flaky.submit(simulate, i, 0.02) for i in range(40)]
    time.sleep(0.2)                # some results in, many still in flight
    flaky.drop_connection()        # simulate a network partition / crash
    recovered = [f.result(timeout=60) for f in futures]
    print(
        f"severed mid-run: recovered all {len(recovered)} results after "
        f"{flaky.reconnects} session resume(s)"
    )

    print("admin stats:", dev.stats())

    for client in (prod, dev, flaky):
        client.close()
    gateway.stop()
    repro.clear()
    print("done.")


if __name__ == "__main__":
    main()
