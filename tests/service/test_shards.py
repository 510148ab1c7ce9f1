"""Tests for the sharded gateway: ring routing, multi-shard execution,
shard death (re-route, typed failure), and durable restart via the store."""

import collections
import random
import time

import pytest

import repro
from repro import Config
from repro.errors import ShardUnavailableError
from repro.executors import ThreadPoolExecutor
from repro.service import ServiceClient, WorkflowGateway
from repro.service.shard import ShardRouter, _ring_hash

from faults import GatewayHarness, wait_for


def double(x):
    return x * 2


def slow_double(x, duration=0.02):
    time.sleep(duration)
    return x * 2


class StubShard:
    """Duck-typed stand-in for GatewayShard: just what the router reads."""

    def __init__(self, index, load=0, alive=True):
        self.index = index
        self.alive = alive
        self._load = load

    def load(self):
        return self._load


def make_router(loads, vnodes=64, spillover=2.0, seed=7):
    shards = [StubShard(i, load=ld) for i, ld in enumerate(loads)]
    return shards, ShardRouter(shards, vnodes=vnodes, spillover=spillover,
                               rng=random.Random(seed))


class TestRingRouter:
    def test_placement_hash_is_process_stable(self):
        # Unlike hash(), the ring hash must not vary with PYTHONHASHSEED.
        assert _ring_hash("alice") == _ring_hash("alice")
        assert _ring_hash("alice") != _ring_hash("bob")

    def test_home_is_deterministic_across_router_instances(self):
        _, r1 = make_router([0, 0, 0, 0])
        _, r2 = make_router([0, 0, 0, 0])
        for i in range(50):
            tenant = f"tenant-{i}"
            assert r1.home(tenant).index == r2.home(tenant).index

    def test_homes_spread_across_shards(self):
        _, router = make_router([0, 0, 0, 0])
        homes = collections.Counter(
            router.home(f"tenant-{i}").index for i in range(400)
        )
        # Every shard owns a non-trivial arc of the ring.
        assert set(homes) == {0, 1, 2, 3}
        assert min(homes.values()) >= 400 // 16

    def test_idle_fleet_stays_sticky(self):
        shards, router = make_router([0, 0, 0])
        for i in range(20):
            tenant = f"tenant-{i}"
            assert router.route(tenant) is router.home(tenant)

    def test_overloaded_home_spills_to_least_loaded(self):
        shards, router = make_router([0, 0, 0], spillover=2.0)
        tenant = next(
            f"t-{i}" for i in range(100) if _home_index(router, f"t-{i}") == 1
        )
        shards[1]._load = 50
        shards[0]._load = 3
        shards[2]._load = 1
        # home load 50 > 2.0 * (1 + 1): spill to the floor shard.
        assert router.route(tenant) is shards[2]

    def test_moderate_home_load_does_not_spill(self):
        shards, router = make_router([0, 0, 0], spillover=2.0)
        tenant = next(
            f"t-{i}" for i in range(100) if _home_index(router, f"t-{i}") == 1
        )
        shards[1]._load = 4
        shards[0]._load = 1
        shards[2]._load = 1
        # 4 <= 2.0 * (1 + 1): hysteresis keeps the tenant home.
        assert router.route(tenant) is shards[1]

    def test_dead_home_routes_to_live_floor(self):
        shards, router = make_router([5, 0, 2])
        tenant = next(
            f"t-{i}" for i in range(100) if _home_index(router, f"t-{i}") == 0
        )
        shards[0].alive = False
        assert router.route(tenant) is shards[1]
        assert router.live_count() == 2

    def test_all_dead_routes_none(self):
        shards, router = make_router([0, 0])
        for s in shards:
            s.alive = False
        assert router.route("anyone") is None
        assert router.live_count() == 0

    def test_tie_break_is_random_among_floor_shards(self):
        shards, router = make_router([0, 0, 0, 0], spillover=1.0)
        tenant = next(
            f"t-{i}" for i in range(100) if _home_index(router, f"t-{i}") == 0
        )
        shards[0]._load = 100  # force spill; everyone else ties at 0
        picked = {router.route(tenant).index for _ in range(60)}
        assert picked <= {1, 2, 3} and len(picked) >= 2

    def test_backlogs_moving_during_a_route_still_pick_a_shard(self):
        # route() may run without the gateway lock while pumps drain the
        # queues: every load() call here reports one less than the last.
        shards, router = make_router([0, 0, 0], spillover=1.0)
        tenant = next(
            f"t-{i}" for i in range(100) if _home_index(router, f"t-{i}") == 0
        )
        draining = {0: iter(range(100, 0, -1)), 1: iter(range(10, 0, -1)),
                    2: iter(range(10, 0, -1))}
        for shard in shards:
            shard.load = lambda s=shard: next(draining[s.index])
        assert router.route(tenant) in (shards[1], shards[2])


def _home_index(router, tenant):
    return router.home(tenant).index


# ---------------------------------------------------------------------------
# Sharded gateway integration
# ---------------------------------------------------------------------------

def make_dfk(run_dir, max_threads=4):
    return repro.DataFlowKernel(
        Config(
            executors=[ThreadPoolExecutor(label="threads", max_threads=max_threads)],
            run_dir=run_dir,
            strategy="none",
            app_cache=False,
        )
    )


@pytest.fixture
def two_dfks(tmp_path):
    dfks = [make_dfk(str(tmp_path / f"dfk-{i}")) for i in range(2)]
    yield dfks
    for dfk in dfks:
        dfk.cleanup()


class TestShardedGateway:
    def test_roundtrip_across_two_shards(self, two_dfks):
        with WorkflowGateway(two_dfks) as gw:
            assert len(gw.shards) == 2
            clients = [
                ServiceClient(gw.host, gw.port, tenant=f"tenant-{i}")
                for i in range(6)
            ]
            try:
                futures = {
                    c.tenant: [c.submit(double, i) for i in range(5)]
                    for c in clients
                }
                for futs in futures.values():
                    assert [f.result(timeout=15) for f in futs] == [0, 2, 4, 6, 8]
            finally:
                for c in clients:
                    c.close()
            stats = gw.shard_stats()
            assert len(stats) == 2
            assert sum(s["completed"] for s in stats) == 30
            # With 6 tenants hashed over 2 shards, both should see work.
            assert all(s["dispatched"] > 0 for s in stats)

    def test_welcome_carries_home_shard(self, two_dfks):
        with WorkflowGateway(two_dfks) as gw:
            clients = [
                ServiceClient(gw.host, gw.port, tenant=f"tenant-{i}")
                for i in range(8)
            ]
            try:
                shards_seen = {c.shard for c in clients}
                assert all(c.shard in (0, 1) for c in clients)
                assert shards_seen == {0, 1}
            finally:
                for c in clients:
                    c.close()

    def test_single_dfk_constructor_still_unsharded(self, two_dfks):
        with WorkflowGateway(two_dfks[0]) as gw:
            assert len(gw.shards) == 1
            with ServiceClient(gw.host, gw.port, tenant="alice") as client:
                assert client.shard == 0
                assert client.submit(double, 4).result(timeout=10) == 8

    def test_kill_shard_reroutes_without_duplicates(self, two_dfks):
        """Kill one shard mid-run: every future still completes correctly
        on the survivor, and no result is delivered twice."""
        with WorkflowGateway(two_dfks, window=8) as gw:
            clients = [
                ServiceClient(gw.host, gw.port, tenant=f"tenant-{i}")
                for i in range(4)
            ]
            try:
                futures = [
                    c.submit(slow_double, i) for c in clients for i in range(12)
                ]
                # Let some tasks dispatch, then kill whichever shard is busier.
                time.sleep(0.05)
                victim = max(gw.shards, key=lambda s: s.load()).index
                gw.kill_shard(victim)
                assert not gw.shards[victim].alive
                results = [f.result(timeout=60) for f in futures]
                assert results == [i * 2 for _ in clients for i in range(12)]
                for c in clients:
                    assert c.duplicate_results == 0
                assert gw.shard_stats()[victim]["alive"] == 0
            finally:
                for c in clients:
                    c.close()

    def test_no_live_shard_raises_typed_error(self, two_dfks):
        with WorkflowGateway(two_dfks[0]) as gw:
            with ServiceClient(gw.host, gw.port, tenant="alice") as client:
                assert client.submit(double, 1).result(timeout=10) == 2
                gw.kill_shard(0)
                future = client.submit(double, 2)
                with pytest.raises(ShardUnavailableError) as err:
                    future.result(timeout=10)
                assert err.value.shard == 0

    def test_dead_shard_tasks_fail_typed_when_no_survivor(self, two_dfks):
        """In-flight work on the only shard dies with it — as a typed
        failure result, not a hang."""
        with WorkflowGateway(two_dfks[0], window=2) as gw:
            with ServiceClient(gw.host, gw.port, tenant="alice") as client:
                futures = [client.submit(slow_double, i, 0.2) for i in range(6)]
                time.sleep(0.05)
                gw.kill_shard(0)
                failures = 0
                for f in futures:
                    with pytest.raises(ShardUnavailableError):
                        f.result(timeout=10)
                    failures += 1
                assert failures == 6


# ---------------------------------------------------------------------------
# Durable sessions: the store survives gateway death
# ---------------------------------------------------------------------------

class TestDurableRestart:
    def test_restart_resumes_sessions_and_replays_results(self, two_dfks, tmp_path):
        """Soft restart: the new incarnation reloads every session from the
        store and replays acked results to resuming clients."""
        harness = GatewayHarness(
            two_dfks, store_path=str(tmp_path / "sessions.db"),
            session_ttl_s=30.0,
        ).start()
        try:
            client = ServiceClient(
                "127.0.0.1", harness.gw_port, tenant="alice",
                reconnect_interval=0.05, max_reconnect_attempts=80,
            )
            try:
                futures = [client.submit(double, i) for i in range(8)]
                assert [f.result(timeout=15) for f in futures] == [
                    i * 2 for i in range(8)
                ]
                harness.restart()
                # The reincarnation recovered the session from SQLite: the
                # client resumes (no auth error, no lost identity) and new
                # work flows on the same session.
                more = [client.submit(double, i) for i in range(8, 12)]
                assert [f.result(timeout=30) for f in more] == [
                    i * 2 for i in range(8, 12)
                ]
                assert client.duplicate_results == 0
                assert client.reconnects >= 1
            finally:
                client.close()
        finally:
            harness.close()

    def test_hard_kill_preserves_acked_results(self, two_dfks, tmp_path):
        """kill -9 the gateway mid-run: every result a client already holds
        stays valid, unfinished work re-runs from the write-ahead task log,
        and nothing is delivered twice."""
        harness = GatewayHarness(
            two_dfks, store_path=str(tmp_path / "sessions.db"),
            session_ttl_s=30.0,
        ).start()
        try:
            client = ServiceClient(
                "127.0.0.1", harness.gw_port, tenant="alice",
                reconnect_interval=0.05, max_reconnect_attempts=80,
            )
            try:
                futures = [client.submit(slow_double, i) for i in range(16)]
                # Wait until at least a few results are acked and delivered.
                assert wait_for(
                    lambda: sum(f.done() for f in futures) >= 3, timeout=30
                )
                harness.restart(hard=True)
                assert [f.result(timeout=60) for f in futures] == [
                    i * 2 for i in range(16)
                ]
                assert client.duplicate_results == 0
            finally:
                client.close()
        finally:
            harness.close()

    def test_unacked_results_rerun_not_lost(self, two_dfks, tmp_path):
        """Results that completed but never reached the store's durable
        commit are re-executed after a hard kill — the client still gets
        every answer exactly once."""
        harness = GatewayHarness(
            two_dfks, store_path=str(tmp_path / "sessions.db"),
            session_ttl_s=30.0, window=4,
        ).start()
        try:
            client = ServiceClient(
                "127.0.0.1", harness.gw_port, tenant="alice",
                reconnect_interval=0.05, max_reconnect_attempts=80,
            )
            try:
                futures = [client.submit(slow_double, i, 0.05) for i in range(12)]
                time.sleep(0.08)  # mid-run: some done, some in flight
                harness.restart(hard=True)
                assert [f.result(timeout=60) for f in futures] == [
                    i * 2 for i in range(12)
                ]
                assert client.duplicate_results == 0
            finally:
                client.close()
        finally:
            harness.close()
