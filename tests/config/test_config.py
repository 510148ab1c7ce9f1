"""Tests for the Config object and the service knobs' owners."""

import inspect
import pathlib
import re
import socket

import pytest

import repro
from repro.config import Config
from repro.errors import ConfigurationError, DuplicateExecutorLabelError
from repro.executors import HighThroughputExecutor, ThreadPoolExecutor
from repro.service import HttpEdge, WorkflowGateway
from repro.service.store import SessionStore


class TestConfig:
    def test_default_config_gets_thread_executor(self):
        cfg = Config()
        assert cfg.executor_labels == ["threads"]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateExecutorLabelError):
            Config(executors=[ThreadPoolExecutor(label="x"), ThreadPoolExecutor(label="x")])

    def test_non_executor_rejected(self):
        with pytest.raises(ConfigurationError):
            Config(executors=["not an executor"])

    def test_invalid_checkpoint_mode(self):
        with pytest.raises(ConfigurationError):
            Config(checkpoint_mode="sometimes")

    def test_valid_checkpoint_modes(self):
        for mode in (None, "task_exit", "periodic", "dfk_exit", "manual"):
            assert Config(checkpoint_mode=mode).checkpoint_mode == mode

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            Config(retries=-1)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            Config(strategy="yolo")

    def test_bad_periods_rejected(self):
        with pytest.raises(ConfigurationError):
            Config(strategy_period=0)
        with pytest.raises(ConfigurationError):
            Config(checkpoint_period=-1)

    def test_get_executor(self):
        htex = HighThroughputExecutor(label="h1")
        cfg = Config(executors=[htex])
        assert cfg.get_executor("h1") is htex
        with pytest.raises(ConfigurationError):
            cfg.get_executor("missing")

    def test_multi_site_configuration(self):
        """Multiple executors in one config (the paper's multi-site execution)."""
        cfg = Config(
            executors=[
                HighThroughputExecutor(label="cluster_a"),
                HighThroughputExecutor(label="cluster_b"),
                ThreadPoolExecutor(label="local"),
            ]
        )
        assert sorted(cfg.executor_labels) == ["cluster_a", "cluster_b", "local"]

    def test_repr_mentions_labels(self):
        cfg = Config(executors=[ThreadPoolExecutor(label="tp")], retries=2)
        assert "tp" in repr(cfg) and "retries=2" in repr(cfg)


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _unbound_gateway(dfk, **kwargs):
    """A constructed, never-started gateway with its listener closed again."""
    gw = WorkflowGateway(dfk, **kwargs)
    gw.server.close()
    return gw


@pytest.fixture
def gw_dfk(run_dir):
    dfk = repro.load(Config(
        executors=[ThreadPoolExecutor(label="threads", max_threads=2)],
        run_dir=run_dir,
        strategy="none",
    ))
    yield dfk
    repro.clear()


class TestServiceKnobs:
    """Service settings live on the gateway and the edge, which validate them."""

    def test_defaults(self, gw_dfk):
        with WorkflowGateway(gw_dfk) as gw:
            assert gw.host == "127.0.0.1"
            assert gw.port > 0  # port 0 = ephemeral, resolved at bind
            assert gw.max_inflight_per_tenant == 64
            assert gw.window == 128
            assert gw.session_ttl_s == 60.0
            assert gw.replay_limit == 1024
            assert gw.default_weight == 1
            assert gw.pinned_weights == {}
            edge = HttpEdge(gw)
            assert edge.host == "127.0.0.1"
            assert edge.max_body == 8 * 1024 * 1024
            assert edge.sse_keepalive_s == 15.0

    def test_invalid_values_rejected(self, gw_dfk):
        for kwargs in (
            {"max_inflight_per_tenant": 0},
            {"window": 0},
            {"session_ttl_s": 0},
            {"replay_limit": 0},
            {"default_weight": 0},
            {"tenant_weights": {"alice": 0}},
            {"tenant_weights": {"alice": 1.5}},
        ):
            with pytest.raises(ConfigurationError):
                WorkflowGateway(gw_dfk, **kwargs)

    def test_tenant_weights_copied(self, gw_dfk):
        weights = {"alice": 3}
        gw = _unbound_gateway(gw_dfk, tenant_weights=weights)
        weights["alice"] = 99
        assert gw.pinned_weights == {"alice": 3}

    def test_store_and_shard_defaults(self, gw_dfk, tmp_path):
        gw = _unbound_gateway(gw_dfk)
        assert gw._store is None
        assert SessionStore(str(tmp_path / "sessions.db")).flush_ms == 2.0
        assert gw._router.vnodes == 64
        assert gw._router.spillover == 2.0

    def test_store_and_shard_validation(self, gw_dfk, tmp_path):
        path = str(tmp_path / "sessions.db")
        with pytest.raises(ConfigurationError):
            SessionStore(path, flush_ms=-1.0)
        with pytest.raises(ConfigurationError):
            WorkflowGateway(gw_dfk, shard_vnodes=0)
        with pytest.raises(ConfigurationError):
            WorkflowGateway(gw_dfk, shard_spillover=0.5)
        assert _unbound_gateway(gw_dfk, store_path=path)._store.path == path
        assert SessionStore(path, flush_ms=0.0).flush_ms == 0.0

    @pytest.mark.parametrize("owner, kwargs", [
        ("gateway", {"window": 0}),
        ("gateway", {"window": -1}),
        ("gateway", {"replay_limit": 0}),
        ("gateway", {"max_inflight_per_tenant": -3}),
        ("gateway", {"session_ttl_s": -1.0}),
        ("gateway", {"shard_spillover": 0.1}),
        ("gateway", {"tenant_weights": {"a": 0}}),
        ("gateway", {"tenant_slos": {"a": {"p99_ms": -1}}}),
        ("edge", {"max_body": 0}),
        ("edge", {"sse_keepalive_s": -1}),
    ])
    def test_invalid_override_rejected_before_bind(self, gw_dfk, owner, kwargs):
        port = _free_port()
        with pytest.raises(ConfigurationError):
            if owner == "gateway":
                WorkflowGateway(gw_dfk, port=port, **kwargs)
            else:
                HttpEdge(_unbound_gateway(gw_dfk), port=port, **kwargs).start()
        with socket.socket() as rebind:
            rebind.bind(("127.0.0.1", port))  # nothing kept the port


def test_every_config_knob_is_read_outside_config():
    """A Config parameter nothing reads is a dead knob: delete it.

    ``retry_backoff_s`` is the one exception — Config itself folds it into
    the ``retry_policy`` the kernel reads.
    """
    package = pathlib.Path(repro.__file__).parent
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(package.rglob("*.py"))
        if path != package / "config" / "config.py"
    )
    params = [name for name in inspect.signature(Config.__init__).parameters
              if name not in ("self", "retry_backoff_s")]
    unread = [name for name in params
              if not re.search(rf"\b(?:config|cfg)\.{name}\b", source)]
    assert unread == []
