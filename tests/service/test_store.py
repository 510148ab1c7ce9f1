"""Tests for the durable SQLite session store.

Covers the three failure shapes the store exists for: crash-mid-write (a
torn WAL tail must roll back to the committed prefix, never corrupt),
concurrent session eviction racing a resume's writes (single-writer
ordering must linearize them), and the replay-equivalence property — what a
restarted store replays is exactly what an unrestarted one would have.
"""

import os
import pathlib
import shutil
import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.store import SessionStore


def make_store(path, flush_ms=0.0):
    return SessionStore(str(path), flush_ms=flush_ms).start()


class TestRoundtrip:
    def test_empty_load(self, tmp_path):
        store = make_store(tmp_path / "s.db")
        assert store.load() == {}
        store.close()

    def test_sessions_tasks_results_roundtrip(self, tmp_path):
        path = tmp_path / "s.db"
        store = make_store(path)
        store.save_session("sess-1", "alice", "tok-1")
        store.append_task("sess-1", 0, b"task-0", b"spec-0")
        store.append_task("sess-1", 1, b"task-1", None)
        store.append_result("sess-1", 1, 0, True, b"result-0", replay_limit=10)
        assert store.flush()
        store.close()

        loaded = SessionStore(str(path)).load()
        rec = loaded["sess-1"]
        assert rec.tenant == "alice"
        assert rec.session_token == "tok-1"
        assert rec.seq == 1
        # Task 0 finished (its write-ahead row retired); task 1 survives.
        assert set(rec.tasks) == {1}
        assert rec.tasks[1] == (b"task-1", None)
        assert rec.results == [(1, 0, True, b"result-0")]

    def test_result_trims_replay_window(self, tmp_path):
        path = tmp_path / "s.db"
        store = make_store(path)
        store.save_session("sess-1", "alice", "tok")
        for seq in range(1, 11):
            store.append_result("sess-1", seq, seq, True, b"r%d" % seq, replay_limit=3)
        assert store.flush()
        store.close()
        rec = SessionStore(str(path)).load()["sess-1"]
        assert [row[0] for row in rec.results] == [8, 9, 10]
        assert rec.seq == 10

    def test_delete_session_cascades(self, tmp_path):
        path = tmp_path / "s.db"
        store = make_store(path)
        store.save_session("sess-1", "alice", "tok")
        store.append_task("sess-1", 0, b"t", None)
        store.append_result("sess-1", 1, 1, False, b"r", replay_limit=5)
        store.delete_session("sess-1")
        assert store.flush()
        store.close()
        assert SessionStore(str(path)).load() == {}

    def test_durable_callbacks_fire_in_order(self, tmp_path):
        store = make_store(tmp_path / "s.db", flush_ms=1.0)
        fired = []
        store.save_session("s", "a", "t", on_durable=lambda: fired.append("session"))
        for i in range(5):
            store.append_task("s", i, b"x", None,
                             on_durable=lambda i=i: fired.append(i))
        assert store.flush()
        assert fired == ["session", 0, 1, 2, 3, 4]
        store.close()


def test_idle_writer_does_not_wake(tmp_path, context_switches):
    store = make_store(tmp_path / "s.db")
    try:
        store.save_session("s1", "t", "tok")
        assert store.flush()
        assert context_switches(store._thread, 0.5) <= 1
    finally:
        store.close()
    assert not store._thread.is_alive()


class TestWriterLag:
    def test_lag_is_zero_when_caught_up(self, tmp_path):
        store = make_store(tmp_path / "s.db")
        assert store.lag_ms() == 0.0
        store.save_session("sess-1", "alice", "tok")
        assert store.flush()
        assert store.lag_ms() == 0.0
        store.close()

    def test_lag_tracks_the_oldest_unwritten_op(self, tmp_path):
        # No writer yet: enqueued ops can only age.
        store = SessionStore(str(tmp_path / "s.db"), flush_ms=0.0)
        store.save_session("sess-1", "alice", "tok")
        time.sleep(0.05)
        first = store.lag_ms()
        assert first >= 40.0
        time.sleep(0.02)
        assert store.lag_ms() > first  # still growing: same head op
        # Starting the writer drains the backlog and resets the clock.
        store.start()
        assert store.flush()
        assert store.lag_ms() == 0.0
        store.close()

    def test_stalled_writer_shows_lag_behind_queued_ops(self, tmp_path):
        store = make_store(tmp_path / "s.db")
        entered = threading.Event()
        gate = threading.Event()

        def stall():  # park the writer inside a durable callback
            entered.set()
            gate.wait()

        store._ops.put(([], stall))
        assert entered.wait(5)  # the op below must miss the stalled batch
        store.append_task("sess-1", 0, b"t", None)
        time.sleep(0.05)
        try:
            assert store.lag_ms() >= 40.0
        finally:
            gate.set()
        assert store.flush()
        assert store.lag_ms() == 0.0
        store.close()


class TestCrash:
    def test_abandon_loses_only_unflushed(self, tmp_path):
        """kill -9 semantics: committed batches survive, queued ops die."""
        path = tmp_path / "s.db"
        store = make_store(path)
        store.save_session("sess-1", "alice", "tok")
        store.append_result("sess-1", 1, 0, True, b"acked", replay_limit=10)
        assert store.flush()  # the "acknowledged" prefix
        # Stall the writer so the next ops stay queued, then abandon.
        gate = threading.Event()
        store._ops.put(([], gate.wait))  # block the writer inside a callback
        store.append_result("sess-1", 2, 1, True, b"never-acked", replay_limit=10)
        store.abandon()
        gate.set()
        rec = SessionStore(str(path)).load()["sess-1"]
        assert [row[0] for row in rec.results] == [1]
        assert rec.seq == 1

    def test_truncated_wal_tail_recovers_committed_prefix(self, tmp_path):
        """A crash image with a torn WAL tail opens cleanly and keeps every
        committed write (SQLite discards the un-checksummed tail)."""
        path = tmp_path / "s.db"
        store = make_store(path)
        store.save_session("sess-1", "alice", "tok")
        assert store.flush()
        # Ten separate group commits (ten WAL transactions) followed by one
        # big one: the torn tail can cost the last commit, never the prefix.
        for seq in range(1, 11):
            store.append_result("sess-1", seq, seq, True, b"r%d" % seq,
                                replay_limit=100)
            assert store.flush()
        for seq in range(11, 21):
            store.append_result("sess-1", seq, seq, True, b"r%d" % seq,
                                replay_limit=100)
        assert store.flush()
        # Take a crash image while the store is still open (no clean close,
        # no checkpoint): db + WAL as a power cut would leave them.
        crash = tmp_path / "crash"
        crash.mkdir()
        shutil.copy(path, crash / "s.db")
        wal = str(path) + "-wal"
        assert os.path.exists(wal), "store must be running in WAL mode"
        shutil.copy(wal, crash / "s.db-wal")
        store.abandon()
        # Tear the copied WAL: chop a partial frame off the end.
        torn = crash / "s.db-wal"
        size = torn.stat().st_size
        with open(torn, "r+b") as fh:
            fh.truncate(max(32, size - 100))
        recovered = SessionStore(str(crash / "s.db")).load()
        rec = recovered["sess-1"]
        seqs = [row[0] for row in rec.results]
        # The committed prefix survives in order; nothing is corrupt. The
        # torn frame may cost the final commit, never the middle: WAL
        # recovery stops at the first frame that fails its checksum.
        assert len(seqs) >= 10
        assert seqs == list(range(1, len(seqs) + 1))


class TestConcurrency:
    def test_eviction_racing_resume_writes(self, tmp_path):
        """A TTL eviction (delete) racing a resume's appends must linearize:
        the store ends in one of the two orderings, never a torn mix where
        results survive their session row."""
        path = tmp_path / "s.db"
        store = make_store(path, flush_ms=0.5)
        store.save_session("sess-1", "alice", "tok")
        assert store.flush()
        start = threading.Barrier(3)

        def evict():
            start.wait()
            store.delete_session("sess-1")

        def resume():
            start.wait()
            store.save_session("sess-1", "alice", "tok")
            for seq in range(1, 6):
                store.append_result("sess-1", seq, seq, True, b"r", replay_limit=10)

        threads = [threading.Thread(target=evict), threading.Thread(target=resume)]
        for t in threads:
            t.start()
        start.wait()
        for t in threads:
            t.join()
        assert store.flush()
        store.close()
        loaded = SessionStore(str(path)).load()
        if "sess-1" in loaded:
            rec = loaded["sess-1"]
            # Delete-then-resume ordering: full resume state. Interleaved
            # (delete landed mid-appends): a contiguous suffix of appends.
            seqs = [row[0] for row in rec.results]
            assert seqs == sorted(seqs)
            assert all(1 <= s <= 5 for s in seqs)
        # else: resume-then-delete ordering — cascade removed everything,
        # which load() must report as a cleanly absent session.

    def test_many_threads_one_writer(self, tmp_path):
        path = tmp_path / "s.db"
        store = make_store(path, flush_ms=0.2)

        def tenant(i):
            sid = f"sess-{i}"
            store.save_session(sid, f"t{i}", "tok")
            for seq in range(1, 21):
                store.append_result(sid, seq, seq, True, b"r", replay_limit=8)

        threads = [threading.Thread(target=tenant, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.flush()
        store.close()
        loaded = SessionStore(str(path)).load()
        assert len(loaded) == 8
        for rec in loaded.values():
            assert [row[0] for row in rec.results] == list(range(13, 21))
            assert rec.seq == 20


# ---------------------------------------------------------------------------
# Property: replay after a restart == replay without one
# ---------------------------------------------------------------------------

#: One op: (session 0/1, kind) — kind 0 = submit (write-ahead task),
#: 1 = result for the oldest pending task, 2 = evict the session.
_OPS = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 2)),
    min_size=1, max_size=40,
)


def _apply(store, ops, replay_limit=4):
    """Drive the store like a gateway would; mirror into a python model."""
    model = {}
    counters = {}
    for sid_idx, kind in ops:
        sid = f"sess-{sid_idx}"
        if sid not in model:
            store.save_session(sid, f"tenant-{sid_idx}", "tok")
            model[sid] = {"tasks": {}, "results": [], "seq": 0}
            counters.setdefault(sid, 0)
        state = model[sid]
        if kind == 0:
            cid = counters[sid]
            counters[sid] += 1
            store.append_task(sid, cid, b"task", None)
            state["tasks"][cid] = (b"task", None)
        elif kind == 1 and state["tasks"]:
            cid = min(state["tasks"])
            del state["tasks"][cid]
            seq = state["seq"] + 1
            state["seq"] = seq
            store.append_result(sid, seq, cid, True, b"r%d" % seq, replay_limit)
            state["results"].append((seq, cid, True, b"r%d" % seq))
            state["results"] = [
                row for row in state["results"] if row[0] > seq - replay_limit
            ]
        elif kind == 2:
            store.delete_session(sid)
            del model[sid]
            # A later op on the same slot re-creates the session from
            # scratch (fresh seq/cid space), as a fresh hello would.
            counters.pop(sid, None)
    return model


def _snapshot(loaded):
    return {
        sid: (rec.tenant, rec.seq, rec.results, dict(rec.tasks))
        for sid, rec in loaded.items()
    }


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=_OPS, split=st.integers(0, 40))
def test_replay_after_restart_equals_replay_without_restart(tmp_path, ops, split):
    """Closing and reopening the store mid-stream (a restart) must yield the
    same final replay state as never restarting — byte for byte."""
    base = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    split = min(split, len(ops))

    straight = make_store(base / "straight.db")
    model = _apply(straight, ops)
    assert straight.flush()
    straight.close()

    restarted = make_store(base / "restart.db")
    _apply(restarted, ops[:split])
    assert restarted.flush()
    restarted.close()
    resumed = make_store(base / "restart.db")
    # Continue the tail against the reopened store, replaying the model
    # state the first half established.
    model_tail = _apply_continuation(resumed, ops, split)
    assert resumed.flush()
    resumed.close()

    loaded_straight = SessionStore(str(base / "straight.db")).load()
    loaded_restarted = SessionStore(str(base / "restart.db")).load()
    assert _snapshot(loaded_straight) == _snapshot(loaded_restarted)
    assert set(loaded_straight) == set(model)
    assert model_tail == model


def _apply_continuation(store, ops, split, replay_limit=4):
    """Re-derive the model over all ops but only issue store writes for the
    tail (the head already committed before the restart)."""
    model = {}
    counters = {}
    for index, (sid_idx, kind) in enumerate(ops):
        live = index >= split
        sid = f"sess-{sid_idx}"
        if sid not in model:
            if live:
                store.save_session(sid, f"tenant-{sid_idx}", "tok")
            model[sid] = {"tasks": {}, "results": [], "seq": 0}
            counters.setdefault(sid, 0)
        state = model[sid]
        if kind == 0:
            cid = counters[sid]
            counters[sid] += 1
            if live:
                store.append_task(sid, cid, b"task", None)
            state["tasks"][cid] = (b"task", None)
        elif kind == 1 and state["tasks"]:
            cid = min(state["tasks"])
            del state["tasks"][cid]
            seq = state["seq"] + 1
            state["seq"] = seq
            if live:
                store.append_result(sid, seq, cid, True, b"r%d" % seq, replay_limit)
            state["results"].append((seq, cid, True, b"r%d" % seq))
            state["results"] = [
                row for row in state["results"] if row[0] > seq - replay_limit
            ]
        elif kind == 2:
            if live:
                store.delete_session(sid)
            del model[sid]
            counters.pop(sid, None)
    return model
