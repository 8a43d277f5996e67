"""Unit tests of the async group-commit metadata path.

Covers the committer's observable contract: config validation, batching
under a linger window, early acks with a durability horizon, the fsync
barrier, read-your-writes barriers for sync-path reads, per-member error
isolation, pipelined flushes, skip-ahead admission, cross-namenode batch
deadlocks broken by the batch lock-wait bound, and ack loss on an NN
crash mid-linger.
"""

import pytest

from repro.chaos.invariants import durability_horizon, verify_hopsfs
from repro.errors import ConfigError, FileAlreadyExistsError, FsError
from repro.hopsfs.groupcommit import (
    _BATCH_LOCK_WAIT_MS,
    AsyncCommitConfig,
    groupable,
    op_paths,
)
from repro.hopsfs.metadata import INODES_TABLE, ROOT_INODE_ID
from repro.hopsfs.snapshot import namespace_snapshot
from repro.ndb.schema import LockMode
from repro.types import OpType

from .conftest import make_fs, run

FAST = AsyncCommitConfig(linger_ms=0.5, max_batch_ops=8)


def make_async_fs(async_commit=FAST, num_namenodes=1, **kwargs):
    return make_fs(num_namenodes=num_namenodes, async_commit=async_commit, **kwargs)


# ------------------------------------------------------------------ config
@pytest.mark.parametrize(
    "kwargs",
    [
        {"linger_ms": -0.1},
        {"max_batch_ops": 0},
        {"max_inflight_batches": 0},
        {"max_flush_retries": -1},
        {"flush_backoff_base_ms": 0.0},
        {"flush_backoff_max_ms": -1.0},
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ConfigError):
        AsyncCommitConfig(**kwargs)


def test_groupable_excludes_large_creates_and_reads():
    assert groupable(OpType.MKDIR, {})
    assert groupable(OpType.CREATE_FILE, {"data": b"x" * 10})
    assert not groupable(OpType.CREATE_FILE, {"data": b"x" * 10_000_000})
    assert not groupable(OpType.READ_FILE, {})
    assert not groupable(OpType.LIST_DIR, {})


def test_op_paths_cover_rename_both_ends():
    paths = op_paths(OpType.RENAME, {"src": "/a/b", "dst": "/c/d"})
    assert ("a", "b") in paths and ("c", "d") in paths


# ---------------------------------------------------------------- batching
def test_concurrent_mutations_share_a_batch():
    fs = make_async_fs(AsyncCommitConfig(linger_ms=2.0, max_batch_ops=16))
    clients = [fs.client() for _ in range(4)]

    def one(client, path):
        yield from client.mkdir(path)

    for i, client in enumerate(clients):
        fs.env.process(one(client, f"/d{i}"), name=f"mk{i}")
    fs.env.run(until=5_000)

    ledger = fs.group_ledger
    committed = [b for b in ledger.batches.values() if b.state == "committed"]
    assert committed, "nothing committed"
    # Four near-simultaneous disjoint mkdirs ride fewer than four batches.
    assert max(len(b.ops) for b in committed) >= 2
    assert sum(len(b.ops) for b in committed) == 4


def test_full_batch_flushes_before_linger():
    fs = make_async_fs(AsyncCommitConfig(linger_ms=500.0, max_batch_ops=2))
    clients = [fs.client() for _ in range(2)]

    def one(client, path):
        yield from client.mkdir(path)

    for i, client in enumerate(clients):
        fs.env.process(one(client, f"/d{i}"), name=f"mk{i}")
    # Far less than the 500ms linger: only the size trigger can flush.
    fs.env.run(until=100.0)
    assert fs.group_ledger.horizon >= 1


# ------------------------------------------------------------- early acks
def test_ack_precedes_commit_and_fsync_barriers():
    fs = make_async_fs(AsyncCommitConfig(linger_ms=30.0, max_batch_ops=64))
    client = fs.client()

    def scenario():
        yield from client.mkdir("/early")
        # Acked while the batch still lingers: the horizon is pending.
        assert client.durability_horizon >= 1
        batch = fs.group_ledger.batches[client.durability_horizon]
        assert batch.state == "open"
        ok = yield from client.fsync()
        assert ok is True
        assert batch.state == "committed"
        assert not client._pending_horizons
        return True

    assert run(fs, scenario())
    assert client.durability_horizon in fs.group_ledger.confirmed


def test_fsync_is_a_noop_without_pending_horizons():
    fs = make_fs(num_namenodes=1)  # synchronous path
    client = fs.client()

    def scenario():
        yield from client.mkdir("/plain")
        ok = yield from client.fsync()
        return ok

    assert run(fs, scenario()) is True


# ------------------------------------------------- read-your-writes barrier
def test_sync_read_after_grouped_write_sees_the_write():
    fs = make_async_fs(AsyncCommitConfig(linger_ms=50.0, max_batch_ops=64))
    client = fs.client()

    def scenario():
        yield from client.mkdir("/ryow")
        # The batch is still lingering; a sync-path read prefix-related to
        # it must barrier on the flush instead of reading stale state.
        row = yield from client.stat("/ryow")
        listing = yield from client.listdir("/")
        return row, list(listing)

    row, names = run(fs, scenario())
    assert row.is_dir
    assert "ryow" in names


# ------------------------------------------------------- error isolation
def test_member_error_does_not_poison_the_batch():
    fs = make_async_fs(AsyncCommitConfig(linger_ms=2.0, max_batch_ops=16))
    client_pre = fs.client()
    run(fs, client_pre.mkdir("/dup"))

    client_a = fs.client()
    client_b = fs.client()
    outcomes = {}

    def dup(client):
        try:
            yield from client.mkdir("/dup")
            outcomes["a"] = "ok"
        except FileAlreadyExistsError:
            outcomes["a"] = "exists"

    def fresh(client):
        yield from client.mkdir("/fresh")
        outcomes["b"] = "ok"

    fs.env.process(dup(client_a), name="dup")
    fs.env.process(fresh(client_b), name="fresh")
    fs.env.run(until=5_000)

    assert outcomes == {"a": "exists", "b": "ok"}
    row = run(fs, fs.client().stat("/fresh"))
    assert row.is_dir


# ------------------------------------------------------------- pipelining
def test_flushes_pipeline_across_batches():
    fs = make_async_fs(AsyncCommitConfig(linger_ms=0.2, max_batch_ops=4))
    clients = [fs.client() for _ in range(6)]

    def burst(client, base):
        for i in range(4):
            yield from client.mkdir(f"/{base}-{i}")

    for i, client in enumerate(clients):
        fs.env.process(burst(client, f"p{i}"), name=f"burst{i}")
    fs.env.run(until=10_000)

    committer = fs.namenodes[0].committer
    assert committer.batches_committed >= 2
    assert committer.ops_grouped == 24
    assert durability_horizon(fs).ok


# ------------------------------------------------------- admission order
def test_admission_skips_a_head_blocked_on_a_flushing_batch():
    fs = make_async_fs()
    committer = fs.namenodes[0].committer
    ledger = fs.group_ledger
    horizon = {}

    def op(name, path, delay, chmod=False):
        client = fs.client()
        if delay is not None:
            # Queue behind the flushing /a/x batch, in issue order.
            while not committer._inflight:
                yield fs.env.timeout(0.05)
            yield fs.env.timeout(delay)
        if chmod:
            yield from client.chmod(path, 0o700)
        else:
            yield from client.mkdir(path)
        horizon[name] = client.durability_horizon

    run(fs, fs.client().mkdir("/a"))
    fs.env.process(op("x", "/a/x", None))
    # Head conflicts with the flushing /a/x; the next op conflicts only
    # with the head; the last one conflicts with nothing.
    fs.env.process(op("head", "/a", 0.0, chmod=True))
    fs.env.process(op("behind", "/a/z", 0.01))
    fs.env.process(op("free", "/c", 0.02))
    fs.env.run(until=fs.env.now + 1_000)

    batch = {name: ledger.batches[h] for name, h in horizon.items()}
    assert len({b.batch_id for b in batch.values()}) == 4
    # The disjoint op is admitted while the /a/x batch still flushes ...
    assert batch["free"].opened_ms < batch["x"].settled_ms
    # ... the blocked head waits for that batch to settle ...
    assert batch["head"].opened_ms >= batch["x"].settled_ms
    # ... and an op prefix-related to the head never passes it.
    assert batch["behind"].opened_ms >= batch["head"].settled_ms
    assert all(b.state == "committed" for b in batch.values())


def test_unparseable_op_is_an_admission_barrier():
    fs = make_async_fs(AsyncCommitConfig(linger_ms=50.0, max_batch_ops=8))
    committer = fs.namenodes[0].committer
    outcomes = {}

    def op(name, path, delay):
        client = fs.client()
        yield fs.env.timeout(delay)
        try:
            yield from client.mkdir(path)
            outcomes[name] = ("ok", client.durability_horizon)
        except FsError as exc:
            outcomes[name] = (type(exc).__name__, None)

    fs.env.process(op("first", "/p", 0.0))
    fs.env.process(op("bad", "relative/path", 0.5))
    fs.env.process(op("after", "/q", 1.0))
    fs.env.run(until=2.0)
    # The barrier waits for the /p batch to settle, and /q queues behind
    # it although /q conflicts with nothing.
    queued = [g.kwargs["path"] for g in committer.queue]
    assert queued == ["relative/path", "/q"]
    fs.env.run(until=1_000)
    assert outcomes["bad"][0] == "InvalidPathError"
    # /p, then the barrier alone (nothing to commit), then /q.
    states = [b.state for b in fs.group_ledger.batches.values()]
    assert states == ["committed", "aborted", "committed"]
    assert (outcomes["first"][1], outcomes["after"][1]) == (1, 3)


# ------------------------------------------------ cross-NN batch deadlock
DEADLOCK_CFG = AsyncCommitConfig(linger_ms=5.0, max_batch_ops=8)


def _cross_nn_deadlock(async_commit):
    """Two NNs whose batches each S-lock a dir slot the other X-locks.

    NN-a batches ``create /d1/x`` (S on the /d1 slot) with ``chmod /d2``
    (X on the /d2 slot); NN-b batches ``create /d2/y`` with ``chmod /d1``.
    The four ops commute, so every serialization ends in one namespace.
    """
    fs = make_fs(num_namenodes=2, async_commit=async_commit)
    setup = fs.client()

    def prepare():
        yield from setup.mkdir("/d1")
        yield from setup.mkdir("/d2")
        yield from setup.fsync()

    run(fs, prepare())
    start = fs.env.now
    nn_a, nn_b = (nn.addr for nn in fs.namenodes)
    done = {}

    def op(nn, delay, path, chmod):
        client = fs.client()
        client.current_nn = nn
        yield fs.env.timeout(delay)
        if chmod:
            yield from client.chmod(path, 0o700)
        else:
            yield from client.create(path, data=b"x")
        done[path] = fs.env.now - start

    for nn, delay, path, chmod in (
        (nn_a, 0.0, "/d1/x", False),
        (nn_b, 0.0, "/d2/y", False),
        (nn_a, 2.0, "/d2", True),
        (nn_b, 2.0, "/d1", True),
    ):
        fs.env.process(op(nn, delay, path, chmod))
    fs.env.run(until=start + 5_000)
    assert sorted(done) == ["/d1", "/d1/x", "/d2", "/d2/y"]
    return fs, start


def test_cross_nn_batch_deadlock_breaks_at_the_lock_wait_bound():
    fs, start = _cross_nn_deadlock(DEADLOCK_CFG)
    ledger = fs.group_ledger
    batches = [b for b in ledger.batches.values() if b.opened_ms >= start]
    assert {str(b.owner) for b in batches} == {
        str(nn.addr) for nn in fs.namenodes
    }
    # Each NN folded its create and its chmod into one batch: the cycle
    # really formed across the two batches.
    assert all(len(b.ops) == 2 and b.state == "committed" for b in batches)
    # Settled within the first bound, the doubled bound of a serial retry
    # that re-deadlocks, and 25 ms of backoff and commit rounds — not at
    # NDB's deadlock timeout (1200 ms).
    bound = DEADLOCK_CFG.linger_ms + 3 * _BATCH_LOCK_WAIT_MS + 25.0
    assert max(b.settled_ms for b in batches) - start < bound
    assert ledger.lost_acks == 0
    for verdict in verify_hopsfs(fs):
        assert verdict.ok, verdict
    sync_fs, _ = _cross_nn_deadlock(None)
    assert namespace_snapshot(fs) == namespace_snapshot(sync_fs)


def test_batch_outwaits_a_long_held_lock_before_giving_up():
    """A lock held far past the batch bound costs retries, not acks.

    A plain NDB transaction X-locks /d's inode for 300 ms.  The batch of
    ``create /e/x`` (acked early) and ``chmod /d`` times out under its
    short bounds, but the bound doubles per retry and those short attempts
    do not count against ``max_flush_retries``: the batch outwaits the
    holder and commits instead of losing the create's ack.
    """
    cfg = AsyncCommitConfig(linger_ms=0.5, max_batch_ops=8, max_flush_retries=1)
    fs = make_async_fs(cfg)
    setup = fs.client()

    def prepare():
        yield from setup.mkdir("/d")
        yield from setup.mkdir("/e")
        yield from setup.fsync()

    run(fs, prepare())
    start = fs.env.now
    nn = fs.namenodes[0]

    def holder():
        txn = nn.api.transaction()
        yield from txn.read(
            INODES_TABLE,
            (ROOT_INODE_ID, "d"),
            partition_key=ROOT_INODE_ID,
            lock=LockMode.EXCLUSIVE,
        )
        yield fs.env.timeout(300.0)
        yield from txn.commit()

    def op(delay, path, chmod):
        client = fs.client()
        yield fs.env.timeout(delay)
        if chmod:
            yield from client.chmod(path, 0o700)
        else:
            yield from client.create(path, data=b"x")
        yield from client.fsync()

    fs.env.process(holder())
    fs.env.process(op(1.0, "/e/x", False))
    fs.env.process(op(1.1, "/d", True))
    fs.env.run(until=start + 5_000)
    ledger = fs.group_ledger
    (batch,) = [b for b in ledger.batches.values() if b.opened_ms >= start]
    assert len(batch.ops) == 2 and batch.state == "committed"
    assert batch.settled_ms - start > 300.0
    assert ledger.lost_acks == 0
    for verdict in verify_hopsfs(fs):
        assert verdict.ok, verdict


# ------------------------------------------------------------ crash → lost
def test_crash_mid_linger_loses_the_ack_and_fsync_reports_it():
    fs = make_async_fs(
        AsyncCommitConfig(linger_ms=200.0, max_batch_ops=64), num_namenodes=2
    )
    client = fs.client()
    result = {}

    def scenario():
        yield from client.mkdir("/doomed")
        horizon = client.durability_horizon
        assert horizon >= 1
        batch = fs.group_ledger.batches[horizon]
        assert batch.state == "open"
        # Crash the NN that owns the lingering batch before it flushes.
        owner = next(nn for nn in fs.namenodes if str(nn.addr) == str(batch.owner))
        owner.shutdown()
        assert batch.state == "lost"
        try:
            yield from client.fsync()
            result["fsync"] = "ok"
        except FsError:
            result["fsync"] = "lost"
        return True

    assert run(fs, scenario())
    assert result["fsync"] == "lost"
    assert fs.group_ledger.lost_acks == 1
    # The invariant audits the lost batch as all-or-nothing (here: nothing).
    fs.env.run(until=fs.env.now + 300.0)
    verdict = durability_horizon(fs)
    assert verdict.ok, verdict.detail
    assert run(fs, fs.client().exists("/doomed")) is False
