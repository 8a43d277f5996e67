"""Unit tests of the async group-commit metadata path.

Covers the committer's observable contract: config validation, batching
under a linger window, early acks with a durability horizon, the fsync
barrier, read-your-writes barriers for sync-path reads, per-member error
isolation, pipelined flushes, skip-ahead admission, cross-namenode batch
deadlocks broken by the batch lock-wait bound, concurrent flush retries
that ack each member once, and ack loss on an NN crash mid-linger.
"""

import pytest

from repro.chaos.invariants import durability_horizon, verify_hopsfs
from repro.errors import (
    ConfigError,
    FileAlreadyExistsError,
    FsError,
    TransactionAbortedError,
)
from repro.hopsfs.groupcommit import (
    _BATCH_LOCK_WAIT_MS,
    AsyncCommitConfig,
    GroupAck,
    groupable,
    op_paths,
)
from repro.hopsfs.metadata import INODES_TABLE, ROOT_INODE_ID
from repro.hopsfs.ops import create_file
from repro.hopsfs.robust import RobustConfig
from repro.hopsfs.snapshot import namespace_snapshot
from repro.ndb.schema import TOMBSTONE, LockMode
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


# ------------------------------------------------------------ flush retry
RETRY_CFG = AsyncCommitConfig(linger_ms=0.5, max_batch_ops=16)
RETRY_HOLD_MS = 1.5 * _BATCH_LOCK_WAIT_MS


def _forced_retry(creates, rival=False):
    """One batch of ``chmod /d`` plus ``creates`` path-disjoint creates,
    forced into a retry by a plain NDB transaction that X-locks /d's slot
    for ``RETRY_HOLD_MS`` — past the first attempt's lock-wait bound.

    The chmod is admitted first, so a serial retry would run every create
    body after the holder lets go.  With ``rival``, a second plain
    transaction creates ``/e0/x`` itself as soon as the first attempt's
    abort frees that slot, so the acked batch member loses on the retry.

    Returns the deployment, the batch, the holder's release time, the
    duration of an uncontended one-create batch (one member body, linger
    and commit), and the replies each path's request got.
    """
    fs = make_async_fs(RETRY_CFG)
    nn = fs.namenodes[0]
    setup = fs.client()

    def prepare():
        yield from setup.mkdir("/d")
        for i in range(creates):
            yield from setup.mkdir(f"/e{i}")
        yield from setup.fsync()
        yield from setup.create("/e0/warm", data=b"x")
        yield from setup.fsync()

    run(fs, prepare())
    warm = fs.group_ledger.batches[setup.durability_horizon]
    one_body = warm.settled_ms - warm.opened_ms
    start = fs.env.now

    paths = {}  # id(request) -> (request, path); holding it pins the id
    submit = nn.committer.submit

    def recording_submit(msg, op, fn, kwargs, *rest):
        paths[id(msg)] = (msg, kwargs["path"])
        submit(msg, op, fn, kwargs, *rest)

    nn.committer.submit = recording_submit
    replies = {}
    reply = nn.network.reply

    def recording_reply(request, payload=None, ok=True, **kwargs):
        if id(request) in paths:
            replies.setdefault(paths[id(request)][1], []).append(payload)
        reply(request, payload, ok, **kwargs)

    nn.network.reply = recording_reply
    released = {}

    def holder():
        txn = nn.api.transaction()
        yield from txn.read(
            INODES_TABLE,
            (ROOT_INODE_ID, "d"),
            partition_key=ROOT_INODE_ID,
            lock=LockMode.EXCLUSIVE,
        )
        yield fs.env.timeout(RETRY_HOLD_MS)
        released["at"] = fs.env.now
        yield from txn.commit()

    def rival_create():
        # Queue on /e0/x's slot behind the batch's acked create.
        yield fs.env.timeout(RETRY_HOLD_MS / 2)
        txn = nn.api.transaction()
        yield from create_file(nn.ctx, txn, "/e0/x", data=b"rival")
        yield from txn.commit()

    def op(delay, path, chmod):
        client = fs.client()
        yield fs.env.timeout(delay)
        if chmod:
            yield from client.chmod(path, 0o700)
        else:
            yield from client.create(path, data=b"x")

    fs.env.process(holder())
    fs.env.process(op(1.0, "/d", True))
    for i in range(creates):
        fs.env.process(op(1.01 + 0.01 * i, f"/e{i}/x", False))
    if rival:
        fs.env.process(rival_create())
    fs.env.run(until=start + 5_000)
    (batch,) = [b for b in fs.group_ledger.batches.values() if b.opened_ms >= start]
    return fs, batch, released["at"], one_body, replies


def test_retried_batch_reruns_its_members_concurrently():
    """A retry costs one member body after the holder lets go, not N."""
    creates = 5
    fs, batch, released, one_body, _replies = _forced_retry(creates)
    assert batch.state == "committed" and len(batch.ops) == creates + 1
    # The chmod's lock wait (the whole first attempt) plus the backoff run
    # while the holder still holds /d; after the release the batch pays the
    # chmod's body and the commit.  A serial retry would add all five
    # create bodies here.
    max_backoff = RETRY_CFG.flush_backoff_base_ms * 1.5
    assert batch.settled_ms - released < max_backoff + one_body
    assert fs.group_ledger.lost_acks == 0
    for verdict in verify_hopsfs(fs):
        assert verdict.ok, verdict


def test_retry_acks_each_member_once():
    """Acked creates are not re-acked by the retry; the chmod, whose only
    first-attempt outcome was the lock-wait abort, is acked once."""
    creates = 4
    fs, batch, _released, _one_body, replies = _forced_retry(creates)
    assert batch.state == "committed"
    assert sorted(replies) == ["/d"] + [f"/e{i}/x" for i in range(creates)]
    for path, payloads in replies.items():
        assert len(payloads) == 1, (path, payloads)
        (ack,) = payloads
        assert isinstance(ack, GroupAck) and ack.horizon == batch.batch_id


def test_acked_member_that_fails_its_retry_is_one_lost_ack():
    fs, batch, _released, _one_body, replies = _forced_retry(4, rival=True)
    assert batch.state == "committed"
    # /e0/x was acked on the first attempt; the rival created it before the
    # retry re-ran the body, which then failed validation: the ack is lost,
    # counted once, and the client never hears a second answer.
    assert fs.group_ledger.lost_acks == 1
    assert len(replies["/e0/x"]) == 1
    assert isinstance(replies["/e0/x"][0], GroupAck)
    assert len(batch.ops) == 4
    content = run(fs, fs.client().read("/e0/x"))
    assert content.small_data == b"rival"


def test_commit_that_lands_behind_an_abort_reply_keeps_its_acks():
    """The first commit lands, but its reply is an abort (the TC became
    unreachable after take-over rolled the commit forward).  The retry
    finds every acked member's retry row; those replays stay in the batch,
    so the horizon their acks named commits and fsync confirms it."""
    fs = make_async_fs(robust=RobustConfig(hedge_delay_ms=None))
    nn = fs.namenodes[0]
    setup = fs.client()
    paths = [f"/e{i}/x" for i in range(3)]

    def prepare():
        for i in range(len(paths)):
            yield from setup.mkdir(f"/e{i}")
        yield from setup.fsync()

    run(fs, prepare())
    open_txn = nn.api.transaction
    landed = []

    def abort_reply_transaction(**kwargs):
        txn = open_txn(**kwargs)
        commit = txn.commit

        def commit_then_abort_reply():
            yield from commit()
            if not landed:
                landed.append(txn.txid)
                raise TransactionAbortedError("TC unreachable after commit")

        txn.commit = commit_then_abort_reply
        return txn

    nn.api.transaction = abort_reply_transaction
    horizons = {}

    def op(path):
        client = fs.client()
        yield from client.create(path, data=b"x")
        horizon = client.durability_horizon
        yield from client.fsync()
        horizons[path] = horizon

    start = fs.env.now
    for path in paths:
        fs.env.process(op(path))
    fs.env.run(until=start + 1_000)
    (batch,) = [b for b in fs.group_ledger.batches.values() if b.opened_ms >= start]
    assert landed and batch.state == "committed"
    assert horizons == {path: batch.batch_id for path in paths}
    assert fs.group_ledger.lost_acks == 0
    for verdict in verify_hopsfs(fs):
        assert verdict.ok, verdict


# ------------------------------------------------------- durability audit
SLOW_REPLY_MS = 50.0


def _reply_after_a_later_delete():
    """NN-a commits ``create /d/f`` and ``create /e/g`` in one batch, but
    the commit reply crawls back for ``SLOW_REPLY_MS``.  Meanwhile NN-b
    deletes /d/f — its body reads the create's committed row — and settles
    first.  Settle order then inverts NDB commit order on /d/f's row."""
    fs = make_async_fs(num_namenodes=2)
    setup = fs.client()

    def prepare():
        yield from setup.mkdir("/d")
        yield from setup.mkdir("/e")
        yield from setup.fsync()

    run(fs, prepare())
    nn_a, nn_b = fs.namenodes
    open_txn = nn_a.api.transaction

    def slow_reply_transaction(**kwargs):
        txn = open_txn(**kwargs)
        commit = txn.commit

        def commit_then_crawl():
            yield from commit()
            yield fs.env.timeout(SLOW_REPLY_MS)

        txn.commit = commit_then_crawl
        return txn

    nn_a.api.transaction = slow_reply_transaction
    horizons = {}

    def creates():
        for path in ("/d/f", "/e/g"):
            client = fs.client()
            client.current_nn = nn_a.addr
            fs.env.process(client.create(path, data=b"x"))
        yield fs.env.timeout(0)

    def delete():
        # Wait for NN-a's batch to commit at NDB; its reply is still out.
        while not any(ctx.txn.finished for ctx in nn_a.committer._inflight):
            yield fs.env.timeout(0.05)
        client = fs.client()
        client.current_nn = nn_b.addr
        yield from client.delete("/d/f")
        horizons["delete"] = client.durability_horizon

    start = fs.env.now
    run(fs, creates())
    fs.env.process(delete())
    fs.env.run(until=start + 1_000)
    (create,) = [
        b for b in fs.group_ledger.batches.values()
        if b.opened_ms >= start and str(b.owner) == str(nn_a.addr)
    ]
    return fs, create, fs.group_ledger.batches[horizons["delete"]]


def test_durability_audit_orders_batches_by_commit_not_settle_time():
    fs, create, delete = _reply_after_a_later_delete()
    assert create.state == delete.state == "committed"
    assert len(create.ops) == 2
    assert delete.settled_ms < create.settled_ms
    assert run(fs, fs.client().exists("/d/f")) is False
    verdict = durability_horizon(fs)
    assert verdict.ok, verdict.detail


def test_durability_audit_flags_a_missing_committed_write():
    fs, create, _delete = _reply_after_a_later_delete()
    (table, pk, partition_key, _value), = [
        w for w in create.writes if w[0] == INODES_TABLE and w[1][1] == "g"
    ]
    # Lose /e/g's committed row on every replica, behind NDB's back.
    for addr in fs.ndb.partition_map.replicas_for_key(partition_key).all:
        fs.ndb.datanodes[addr].store.load(table, pk, partition_key, TOMBSTONE)
    verdict = durability_horizon(fs)
    assert not verdict.ok
    assert f"batch {create.batch_id}: write of inodes:{pk} missing" in verdict.detail


def test_durability_audit_flags_a_row_rolled_back_to_an_earlier_batch():
    """Two committed batches overwrite /d's row one after the other; the
    later write is lost and the row rolls back to the earlier batch's
    value and txid.  The witness names the earlier batch, which settled
    before the later one opened, so settle order decides: red."""
    fs = make_async_fs()
    client = fs.client()
    horizons = []

    def chmods():
        for mode in (0o700, 0o750):
            yield from client.chmod("/d", mode)
            horizons.append(client.durability_horizon)
            yield from client.fsync()

    run(fs, fs.client().mkdir("/d"))
    run(fs, chmods())
    first, second = (fs.group_ledger.batches[h] for h in horizons)
    assert first.state == second.state == "committed"
    assert first.settled_ms <= second.opened_ms
    (table, pk, partition_key, value), = [
        w for w in first.writes if w[0] == INODES_TABLE and w[1] == (ROOT_INODE_ID, "d")
    ]
    assert durability_horizon(fs).ok
    # Lose the second chmod on every replica, behind NDB's back.
    for addr in fs.ndb.partition_map.replicas_for_key(partition_key).all:
        fs.ndb.datanodes[addr].store._apply(table, pk, partition_key, value, first.txid)
    verdict = durability_horizon(fs)
    assert not verdict.ok
    assert f"batch {second.batch_id}: inodes:{pk} holds a different value" in verdict.detail


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
