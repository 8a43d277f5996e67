"""Tests for the strict-2PL row lock table."""

import pytest

from repro.errors import LockTimeoutError
from repro.ndb import LockMode, LockTable
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def locks(env):
    return LockTable(env, deadlock_timeout_ms=100)


def test_uncontended_exclusive_granted_immediately(env, locks):
    def proc():
        yield locks.acquire(1, "row", LockMode.EXCLUSIVE)
        return env.now

    assert env.run_process(proc()) == 0
    assert locks.holds(1, "row", LockMode.EXCLUSIVE)


def test_shared_locks_coexist(env, locks):
    def proc():
        yield locks.acquire(1, "row", LockMode.SHARED)
        yield locks.acquire(2, "row", LockMode.SHARED)
        return env.now

    assert env.run_process(proc()) == 0
    assert locks.holds(1, "row", LockMode.SHARED)
    assert locks.holds(2, "row", LockMode.SHARED)


def test_exclusive_blocks_shared(env, locks):
    order = []

    def writer():
        yield locks.acquire(1, "row", LockMode.EXCLUSIVE)
        order.append(("w", env.now))
        yield env.timeout(10)
        locks.release_all(1)

    def reader():
        yield env.timeout(1)
        yield locks.acquire(2, "row", LockMode.SHARED)
        order.append(("r", env.now))

    env.process(writer())
    env.process(reader())
    env.run()
    assert order == [("w", 0), ("r", 10)]


def test_exclusive_waits_for_all_shared(env, locks):
    done = []

    def reader(txid):
        yield locks.acquire(txid, "row", LockMode.SHARED)
        yield env.timeout(5 * txid)
        locks.release_all(txid)

    def writer():
        yield env.timeout(1)
        yield locks.acquire(99, "row", LockMode.EXCLUSIVE)
        done.append(env.now)

    env.process(reader(1))
    env.process(reader(2))
    env.process(writer())
    env.run()
    assert done == [10]  # waits for the slower reader (txid 2 -> t=10)


def test_fifo_no_starvation(env, locks):
    """A shared request behind a queued exclusive one must wait (no jumping)."""
    order = []

    def holder():
        yield locks.acquire(1, "row", LockMode.SHARED)
        yield env.timeout(10)
        locks.release_all(1)

    def writer():
        yield env.timeout(1)
        yield locks.acquire(2, "row", LockMode.EXCLUSIVE)
        order.append(("w", env.now))
        yield env.timeout(5)
        locks.release_all(2)

    def late_reader():
        yield env.timeout(2)
        yield locks.acquire(3, "row", LockMode.SHARED)
        order.append(("r", env.now))

    env.process(holder())
    env.process(writer())
    env.process(late_reader())
    env.run()
    assert order == [("w", 10), ("r", 15)]


def test_reentrant_acquire_is_noop(env, locks):
    def proc():
        yield locks.acquire(1, "row", LockMode.EXCLUSIVE)
        yield locks.acquire(1, "row", LockMode.EXCLUSIVE)
        yield locks.acquire(1, "row", LockMode.SHARED)  # covered by X
        return env.now

    assert env.run_process(proc()) == 0


def test_upgrade_sole_shared_holder(env, locks):
    def proc():
        yield locks.acquire(1, "row", LockMode.SHARED)
        yield locks.acquire(1, "row", LockMode.EXCLUSIVE)
        return env.now

    assert env.run_process(proc()) == 0
    assert locks.holds(1, "row", LockMode.EXCLUSIVE)


def test_upgrade_waits_for_other_sharers(env, locks):
    done = []

    def upgrader():
        yield locks.acquire(1, "row", LockMode.SHARED)
        yield env.timeout(1)
        yield locks.acquire(1, "row", LockMode.EXCLUSIVE)
        done.append(env.now)

    def other():
        yield locks.acquire(2, "row", LockMode.SHARED)
        yield env.timeout(5)
        locks.release_all(2)

    env.process(other())
    env.process(upgrader())
    env.run()
    assert done == [5]


def test_deadlock_timeout_fires(env, locks):
    """Two transactions locking in opposite order: the waiters time out."""

    def t1():
        yield locks.acquire(1, "a", LockMode.EXCLUSIVE)
        yield env.timeout(1)
        with pytest.raises(LockTimeoutError):
            yield locks.acquire(1, "b", LockMode.EXCLUSIVE)
        locks.release_all(1)
        return env.now

    def t2():
        yield locks.acquire(2, "b", LockMode.EXCLUSIVE)
        yield env.timeout(1)
        with pytest.raises(LockTimeoutError):
            yield locks.acquire(2, "a", LockMode.EXCLUSIVE)
        locks.release_all(2)
        return env.now

    p1 = env.process(t1())
    p2 = env.process(t2())
    env.run()
    # both waited the 100ms deadlock timeout from t=1
    assert p1.value == 101
    assert p2.value == 101
    assert locks.timeouts_fired == 2


def test_release_all_wakes_waiters(env, locks):
    woke = []

    def holder():
        yield locks.acquire(1, "a", LockMode.EXCLUSIVE)
        yield locks.acquire(1, "b", LockMode.EXCLUSIVE)
        yield env.timeout(3)
        locks.release_all(1)

    def waiter(txid, key):
        yield env.timeout(1)  # let the holder take both locks first
        yield locks.acquire(txid, key, LockMode.EXCLUSIVE)
        woke.append((txid, env.now))

    env.process(holder())
    env.process(waiter(2, "a"))
    env.process(waiter(3, "b"))
    env.run()
    assert sorted(woke) == [(2, 3), (3, 3)]


def test_per_key_release(env, locks):
    woke = []

    def holder():
        yield locks.acquire(1, "a", LockMode.EXCLUSIVE)
        yield locks.acquire(1, "b", LockMode.EXCLUSIVE)
        yield env.timeout(2)
        locks.release(1, "a")
        yield env.timeout(2)
        locks.release(1, "b")

    def waiter(txid, key):
        yield env.timeout(1)  # let the holder take both locks first
        yield locks.acquire(txid, key, LockMode.EXCLUSIVE)
        woke.append((key, env.now))

    env.process(holder())
    env.process(waiter(2, "a"))
    env.process(waiter(3, "b"))
    env.run()
    assert sorted(woke) == [("a", 2), ("b", 4)]


def test_timed_out_waiter_does_not_block_queue(env, locks):
    woke = []

    def holder():
        yield locks.acquire(1, "row", LockMode.EXCLUSIVE)
        yield env.timeout(150)  # beyond the 100ms deadlock timeout
        locks.release_all(1)

    def impatient():
        yield env.timeout(1)
        with pytest.raises(LockTimeoutError):
            yield locks.acquire(2, "row", LockMode.EXCLUSIVE)
        locks.release_all(2)

    def patient():
        yield env.timeout(2)
        try:
            yield locks.acquire(3, "row", LockMode.EXCLUSIVE)
            woke.append(env.now)
        except LockTimeoutError:
            woke.append("timeout")

    env.process(holder())
    env.process(impatient())
    env.process(patient())
    env.run()
    # patient also times out at 102 (held until 150) — that's correct 2PL
    assert woke == ["timeout"]


def test_active_rows_accounting(env, locks):
    def proc():
        yield locks.acquire(1, "a", LockMode.SHARED)
        assert locks.active_rows == 1
        locks.release_all(1)
        assert locks.active_rows == 0
        return True

    assert env.run_process(proc())


# ------------------------------------------------------ per-request bound
def _timed_waiter(env, locks, txid, timeout_ms, outcome):
    yield env.timeout(1)
    try:
        yield locks.acquire(txid, "row", LockMode.EXCLUSIVE, timeout_ms=timeout_ms)
        outcome.append(("granted", env.now))
    except LockTimeoutError:
        outcome.append(("timeout", env.now))


def _hold(env, locks, hold_ms):
    yield locks.acquire(1, "row", LockMode.EXCLUSIVE)
    yield env.timeout(hold_ms)
    locks.release_all(1)


def test_request_timeout_fires_at_its_own_bound(env, locks):
    outcome = []
    env.process(_hold(env, locks, 50))
    env.process(_timed_waiter(env, locks, 2, 5.0, outcome))
    env.run()
    # Queued at t=1 with a 5 ms bound: fails at 6, long before the
    # holder's release at 50 and the table's 100 ms timeout.
    assert outcome == [("timeout", 6)]
    assert locks.timeouts_fired == 1


def test_request_timeout_none_keeps_the_table_timeout(env, locks):
    outcome = []
    env.process(_hold(env, locks, 150))
    env.process(_timed_waiter(env, locks, 2, None, outcome))
    env.run()
    assert outcome == [("timeout", 101)]


def test_request_timeout_never_extends_the_table_timeout(env, locks):
    outcome = []
    env.process(_hold(env, locks, 300))
    env.process(_timed_waiter(env, locks, 2, 250.0, outcome))
    env.run()
    # A bound above the table's 100 ms timeout is capped at it.
    assert outcome == [("timeout", 101)]


def test_request_timeout_is_inert_once_granted(env, locks):
    outcome = []
    env.process(_hold(env, locks, 3))
    env.process(_timed_waiter(env, locks, 2, 5.0, outcome))
    env.run()
    # Granted at the release (t=3); the timer firing at t=6 must neither
    # fail the request nor count a timeout, and the lock is still held.
    assert outcome == [("granted", 3)]
    assert env.now >= 6
    assert locks.timeouts_fired == 0
    assert locks.holds(2, "row", LockMode.EXCLUSIVE)
