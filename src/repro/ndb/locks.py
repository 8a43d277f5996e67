"""Row-level locking with strict two-phase locking semantics.

NDB uses strict 2PL (Section II-B2): locks are acquired as operations
execute and released only at commit/abort.  Deadlocks are broken by
``TransactionDeadlockDetectionTimeout`` — a waiter that cannot get the lock
in time aborts its transaction, and the application (HopsFS) retries.
A request may carry its own wait bound (``timeout_ms``), which can only
tighten the cluster timeout; group-commit batches use one, because the
union of their members' lock sets has no total order (see
:mod:`repro.hopsfs.groupcommit`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Hashable, Optional

from ..errors import LockTimeoutError
from ..sim import Environment, Event
from .schema import LockMode

__all__ = ["LockTable"]


@dataclass
class _LockRequest:
    txid: int
    mode: LockMode
    event: Event
    granted: bool = False
    abandoned: bool = False
    # Tracing only (set when queued under an active ObsContext): when the
    # request started waiting, and the span the wait reports under.
    queued_at: float = -1.0
    obs_parent: object = None


@dataclass
class _RowLock:
    holders: dict[int, LockMode] = field(default_factory=dict)
    queue: Deque[_LockRequest] = field(default_factory=deque)

    @property
    def idle(self) -> bool:
        return not self.holders and not self.queue


class LockTable:
    """Per-datanode lock manager for the rows it stores."""

    def __init__(self, env: Environment, deadlock_timeout_ms: float = 1200.0):
        self.env = env
        self.deadlock_timeout_ms = deadlock_timeout_ms
        self._rows: dict[Hashable, _RowLock] = {}
        # txid -> row keys it holds or waits on (for release_all).  Stored
        # as an insertion-ordered dict-of-None rather than a set so that
        # release order is deterministic across processes (set iteration
        # order depends on PYTHONHASHSEED; lock hand-off order must not).
        self._by_txn: dict[int, dict[Hashable, None]] = {}
        self.timeouts_fired = 0
        self._expire_cb = self._expire

    # -- public API -----------------------------------------------------------
    def acquire(
        self,
        txid: int,
        key: Hashable,
        mode: LockMode,
        parent=None,
        timeout_ms: Optional[float] = None,
    ) -> Event:
        """Request ``mode`` on row ``key``; returns an event granted later.

        Fails with :class:`LockTimeoutError` if the wait bound fires first:
        the cluster's deadlock-detection timeout, or ``timeout_ms`` when
        that is shorter.  ``parent`` (tracing only) nests the recorded
        wait span under the caller's span; contended waits are recorded
        retrospectively at grant/timeout time, immediate grants record
        nothing.
        """
        if mode is LockMode.NONE:
            raise ValueError("LockMode.NONE is not a lock")
        row = self._rows.setdefault(key, _RowLock())
        event = self.env.event()
        held = row.holders.get(txid)
        if held is not None and self._covers(held, mode):
            event.succeed()
            return event
        request = _LockRequest(txid=txid, mode=mode, event=event)
        if self._grantable(row, request):
            self._grant(row, request, key)
            return event
        if self.env.obs is not None:
            request.queued_at = self.env.now
            request.obs_parent = parent
        if held is not None:
            # Lock upgrade (S -> X): goes to the front of the queue so the
            # holder is not starved behind newcomers.
            row.queue.appendleft(request)
        else:
            row.queue.append(request)
        self._by_txn.setdefault(txid, {})[key] = None
        bound = self.deadlock_timeout_ms
        if timeout_ms is not None and timeout_ms < bound:
            bound = timeout_ms
        self.env.schedule_after(bound, self._expire_cb, (request, key))
        return event

    def release(self, txid: int, key: Hashable) -> None:
        """Release one row lock held by ``txid`` (commit applies per-row)."""
        row = self._rows.get(key)
        if row is None:
            return
        if row.holders.pop(txid, None) is not None:
            keys = self._by_txn.get(txid)
            if keys is not None:
                keys.pop(key, None)
                if not keys:
                    del self._by_txn[txid]
        self._pump(row, key)

    def release_all(self, txid: int) -> None:
        """Release every lock held (or awaited) by ``txid``."""
        keys = self._by_txn.pop(txid, ())
        for key in keys:
            row = self._rows.get(key)
            if row is None:
                continue
            row.holders.pop(txid, None)
            for request in row.queue:
                if request.txid == txid and not request.abandoned:
                    request.abandoned = True
                    if not request.event.triggered:
                        request.event.fail(
                            LockTimeoutError(
                                f"txn {txid} aborted while waiting for {key!r}"
                            )
                        )
            self._pump(row, key)

    def holds(self, txid: int, key: Hashable, mode: LockMode) -> bool:
        row = self._rows.get(key)
        if row is None:
            return False
        held = row.holders.get(txid)
        return held is not None and self._covers(held, mode)

    def held_keys(self, txid: int) -> set[Hashable]:
        return set(self._by_txn.get(txid, ()))

    @property
    def active_rows(self) -> int:
        return sum(1 for row in self._rows.values() if not row.idle)

    def active_row_txids(self) -> dict[Hashable, set[int]]:
        """Per non-idle row: the txids holding or waiting on it."""
        return {
            key: set(row.holders)
            | {req.txid for req in row.queue if not req.abandoned}
            for key, row in self._rows.items()
            if not row.idle
        }

    # -- internals --------------------------------------------------------------
    @staticmethod
    def _covers(held: LockMode, wanted: LockMode) -> bool:
        if held is LockMode.EXCLUSIVE:
            return True
        return wanted is LockMode.SHARED

    @staticmethod
    def _compatible(holders: dict[int, LockMode], request: _LockRequest) -> bool:
        others = {t: m for t, m in holders.items() if t != request.txid}
        if not others:
            return True
        if request.mode is LockMode.EXCLUSIVE:
            return False
        return all(m is LockMode.SHARED for m in others.values())

    def _grantable(self, row: _RowLock, request: _LockRequest) -> bool:
        # FIFO fairness: cannot jump a non-empty queue unless upgrading.
        if row.queue and request.txid not in row.holders:
            return False
        return self._compatible(row.holders, request)

    def _grant(self, row: _RowLock, request: _LockRequest, key: Hashable) -> None:
        request.granted = True
        row.holders[request.txid] = request.mode
        self._by_txn.setdefault(request.txid, {})[key] = None
        if not request.event.triggered:
            request.event.succeed()
        if request.queued_at >= 0.0:
            self._record_wait(request, key, timed_out=False)

    def _record_wait(self, request: _LockRequest, key: Hashable, timed_out: bool) -> None:
        """Record a contended wait's span + histogram sample (tracing only)."""
        obs = self.env.obs
        if obs is None:
            return
        now = self.env.now
        obs.tracer.record(
            "ndb.lock.wait", request.queued_at, now,
            parent=request.obs_parent,
            key=str(key), mode=request.mode.value, timed_out=timed_out,
        )
        obs.registry.histogram("ndb.lock.wait_ms").observe(now - request.queued_at)
        if timed_out:
            obs.registry.counter("ndb.lock.timeouts_fired").inc()

    def _pump(self, row: _RowLock, key: Hashable) -> None:
        while row.queue:
            head = row.queue[0]
            if head.abandoned or head.event.triggered:
                row.queue.popleft()
                continue
            if not self._compatible(row.holders, head):
                break
            row.queue.popleft()
            self._grant(row, head, key)
        if row.idle:
            self._rows.pop(key, None)

    def _expire(self, timer: tuple) -> None:
        request, key = timer
        if request.granted or request.abandoned or request.event.triggered:
            return
        request.abandoned = True
        self.timeouts_fired += 1
        if request.queued_at >= 0.0:
            self._record_wait(request, key, timed_out=True)
        row = self._rows.get(key)
        if row is not None:
            try:
                row.queue.remove(request)
            except ValueError:
                pass
            self._pump(row, key)
        request.event.fail(
            LockTimeoutError(
                f"txn {request.txid} timed out waiting for {request.mode.value} on {key!r}"
            )
        )
