"""Workload drivers: closed-loop and open-loop clients.

Closed-loop: N clients each issue the next operation as soon as the
previous one completes — the saturation-throughput methodology of Fig. 5.
Open-loop: operations arrive at a fixed rate regardless of completions —
used for the 50%-load latency percentiles of Fig. 9.
"""

from __future__ import annotations

from ..errors import FsError, NoNamenodeError, ReproError, TransactionAbortedError
from ..metrics.collectors import MetricsCollector
from ..types import OpResult

__all__ = ["ClosedLoopDriver", "OpenLoopDriver", "EXPECTED_ERRORS", "run_op"]

# Error classes a driver treats as a failed op rather than a harness bug.
EXPECTED_ERRORS = (FsError, TransactionAbortedError, NoNamenodeError)


def run_op(env, client, op, kwargs, collector):
    """Generator: issue one op and record its outcome in ``collector``.

    The one failure-handling path of every driver: an error in
    :data:`EXPECTED_ERRORS` is a failed op, anything else is a harness
    bug and propagates.  ``collector`` is anything with ``record()``.
    """
    start = env.now
    ok, error = True, None
    try:
        yield from client.op(op, **kwargs)
    except EXPECTED_ERRORS as exc:
        ok, error = False, type(exc).__name__
    collector.record(
        OpResult(
            op=op, start_ms=start, end_ms=env.now, ok=ok, error=error,
            retries=getattr(client, "last_op_failures", 0),
        )
    )


class ClosedLoopDriver:
    """Runs ``num_clients`` closed-loop clients against a deployment."""

    def __init__(
        self,
        env,
        clients,
        workload,
        collector: MetricsCollector,
    ):
        self.env = env
        self.clients = list(clients)
        self.workload = workload
        self.collector = collector
        self.stopped = False

    def start(self) -> None:
        for index, client in enumerate(self.clients):
            self.env.process(self._client_loop(client, index), name="closed-loop-client")

    def stop(self) -> None:
        self.stopped = True

    def _client_loop(self, client, index):
        while not self.stopped:
            op, kwargs = self.workload.next_op(client_id=index)
            yield from run_op(self.env, client, op, kwargs, self.collector)


class OpenLoopDriver:
    """Issues operations at ``rate_per_ms`` using a pool of client stubs.

    Arrivals are deterministic at 1/rate spacing (adding Poisson jitter
    does not change the percentile ordering the figure reports, and keeps
    runs reproducible).
    """

    def __init__(
        self,
        env,
        clients,
        workload,
        collector: MetricsCollector,
        rate_per_ms: float,
    ):
        if rate_per_ms <= 0:
            raise ReproError("open-loop rate must be positive")
        self.env = env
        self.clients = list(clients)
        self.workload = workload
        self.collector = collector
        self.rate_per_ms = rate_per_ms
        self.stopped = False
        self._next_client = 0

    def start(self) -> None:
        self.env.process(self._arrival_loop(), name="open-loop-arrivals")

    def stop(self) -> None:
        self.stopped = True

    def _arrival_loop(self):
        gap = 1.0 / self.rate_per_ms
        while not self.stopped:
            index = self._next_client % len(self.clients)
            client = self.clients[index]
            self._next_client += 1
            op, kwargs = self.workload.next_op(client_id=index)
            self.env.process(
                run_op(self.env, client, op, kwargs, self.collector),
                name="open-loop-op",
            )
            yield self.env.timeout(gap)
