"""Benchmark-owned accounting: op conservation, error classes, host-time
and simulated-time ledgers, and the schedule fingerprint.

Everything here observes the program from outside: it wraps the
workload generator and the driver's collector, reads the stdlib profiler's
table, and walks the spans the program records.  Nothing in ``src/``
knows it exists.
"""

from __future__ import annotations

import hashlib
import os
import pstats
from collections import Counter
from typing import Optional

from repro.obs import Tracer, phase_breakdown

# Host layers: the ``src/repro`` packages an open optimisation targets,
# plus the benchmark's own code and everything else.  ``cephfs``,
# ``chaos`` and the top-level modules other than ``types.py`` (errors,
# cli) fall into ``other``.
LAYERS = ("sim", "net", "types", "ndb", "hopsfs", "workloads", "experiments",
          "metrics", "obs", "bench", "other")
_PACKAGE_LAYERS = frozenset(LAYERS) - {"types", "bench", "other"}
_SRC_MARK = os.sep + os.path.join("src", "repro") + os.sep
_BENCH_MARK = os.sep + "perfbench" + os.sep


def layer_of(filename: str) -> str:
    """Map a profiled function's source file to its layer."""
    cut = filename.rfind(_SRC_MARK)
    if cut >= 0:
        rest = filename[cut + len(_SRC_MARK):]
        head = rest.split(os.sep, 1)[0]
        if head == "types.py":
            return "types"
        return head if head in _PACKAGE_LAYERS else "other"
    if _BENCH_MARK in filename:
        return "bench"
    return "other"


def host_layers(profile) -> dict[str, list]:
    """Sum a ``cProfile.Profile``'s self time (s) and calls per layer."""
    out = {layer: [0.0, 0] for layer in LAYERS}
    for (filename, _line, _func), (_cc, calls, self_s, _cum, _callers) in (
        pstats.Stats(profile).stats.items()
    ):
        row = out[layer_of(filename)]
        row[0] += self_s
        row[1] += calls
    return out


class TraceHash:
    """``env.trace`` sink that hashes each dispatched ``(when, prio, seq)``.

    Produces the digest ``run_shard`` computes over a list-valued trace,
    without keeping millions of tuples in memory.
    """

    __slots__ = ("_sha",)

    def __init__(self):
        self._sha = hashlib.sha256()

    def append(self, entry) -> None:
        when, prio, seq = entry
        self._sha.update(f"{when!r}:{prio}:{seq}\n".encode())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


class OpLedger:
    """Collector wrapper that accounts for every op issued in the window.

    Forwards each :class:`~repro.types.OpResult` to the wrapped
    ``MetricsCollector`` (which keeps the window's finish-time view) and
    separately tallies ops by *issue* time: ``issued`` counts the
    generator's ``next_op`` calls inside the window, and after a drain
    every one of them must have come back as ``ok`` or as an error class.
    Latencies are kept by issue time too, so an op that is still stuck when
    the window closes counts in the tail with its full latency instead of
    dropping out of it.
    """

    def __init__(self, collector, env):
        self.collector = collector
        self.env = env
        self.start: Optional[float] = None
        self.end = float("inf")
        self.issued = 0
        self.ok = 0
        self.retries = 0
        self.latencies_ms: list = []  # every op issued in the window, to return
        self.errors: Counter = Counter()  # (op name, error class) -> count

    def open(self, now: float) -> None:
        self.start = now

    def close(self, now: float) -> None:
        self.end = now

    def in_window(self, t: float) -> bool:
        return self.start is not None and self.start <= t <= self.end

    def wrap(self, workload) -> "_CountingWorkload":
        return _CountingWorkload(workload, self)

    def record(self, result) -> None:
        self.collector.record(result)
        if not self.in_window(result.start_ms):
            return
        self.retries += result.retries
        self.latencies_ms.append(result.latency_ms)
        if result.ok:
            self.ok += 1
        else:
            self.errors[(result.op.name, result.error)] += 1

    @property
    def returned(self) -> int:
        return self.ok + sum(self.errors.values())

    @property
    def outstanding(self) -> int:
        return self.issued - self.returned


class _CountingWorkload:
    """Workload proxy counting the ops a driver issues inside the window."""

    __slots__ = ("_workload", "_ledger")

    def __init__(self, workload, ledger: OpLedger):
        self._workload = workload
        self._ledger = ledger

    def next_op(self, client_id=None):
        ledger = self._ledger
        if ledger.in_window(ledger.env.now):
            ledger.issued += 1
        return self._workload.next_op(client_id=client_id)


def _in_window_trees(tracer, start: float, end: float):
    """Spans of every ``client.op`` tree issued in ``[start, end]``.

    Returns ``(roots, descendants)``: the finished root spans, and one list
    of all their descendant spans.
    """
    children = tracer.children_index()
    roots, below = [], []
    for span in tracer.spans:
        if span.name != "client.op" or not span.finished:
            continue
        if not start <= span.start_ms <= end:
            continue
        roots.append(span)
        stack = [span.span_id]
        while stack:
            for child in children.get(stack.pop(), ()):
                below.append(child)
                stack.append(child.span_id)
    return roots, below


class SpanTally:
    """Simulated-time sums over the window's op trees, summed over shards."""

    FIELDS = ("ops", "op_ms", "nn_handle_ms", "txns", "txns_committed",
              "txn_ms", "lock_wait_ms", "phase_ms", "other_ms", "batches",
              "batch_ops", "dircache_hit", "dircache_miss", "listcache_hit",
              "listcache_miss")

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0.0)

    def add_window(self, obs, start: float, end: float) -> None:
        """Fold in the spans of one traced window's op trees."""
        roots, below = _in_window_trees(obs.tracer, start, end)
        self.ops += len(roots)
        for root in roots:
            self.op_ms += root.duration_ms
        for span in below:
            if not span.finished:
                continue
            name = span.name
            if name == "nn.handle":
                self.nn_handle_ms += span.duration_ms
            elif name == "ndb.txn":
                self.txns += 1
                self.txn_ms += span.duration_ms
                if span.tags.get("outcome") == "committed":
                    self.txns_committed += 1
            elif name == "ndb.lock.wait":
                self.lock_wait_ms += span.duration_ms
        # The program's own phase attribution over exactly these trees.
        window = Tracer()
        window.spans = roots + below
        for row in phase_breakdown(window).values():
            self.phase_ms += (row.metadata_ms + row.block_ms + row.lock_wait_ms
                              + row.cache_ms + row.other_ms)
            self.other_ms += row.other_ms
        for span in obs.tracer.spans:
            if (span.name == "nn.group_commit" and span.finished
                    and start <= span.start_ms <= end
                    and span.tags.get("outcome") == "committed"):
                self.batches += 1
                self.batch_ops += int(span.tags.get("ops", 0))

    def add_cache_counters(self, registry) -> None:
        """Fold in the NN cache counters (read at window close: the registry
        starts counting when the context attaches at window open)."""
        for name in ("dircache_hit", "dircache_miss", "listcache_hit", "listcache_miss"):
            counter = registry.get("nn." + name.replace("_", "."))
            if counter is not None:
                setattr(self, name, getattr(self, name) + counter.value)
