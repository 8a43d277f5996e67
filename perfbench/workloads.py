"""The four workloads and one measured round of each.

A *round* builds a fresh HopsFS-CL (3,3) deployment from the seed, preloads
the namespace, elects a leader, starts the load and warms up (together the
set-up), runs one fixed simulated window (the measurement), then stops the
load, drains to quiescence and runs the invariant catalogue (the
correctness check).  Every round of a seed is the same simulation, so its
simulated metrics repeat exactly; only the host-side timings vary.

Probes ride on a round: a ``cProfile.Profile`` enabled around the window
only, an ``ObsContext`` attached from window open to the end of the drain,
and a schedule fingerprint hashing every dispatch from the build on.  The
profiler and the fingerprint slow the host, so a round carries at most one
of the two.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.chaos.invariants import verify_hopsfs
from repro.experiments import SETUPS
from repro.hopsfs import AsyncCommitConfig, ListingCacheConfig
from repro.metrics.collectors import MetricsCollector, percentile
from repro.obs import ObsContext
from repro.sim import RngRegistry
from repro.types import OpType
from repro.workloads import (AggregatedArrivalEngine, ClosedLoopDriver,
                             SingleOpWorkload, SpotifyWorkload, ZipfPopulation,
                             generate_namespace)

from .ledger import OpLedger, SpanTally, TraceHash

SETUP = "HopsFS-CL (3,3)"

# A run simulates this many distinct windows, one seed each (see
# ``sub_seed``), and pools them: three times the samples per run, from the
# set-ups the host medians need anyway.
WINDOWS = 3

# Drain after the load stops: step until every issued op has returned and
# no group-commit batch is still open, capped so a wedged run still ends.
DRAIN_STEP_MS = 10.0
DRAIN_CAP_MS = 5_000.0

# The window runs in this many equal simulated steps, each timed on its own:
# the host rate is a median over steps, robust to a burst of load from
# elsewhere on the machine that a whole-window total would absorb.
SLICES = 8

# Error classes that are the file system's correct answer to the workload
# itself: the Spotify mix deletes and renames files other clients may
# already have removed.  Any other error class, and every shed detail
# sample, is a failed op.
NAMESPACE_ANSWERS = frozenset({
    ("DELETE_FILE", "FileNotFoundFsError"),
    ("RENAME", "FileNotFoundFsError"),
})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    servers: int
    warmup_ms: float
    window_ms: float
    # Closed loop: clients per NN; 0 selects the open-loop scale engine.
    clients_per_server: int = 0
    op: Optional[OpType] = None  # None: the Spotify mix
    optimized: bool = False  # listing_cache + async_commit on
    namespace: tuple = (8, 64, 32)  # top dirs, dirs per top, files per dir
    # Scale engine (clients_per_server == 0).
    shards: int = 12
    population: int = 1_000_000
    rate_ops_per_ms: float = 2_000.0
    detail_every: int = 64
    stubs_per_shard: int = 8
    max_inflight: int = 64


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spotify",
            "paper Fig. 5 regime: Spotify mix saturating 6 NNs, AZ-local reads; "
            "the read path (ndb, net, types) dominates host time",
            servers=6, clients_per_server=160, warmup_ms=15.0, window_ms=40.0,
        ),
        Workload(
            "mkdir",
            "write-only, below NN saturation: every op is a linear 2PC across "
            "three AZs, so commit rounds set latency; read-path changes stay flat",
            servers=6, clients_per_server=24, op=OpType.MKDIR,
            warmup_ms=15.0, window_ms=100.0,
        ),
        Workload(
            "scale",
            "open loop, 1M-client Zipf population at 2M ops/s over 12 inline "
            "shards: per-arrival kernel and generator work dominates",
            servers=3, warmup_ms=20.0, window_ms=200.0, namespace=(4, 16, 16),
        ),
        Workload(
            "spotify-opt",
            "spotify with listing_cache and async_commit on: the only run of "
            "listcache, changelog and groupcommit code and of their interaction",
            servers=6, clients_per_server=160, optimized=True,
            warmup_ms=15.0, window_ms=16.0,
        ),
    )
}


@dataclass
class Probes:
    """Optional instruments for one round."""

    profile: object = None  # cProfile.Profile, enabled over the window only
    obs: bool = False  # attach an ObsContext from window open to drain end
    fingerprint: bool = False  # hash every dispatch into env.trace


@dataclass
class Round:
    """What one round measured, summed over its shards."""

    setup_s: dict = field(default_factory=lambda: dict.fromkeys(
        ("build", "install", "ready", "warmup"), 0.0))
    # (host ops, CPU seconds) per window slice; the ops are window ops, and
    # arrivals on scale.
    slices: list = field(default_factory=list)
    window_wall_s: float = 0.0
    window_ms: float = 0.0
    latencies_ms: list = field(default_factory=list)  # issued in the window
    throughput_ops_s: float = 0.0
    attempted: int = 0  # issued ops plus shed detail samples
    issued: int = 0
    ok: int = 0
    shed: int = 0
    retries: int = 0
    errors: dict = field(default_factory=dict)
    events: int = 0
    messages: int = 0
    total_bytes: int = 0
    cross_az_bytes: int = 0
    nn_busy_ms: float = 0.0
    nn_capacity_ms: float = 0.0
    ndb_busy_ms: float = 0.0
    ndb_capacity_ms: float = 0.0
    violations: list = field(default_factory=list)
    shard_hashes: list = field(default_factory=list)
    spans: Optional[SpanTally] = None

    @property
    def setup_total_s(self) -> float:
        return sum(self.setup_s.values())

    @property
    def host_ops(self) -> int:
        return sum(ops for ops, _cpu in self.slices)

    @property
    def window_cpu_s(self) -> float:
        return sum(cpu for _ops, cpu in self.slices)

    @property
    def failed(self) -> int:
        """Shed samples plus errors that are not namespace answers."""
        return self.shed + sum(
            n for key, n in self.errors.items() if key not in NAMESPACE_ANSWERS)

    def fingerprint(self) -> Optional[str]:
        if not self.shard_hashes:
            return None
        if len(self.shard_hashes) == 1:
            return self.shard_hashes[0]
        merged = hashlib.sha256()
        for shard_id, digest in enumerate(self.shard_hashes):
            merged.update(f"{shard_id}:{digest}\n".encode())
        return merged.hexdigest()


def sub_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th window; runs never share one."""
    return seed * WINDOWS + index


def sim_metrics(rounds: list) -> dict:
    """Simulated-time end-to-end metrics pooled over ``rounds``.

    Fixed for a given set of round seeds: every input is simulated time.
    Throughput counts ops finished inside the window; latencies are those of
    the ops issued inside it, each timed to its return.
    """
    latencies = sorted(v for r in rounds for v in r.latencies_ms)
    p99 = percentile(latencies, 99)
    attempted = sum(r.attempted for r in rounds)
    issued = sum(r.issued for r in rounds)
    return {
        "sim_ops_per_s": sum(r.throughput_ops_s for r in rounds) / len(rounds),
        "sim_gmean_ms": statistics.geometric_mean(latencies),
        "sim_p99_ms": p99,
        "ok_frac": sum(r.ok for r in rounds) / attempted if attempted else 0.0,
        "cross_az_bytes_per_op": (
            sum(r.cross_az_bytes for r in rounds) / issued if issued else 0.0),
        "p99_tail_samples": sum(1 for v in latencies if v > p99),
        "returned": len(latencies),
    }


def run_round(wl: Workload, seed: int, probes: Optional[Probes] = None) -> Round:
    probes = probes or Probes()
    out = Round()
    if probes.obs:
        out.spans = SpanTally()
    if wl.clients_per_server:
        _closed_loop(wl, seed, probes, out)
    else:
        for shard_id in range(wl.shards):
            _scale_shard(wl, seed, shard_id, probes, out)
    return out


def _build(wl: Workload, seed: int, probes: Probes, out: Round):
    t0 = time.process_time()
    extra = {}
    if wl.optimized:
        extra = {"async_commit": AsyncCommitConfig(),
                 "listing_cache": ListingCacheConfig()}
    adapter = SETUPS[SETUP].build(wl.servers, seed=seed, **extra)
    sink = None
    if probes.fingerprint:
        sink = adapter.env.trace = TraceHash()
    t1 = time.process_time()
    top, dirs, files = wl.namespace
    namespace = generate_namespace(num_top_dirs=top, dirs_per_top=dirs,
                                   files_per_dir=files, seed=seed)
    adapter.install(namespace)
    t2 = time.process_time()
    env = adapter.env
    env.run_process(adapter.ready(), until=env.now + 60_000)
    out.setup_s["build"] += t1 - t0
    out.setup_s["install"] += t2 - t1
    return adapter, namespace, sink, t2


def _closed_loop(wl: Workload, seed: int, probes: Probes, out: Round) -> None:
    adapter, namespace, sink, t_ready0 = _build(wl, seed, probes, out)
    env = adapter.env
    if wl.op is None:
        gen = SpotifyWorkload(namespace, seed=seed, tag=SETUP)
    else:
        gen = SingleOpWorkload(wl.op, namespace, seed=seed)
    clients = adapter.make_clients(wl.clients_per_server * wl.servers)
    adapter.warm_client_caches(clients, gen)
    ledger = OpLedger(MetricsCollector(), env)
    driver = ClosedLoopDriver(env, clients, ledger.wrap(gen), ledger)
    t_warm0 = time.process_time()
    out.setup_s["ready"] += t_warm0 - t_ready0
    driver.start()
    env.run(until=env.now + wl.warmup_ms)
    out.setup_s["warmup"] += time.process_time() - t_warm0

    def host_ops():
        return ledger.collector.completed + ledger.collector.failed

    _measure(adapter, ledger, wl, probes, sink, out, host_ops, driver.stop)


def _scale_shard(wl: Workload, seed: int, shard_id: int, probes: Probes,
                 out: Round) -> None:
    """One shard, as ``repro.experiments.scale.run_shard`` builds it."""
    adapter, namespace, sink, t_ready0 = _build(wl, seed, probes, out)
    env = adapter.env
    azs = SETUPS[SETUP].azs
    az = azs[shard_id % len(azs)]
    rng = RngRegistry(seed).for_shard(shard_id)
    gen = SpotifyWorkload(namespace, seed=seed, tag=f"scale-{shard_id}")
    gen.rng = rng.stream("ops")
    population = ZipfPopulation(wl.population, 1.05, rng.stream("population"))
    ledger = OpLedger(MetricsCollector(), env)
    stubs = [adapter.deployment.client(az=az) for _ in range(wl.stubs_per_shard)]
    engine = AggregatedArrivalEngine(
        env, stubs, ledger.wrap(gen), ledger, population,
        rate_per_ms=wl.rate_ops_per_ms / wl.shards,
        arrival_rng=rng.stream("arrivals"),
        detail_every=wl.detail_every, max_inflight=wl.max_inflight, az=az,
    )
    t_warm0 = time.process_time()
    out.setup_s["ready"] += t_warm0 - t_ready0
    engine.start()
    env.run(until=env.now + wl.warmup_ms)
    out.setup_s["warmup"] += time.process_time() - t_warm0
    shed0 = engine.shed

    def stop():
        engine.stop()
        out.shed += engine.shed - shed0
        out.attempted += engine.shed - shed0

    _measure(adapter, ledger, wl, probes, sink, out, lambda: engine.arrivals, stop)


def _measure(adapter, ledger: OpLedger, wl: Workload, probes: Probes, sink,
             out: Round, host_ops, stop) -> None:
    """Run the window, stop the load, drain, audit; fold the shard in.

    ``host_ops()`` counts the ops the host rate is per, cumulatively; the
    window runs in ``SLICES`` equal steps timed one by one.  Network traffic
    counts from window open to the end of the drain: the commit traffic of
    an early-acked op belongs to that op even when its batch commits after
    the window.
    """
    env = adapter.env
    dep = adapter.deployment
    traffic = adapter.network.traffic
    traffic0 = traffic.snapshot()
    util0 = adapter.utilization_snapshot()
    seq0 = env._seq
    ledger.collector.open_window(env.now)
    ledger.open(env.now)
    obs = ObsContext().attach(env) if probes.obs else None
    profile = probes.profile
    start, ops = env.now, host_ops()
    wall0 = time.perf_counter()
    if profile is not None:
        profile.enable()
    for index in range(1, SLICES + 1):
        until = start + wl.window_ms * index / SLICES
        cpu = time.process_time()
        env.run(until=until)
        cpu = time.process_time() - cpu
        done = host_ops()
        out.slices.append((done - ops, cpu))
        ops = done
    if profile is not None:
        profile.disable()
    out.window_wall_s += time.perf_counter() - wall0
    ledger.collector.close_window(env.now)
    ledger.close(env.now)
    stop()
    out.events += env._seq - seq0
    out.window_ms = ledger.collector.window_ms
    out.throughput_ops_s += ledger.collector.throughput_ops_per_sec()
    report = adapter.utilization_report(util0)
    window = report.window_ms
    nn_cap = len(dep.namenodes) * dep.config.nn_cores * window
    out.nn_busy_ms += report.server_cpu_pct / 100.0 * nn_cap
    out.nn_capacity_ms += nn_cap
    ndb_cores = sum(cores for _busy, cores in dep.ndb.thread_busy().values())
    out.ndb_busy_ms += report.storage_cpu_pct / 100.0 * ndb_cores * window
    out.ndb_capacity_ms += ndb_cores * window
    if obs is not None:
        out.spans.add_cache_counters(obs.registry)

    deadline = env.now + DRAIN_CAP_MS
    while True:
        env.run(until=env.now + DRAIN_STEP_MS)
        open_batches = dep.group_ledger is not None and any(
            b.state == "open" for b in dep.group_ledger.batches.values())
        if (ledger.outstanding == 0 and not open_batches) or env.now >= deadline:
            break
    delta = traffic.delta_since(traffic0)
    out.messages += delta.messages
    out.total_bytes += delta.total_bytes
    out.cross_az_bytes += delta.cross_az_bytes
    if obs is not None:
        out.spans.add_window(obs, ledger.start, ledger.end)
        obs.detach()
    for verdict in verify_hopsfs(dep):
        if not verdict.ok:
            out.violations.append(f"{verdict.name}: {verdict.detail}")
    if ledger.outstanding:
        out.violations.append(
            f"op conservation: {ledger.issued} issued, {ledger.returned} returned "
            f"after a {DRAIN_CAP_MS:.0f} ms drain")
    out.attempted += ledger.issued
    out.issued += ledger.issued
    out.ok += ledger.ok
    out.retries += ledger.retries
    for key, n in ledger.errors.items():
        out.errors[key] = out.errors.get(key, 0) + n
    out.latencies_ms.extend(ledger.latencies_ms)
    if sink is not None:
        out.shard_hashes.append(sink.hexdigest())
