"""Timed and traced runs of one workload, and the metrics they report.

``timed_run`` (``--trace 0``) repeats rounds until the time budget is spent
and reports the end-to-end metrics; ``traced_run`` (``--trace 1``) runs a
fixed sequence of probed rounds and reports the per-layer metrics.  Both
return ``{"problems", "attempted", "failed", "metrics"}``; any problem
makes the run incorrect.
"""

from __future__ import annotations

import cProfile
import gc
import resource
import statistics
import time
from collections import Counter

from .ledger import LAYERS, host_layers
from .workloads import (NAMESPACE_ANSWERS, WINDOWS, Probes, run_round,
                        sim_metrics, sub_seed)

# A cap on rounds, so that a fast machine still ends a run promptly.
MAX_ROUNDS = 40


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _round(wl, seed: int, probes=None):
    gc.collect()  # free the last round's deployment outside the timings
    return run_round(wl, seed, probes)


def _check_rounds(rounds, seeds, problems: list) -> None:
    """Audit every round; rounds of one seed must agree exactly."""
    first = {}
    for index, (rnd, seed) in enumerate(zip(rounds, seeds)):
        problems.extend(f"round {index} (seed {seed}): {v}" for v in rnd.violations)
        metrics = sim_metrics([rnd])
        if first.setdefault(seed, metrics) != metrics:
            problems.append(f"round {index}: simulated metrics differ from an "
                            f"earlier round of seed {seed}")


def _print_errors(rounds) -> None:
    """Error classes per op type, summed over ``rounds``."""
    errors = Counter()
    for rnd in rounds:
        errors.update(rnd.errors)
    for (op, error), n in sorted(errors.items()):
        kind = "namespace answer" if (op, error) in NAMESPACE_ANSWERS else "FAILED"
        print(f"  errors  {op:<12} {error:<26} {n:>6}  ({kind})")
    shed = sum(r.shed for r in rounds)
    if shed:
        print(f"  errors  {'(any)':<12} {'shed detail sample':<26} {shed:>6}  (FAILED)")


def timed_run(wl, seed: int, seconds: float) -> dict:
    """Rounds until ``seconds`` pass (at least ``WINDOWS``): end-to-end metrics."""
    rounds, seeds = [], []
    start = time.perf_counter()
    while len(rounds) < WINDOWS or (
            time.perf_counter() - start < seconds and len(rounds) < MAX_ROUNDS):
        seeds.append(sub_seed(seed, len(rounds) % WINDOWS))
        rounds.append(_round(wl, seeds[-1]))
    problems: list = []
    _check_rounds(rounds, seeds, problems)
    pooled = rounds[:WINDOWS]
    sim = sim_metrics(pooled)
    setups = [r.setup_total_s for r in rounds]
    metrics = {
        **{name: _metric(sim[name], unit) for name, unit in (
            ("sim_ops_per_s", "ops/s"), ("sim_gmean_ms", "ms"), ("sim_p99_ms", "ms"),
            ("ok_frac", "ratio"), ("cross_az_bytes_per_op", "B/op"))},
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    attempted = sum(r.attempted for r in pooled)
    failed = sum(r.failed for r in pooled)
    print(f"workload {wl.name} seed {seed}: {len(rounds)} rounds over seeds "
          f"{seeds[:WINDOWS]}, {pooled[0].window_ms:g} ms simulated window each; "
          f"pooled: {attempted} ops attempted, {sim['returned']} returned, "
          f"{sim['p99_tail_samples']} of them above p99")
    print("  host ops per CPU second, per round: "
          + " ".join(f"{r.host_ops / r.window_cpu_s:.0f}" for r in rounds)
          + "  (per wall second: "
          + " ".join(f"{r.host_ops / r.window_wall_s:.0f}" for r in rounds) + ")")
    print("  setup_s per round: " + " ".join(f"{s:.3f}" for s in setups))
    _print_errors(pooled)
    return {"problems": problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced_run(wl, seed: int) -> dict:
    """Five probed rounds: per-layer metrics and the determinism self-check."""
    first, second = sub_seed(seed, 0), sub_seed(seed, 1)
    profile = cProfile.Profile()
    plain, profiled, traced, again, other_seed = (
        _round(wl, round_seed, probes) for round_seed, probes in (
            (first, None),
            (first, Probes(profile=profile)),
            (first, Probes(obs=True, fingerprint=True)),
            (first, Probes(fingerprint=True)),
            (second, Probes(fingerprint=True)),
        ))

    problems: list = []
    _check_rounds([plain, profiled, traced, again, other_seed],
                  [first] * 4 + [second], problems)
    fingerprint = traced.fingerprint()
    if again.fingerprint() != fingerprint:
        problems.append("same seed gave a different schedule fingerprint")
    if other_seed.fingerprint() == fingerprint:
        problems.append(f"seeds {first} and {second} gave the same fingerprint")

    metrics = {}
    # Host time per layer: cProfile self time over the window only.
    layers = host_layers(profile)
    ops = profiled.host_ops
    kops = ops / 1000.0
    for layer in LAYERS:
        self_s, calls = layers[layer]
        metrics[f"{layer}.self_ms_per_kop"] = _metric(self_s * 1000.0 / kops, "ms/kop")
        metrics[f"{layer}.calls_per_op"] = _metric(calls / ops, "calls/op")
    self_total = sum(self_s for self_s, _calls in layers.values())
    wall = profiled.window_wall_s
    metrics["ledger.host_residual_frac"] = _metric((wall - self_total) / wall, "ratio")
    metrics["obs.trace_overhead_frac"] = _metric(
        profiled.window_cpu_s / plain.window_cpu_s, "ratio")
    metrics["sim.events_per_op"] = _metric(plain.events / ops, "events/op")
    metrics["host.ops_per_s"] = _metric(
        statistics.median(ops / cpu for ops, cpu in plain.slices), "ops/s")

    # Simulated time per layer: spans of the ops issued in the window.
    spans = traced.spans
    per_op = spans.ops or 1
    nn_util = plain.nn_busy_ms / plain.nn_capacity_ms if plain.nn_capacity_ms else 0.0
    ndb_util = plain.ndb_busy_ms / plain.ndb_capacity_ms if plain.ndb_capacity_ms else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    metrics.update({
        "hopsfs.nn_handle_ms_per_op": _metric(spans.nn_handle_ms / per_op, "ms/op"),
        "hopsfs.nn_cpu_util": _metric(nn_util, "ratio"),
        "hopsfs.dircache_hit_ratio": _metric(
            ratio(spans.dircache_hit, spans.dircache_hit + spans.dircache_miss), "ratio"),
        "hopsfs.listcache_hit_ratio": _metric(
            ratio(spans.listcache_hit, spans.listcache_hit + spans.listcache_miss), "ratio"),
        "hopsfs.groupcommit_ops_per_batch": _metric(
            ratio(spans.batch_ops, spans.batches), "ops/batch"),
        "hopsfs.retries_per_op": _metric(ratio(plain.retries, plain.attempted), "1/op"),
        "ndb.txns_per_op": _metric(spans.txns / per_op, "txns/op"),
        "ndb.commit_ratio": _metric(ratio(spans.txns_committed, spans.txns), "ratio"),
        "ndb.txn_ms_per_op": _metric(spans.txn_ms / per_op, "ms/op"),
        "ndb.lock_wait_ms_per_op": _metric(spans.lock_wait_ms / per_op, "ms/op"),
        "ndb.cpu_util": _metric(ndb_util, "ratio"),
        "net.msgs_per_op": _metric(ratio(plain.messages, plain.issued), "msgs/op"),
        "net.bytes_per_op": _metric(ratio(plain.total_bytes, plain.issued), "B/op"),
        "net.cross_az_frac": _metric(ratio(plain.cross_az_bytes, plain.total_bytes), "ratio"),
        "net.other_ms_per_op": _metric(spans.other_ms / per_op, "ms/op"),
        "ledger.sim_residual_frac": _metric(
            ratio(spans.phase_ms - spans.op_ms, spans.op_ms), "ratio"),
        "workloads.shed_frac": _metric(ratio(plain.shed, plain.attempted), "ratio"),
        "window.p99_tail_samples": _metric(
            sim_metrics([plain])["p99_tail_samples"], "count"),
    })
    for phase, seconds in plain.setup_s.items():
        metrics[f"setup.{phase}_s"] = _metric(seconds, "s")

    print(f"workload {wl.name} seed {seed}: traced round seed {first}, "
          f"fingerprint {fingerprint}")
    print(f"  round seed {second} fingerprint {other_seed.fingerprint()}")
    print(f"  host ledger: layers sum to {self_total:.4f} s of a {wall:.4f} s "
          f"profiled window")
    print(f"  sim ledger: phases sum to {spans.phase_ms:.3f} ms of "
          f"{spans.op_ms:.3f} ms client.op time over {spans.ops:.0f} ops")
    _print_errors([plain])
    return {"problems": problems, "attempted": plain.attempted,
            "failed": plain.failed, "metrics": metrics}
