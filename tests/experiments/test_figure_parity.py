"""Golden figure-path numbers for every setup.

``tests/sim/golden`` pins the dispatch trace of a bare build-install-run
loop, and ``tests/chaos/golden`` pins the chaos path.  This file pins
what the figures report: one small :func:`run_point` per setup, with its
throughput, latency percentiles, op counts, kernel event count and every
:class:`~repro.metrics.utilization.ResourceReport` field.  A refactor of
the harnesses or the runner must leave every entry unchanged.

To re-capture after an *intentional* model change, run

    PYTHONPATH=src python tests/experiments/test_figure_parity.py > \
        tests/experiments/golden/figure_points.json

and say why in the commit message.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments import SETUPS, RunConfig, run_point

_GOLDEN_PATH = Path(__file__).parent / "golden" / "figure_points.json"

_CONFIG = RunConfig(
    clients_per_server=16,
    warmup_ms=10.0,
    window_ms=20.0,
    namespace_top_dirs=2,
    namespace_dirs_per_top=4,
    namespace_files_per_dir=6,
)


def _fingerprint(setup: str) -> dict:
    point = run_point(setup, 2, config=_CONFIG)
    doc = {
        "throughput_ops_s": point.throughput_ops_s,
        "p50_ms": point.p50_ms,
        "p90_ms": point.p90_ms,
        "p99_ms": point.p99_ms,
        "completed": point.completed,
        "failed": point.failed,
        "events": point.events,
        "resource": dataclasses.asdict(point.resource),
    }
    # A JSON round trip turns the per-AZ keys into strings, as on disk.
    return json.loads(json.dumps(doc))


@pytest.fixture(autouse=True)
def _pin_bench_scale(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "1.0")


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_setup(golden):
    assert sorted(golden) == sorted(SETUPS)


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_figure_point_matches_golden(golden, setup):
    assert _fingerprint(setup) == golden[setup]


if __name__ == "__main__":
    import os

    os.environ["REPRO_BENCH_SCALE"] = "1.0"
    print(json.dumps({name: _fingerprint(name) for name in sorted(SETUPS)},
                     indent=2, sort_keys=True))
