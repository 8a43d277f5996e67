"""Golden dispatch hashes for chaos runs that fail over.

The kernel and setup goldens (``tests/sim/golden``) are all fault-free,
so they never exercise client failover, RPC timeouts, hedged reads,
admission-control shedding or graceful drains.  This file pins those
schedules: every scenario in ``SCENARIOS`` on HopsFS-CL (3,3), plus the
fail-stop scenarios on plain HopsFS (3,3), whose clients run without a
robust config.  Each run is stored as ``(dispatch_hash, completed,
failed, events)``; a refactor of the request path must leave every entry
unchanged.

To re-capture after an *intentional* schedule change, run

    PYTHONPATH=src python tests/chaos/test_golden_failover.py > \
        tests/chaos/golden/failover_schedules.json

and say why in the commit message.
"""

import json
from pathlib import Path

import pytest

from repro.chaos import SCENARIOS, run_scenario

_GOLDEN_PATH = Path(__file__).parent / "golden" / "failover_schedules.json"

_FAIL_STOP = (
    "az-outage-under-load",
    "network-partition",
    "rolling-namenode-restarts",
    "degraded-link",
)

RUNS = [("HopsFS-CL (3,3)", name) for name in sorted(SCENARIOS)] + [
    ("HopsFS (3,3)", name) for name in _FAIL_STOP
]


def _key(setup: str, scenario: str) -> str:
    return f"{setup} / {scenario}"


def _fingerprint(setup: str, scenario: str) -> dict:
    result = run_scenario(scenario, setup=setup, num_servers=3, seed=7)
    return {
        "dispatch_hash": result.dispatch_hash,
        "completed": result.completed,
        "failed": result.failed,
        "events": result.events,
    }


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(_key(s, n) for s, n in RUNS)


@pytest.mark.parametrize("setup,scenario", RUNS, ids=[_key(s, n) for s, n in RUNS])
def test_failover_schedule_matches_golden(golden, setup, scenario):
    assert _fingerprint(setup, scenario) == golden[_key(setup, scenario)]


if __name__ == "__main__":
    # Re-capture entry point (see module docstring).
    import sys

    doc = {_key(s, n): _fingerprint(s, n) for s, n in RUNS}
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    print()
