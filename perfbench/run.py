"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload spotify --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the
per-layer ones; ``perfbench/METRICS.md`` describes both and the rounds
behind them.  The last line of standard output is ``{"correct",
"attempted", "failed", "metrics"}``; each problem that makes a run
incorrect is named on standard error.  Without the program's source
under ``src/`` the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.measure import timed_run, traced_run
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.trace:
        result = traced_run(wl, args.seed)
    else:
        result = timed_run(wl, args.seed, args.seconds)
    for problem in result["problems"]:
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
