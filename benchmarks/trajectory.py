"""Append perfbench's end-to-end results to ``BENCH_trajectory.jsonl``.

    python3 benchmarks/trajectory.py --pr 21 --side change \\
        --parent 9ee080a [--checkout DIR]

Runs ``perfbench/run.py --probe-ref 0.0001 --seed 1 --seconds 10
--trace 0`` once per perfbench workload, in the checkout ``--checkout``
(this repository by default; a copy of the parent commit for the
``parent`` side), and appends one JSON line per workload to the
trajectory file at this repository's root.  Seed and workloads are
fixed, so every line compares with every other.  A line holds the PR
number, the side, the parent commit, the seed, the workload,
perfbench's four end-to-end metrics with their units,
``correct``/``attempted``/``failed``, and the host facts from
perfbench's context line.

Each run gets ``PYTHONPYCACHEPREFIX`` set to a fresh empty temporary
directory and ``PYTHONDONTWRITEBYTECODE=1``; perfbench's child
processes inherit both.  No run then reads a bytecode cache that an
earlier run in the checkout left in ``src/``, which would cut
``setup_s`` roughly in half and move peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import WORKLOAD_NAMES  # noqa: E402

TRAJECTORY = os.path.join(ROOT, "BENCH_trajectory.jsonl")
SEED = 1
END_TO_END = ("latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb")


def measure(checkout: str, workload: str) -> dict:
    """perfbench's context and result objects for one ``--trace 0`` run."""
    with tempfile.TemporaryDirectory() as pycache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": pycache,
               "PYTHONDONTWRITEBYTECODE": "1"}
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--probe-ref", "0.0001",
             "--workload", workload, "--seed", str(SEED), "--seconds", "10",
             "--trace", "0"],
            cwd=checkout, env=env, capture_output=True, text=True,
            check=True)
    lines = completed.stdout.strip().splitlines()
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


def record(args, workload: str, run: dict) -> dict:
    return {
        "pr": args.pr,
        "side": args.side,
        "parent": args.parent,
        "seed": SEED,
        "workload": workload,
        "metrics": {name: run["metrics"][name] for name in END_TO_END},
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "host": run["context"]["host"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--side", choices=("parent", "change"),
                        required=True)
    parser.add_argument("--parent", required=True,
                        help="the parent commit's abbreviated hash")
    parser.add_argument("--checkout", default=ROOT,
                        help="the checkout whose src/ is measured")
    args = parser.parse_args(argv)
    for workload in WORKLOAD_NAMES:
        line = record(args, workload, measure(args.checkout, workload))
        with open(TRAJECTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
        print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
