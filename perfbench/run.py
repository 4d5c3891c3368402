"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --probe-ref 0.0001 \\
        --workload movies-nested --seed 1 --seconds 10 --trace 0

Run from the repository root.  The corpus is generated from ``--seed``
before anything is timed; every measurement then runs in a fresh child
process (``perfbench/phase.py``) against ``src/``:

* ``--trace 0`` measures the end-to-end metrics: the closed loop for
  ``--seconds`` (operation latency p50/p90), set-up in several fresh
  interpreters (``setup_s``) and peak RSS in a separate fresh process.
* ``--trace 1`` measures the per-layer metrics: an untraced loop plus two
  traced loops under two ``PYTHONHASHSEED`` values, asserting that the
  traced runs reproduce the untraced pairs, counters and file counts and
  that every per-layer count repeats exactly.

Every time is host-normalised: ``(wall - sampling) * probe_ref /
mean(samples)``, with the samples of ``hostprobe.py``'s probe taken while
it ran and ``sampling`` the wall time they took.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the context (host
facts, raw wall times, probe and sampling times, sample counts, recall
and precision), which nothing gates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from hostprobe import normalise

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Working space inside the repository (corpora, indexes, span files).
WORK = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("movies-nested", "discs-catalog-shm", "movies-incremental",
                  "movies-outofcore")

#: Fresh interpreters timed per run for ``setup_s`` (the median counts).
SETUP_SAMPLES = 5

#: ``PYTHONHASHSEED`` of every measuring process; the traced run adds the
#: second value to show that counts do not depend on it.
HASH_SEEDS = ("0", "1")

#: A run must end within this many seconds, children included.
RUN_LIMIT_S = 170

#: The ``KeyError`` traceback multiprocessing's resource tracker prints
#: when a shared-memory segment is unregistered twice; pairs stay correct.
TRACKER_TRACEBACK = re.compile(
    r"Traceback \(most recent call last\):\n"
    r"  File \"[^\"]*resource_tracker\.py\", line \d+, in main\n"
    r"    cache\[rtype\]\.remove\(name\)\n"
    r"KeyError: '[^']*'\n")

LAYERS = ("xmlmodel", "keygen", "spill", "gk", "window", "execution",
          "similarity", "clusters", "incremental", "index", "store")
SELF_TIME_NAME = {"gk": "gk.sort_s", "store": "store.load_s"}


class BenchmarkError(Exception):
    """A measuring process failed outright; no result can be printed."""


class Runner:
    def __init__(self, args, work: str, spec_path: str):
        self.args = args
        self.work = work
        self.spec_path = spec_path
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.tracker_tracebacks = 0
        self._children = 0

    def child(self, phase: str, *extra, hash_seed: str = HASH_SEEDS[0]):
        """Run one measuring process to completion; returns its result.

        Output is read through pipes, so this also waits for any process
        the child left holding them (multiprocessing's resource tracker).
        """
        self._children += 1
        out = os.path.join(self.work, f"{phase}-{self._children}.json")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        try:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "phase.py"), phase,
                 self.spec_path, out, *map(str, extra)],
                env=env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as error:
            raise BenchmarkError(f"{phase} process timed out") from error
        stderr = done.stderr
        self.tracker_tracebacks += len(TRACKER_TRACEBACK.findall(stderr))
        rest = TRACKER_TRACEBACK.sub("", stderr) + done.stdout
        if rest.strip():
            sys.stderr.write(rest)
        if done.returncode != 0:
            raise BenchmarkError(
                f"{phase} process exited with code {done.returncode}")
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)

    def normalised(self, record: dict) -> float:
        """A measured time at reference host speed, sampling left out."""
        return normalise(record["wall"] - record["sampling"],
                         record["probe"], self.args.probe_ref)


def op_latencies(runner: Runner, units) -> list[float]:
    return [runner.normalised(op) for unit in units for op in unit["ops"]]


def unit_totals(runner: Runner, units) -> list[float]:
    return [sum(runner.normalised(op) for op in unit["ops"])
            for unit in units]


def tally(units) -> tuple[int, int]:
    """Operations attempted and failed; a failed unit fails all its ops."""
    attempted = sum(len(unit["ops"]) for unit in units)
    failed = sum(len(unit["ops"]) for unit in units if unit["error"])
    return attempted, failed


def quality(units) -> dict:
    facts = [unit["facts"] for unit in units if unit["facts"]]
    if not facts:
        return {}
    return {"recall": facts[0]["recall"], "precision": facts[0]["precision"],
            "repeat_exactly": all(
                (f["recall"], f["precision"])
                == (facts[0]["recall"], facts[0]["precision"])
                for f in facts)}


def end_to_end(runner: Runner) -> tuple[dict, dict, int, int]:
    args = runner.args
    timed = runner.child("timed", args.seconds)["units"]
    rss = runner.child("rss")
    setups = [runner.child("setup") for _ in range(SETUP_SAMPLES)]

    latencies_ms = [1000.0 * value for value in op_latencies(runner, timed)]
    setup_s = [runner.normalised(sample) for sample in setups]
    metrics = {
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p90_ms": (percentile90(latencies_ms), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss["self_kb"] / 1024.0, "MB"),
    }
    probes = [op["probe"] for unit in timed for op in unit["ops"]]
    raw_ms = [1000.0 * op["wall"] for unit in timed for op in unit["ops"]]
    context = {
        "operations": len(latencies_ms),
        "units": len(timed),
        "raw_latency_p50_ms": statistics.median(raw_ms),
        "raw_latency_p90_ms": percentile90(raw_ms),
        "probe_median_s": statistics.median(probes),
        "sampling_s": sum(op["sampling"] for unit in timed
                          for op in unit["ops"]),
        "raw_setup_s": [sample["wall"] for sample in setups],
        "setup_probe_s": [sample["probe"] for sample in setups],
        "setup_sampling_s": [sample["sampling"] for sample in setups],
        "worker_peak_rss_mb": rss["children_kb"] / 1024.0,
        "unit_errors": [unit["error"] for unit in timed if unit["error"]],
        **quality(timed),
    }
    attempted, failed = tally(timed)
    return metrics, context, attempted, failed


def percentile90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(runner: Runner) -> tuple[dict, dict, int, int]:
    from workloads import REPEATED_FACTS
    seconds = runner.args.seconds / 3.0
    untraced = runner.child("timed", seconds)["units"]
    traced_by_seed = {seed: runner.child("traced", seconds, hash_seed=seed)
                      ["units"] for seed in HASH_SEEDS}
    traced = [unit for units in traced_by_seed.values() for unit in units]

    # Fidelity: the traced units must reproduce the untraced facts, and
    # every count must repeat exactly across units and hash seeds.
    reference = next((unit["facts"] for unit in untraced if unit["facts"]),
                     None)
    mismatches = []
    for unit in traced:
        if unit["error"] or reference is None:
            continue
        differing = [key for key in REPEATED_FACTS
                     if unit["facts"].get(key) != reference.get(key)]
        counts = traced[0]["counts"]
        if unit["counts"] != counts:
            differing.append("per-layer counts")
        if differing:
            unit["error"] = ("traced unit differs from the untraced run in "
                             + ", ".join(differing))
            mismatches.append(unit["error"])

    ok_units = [unit for unit in traced if not unit["error"]] or traced
    totals = unit_totals(runner, ok_units)
    self_times = []
    for unit in ok_units:
        layer_s: dict[str, float] = {}
        for op in unit["ops"]:
            scale = normalise(1.0, op["probe"], runner.args.probe_ref)
            for layer, value in op["self_s"].items():
                layer_s[layer] = layer_s.get(layer, 0.0) + value * scale
        self_times.append(layer_s)

    def median_of(fn) -> float:
        return statistics.median(fn(index) for index in range(len(ok_units)))

    metrics = {}
    for layer in LAYERS:
        name = SELF_TIME_NAME.get(layer, f"{layer}.self_s")
        metrics[name] = (median_of(
            lambda i, layer=layer: self_times[i].get(layer, 0.0)), "s")
    facts = ok_units[0]["facts"] or {}
    counts = ok_units[0]["counts"]
    stats = stats_total(facts.get("stats", {}))
    parsed_mb = counts.get("xmlmodel.bytes", 0) / 1e6
    metrics["xmlmodel.mb_per_s"] = (median_of(
        lambda i: parsed_mb / self_times[i]["xmlmodel"]
        if self_times[i].get("xmlmodel") else 0.0), "MB/s")
    lookups = stats.get("phi_cache_hits", 0) + stats.get("phi_cache_misses", 0)
    comparisons = facts.get("comparisons", 0)
    metrics.update({
        "keygen.rows": (facts.get("rows", 0), "count"),
        "spill.runs_written": (facts.get("spill_files", 0), "count"),
        "spill.runs_merged": (facts.get("runs_merged", 0), "count"),
        "spill.bytes_written": (facts.get("spill_bytes", 0), "B"),
        "gk.rows_sorted": (counts.get("gk.rows_sorted", 0), "count"),
        "window.comparisons": (counts.get("window.comparisons", 0), "count"),
        "execution.shards": (counts.get("execution.shards", 0), "count"),
        "execution.redundant_comparisons": (
            stats.get("redundant_comparisons", 0), "count"),
        "similarity.fields_evaluated": (
            stats.get("fields_evaluated", 0), "count"),
        "similarity.edit_full_evals": (
            stats.get("edit_full_evals", 0), "count"),
        "similarity.edit_bounded_evals": (
            stats.get("edit_bounded_evals", 0), "count"),
        "similarity.cache_hit_ratio": (
            stats.get("phi_cache_hits", 0) / lookups if lookups else 0.0,
            "ratio"),
        "similarity.pairs_prefiltered": (
            stats.get("pairs_prefiltered", 0), "count"),
        "similarity.duplicate_ratio": (
            facts.get("confirmed", 0) / comparisons if comparisons else 0.0,
            "ratio"),
        "clusters.pairs": (counts.get("clusters.pairs", 0), "count"),
        "incremental.comparisons": (
            counts.get("incremental.comparisons", 0), "count"),
        "index.segments_written": (facts.get("index_files", 0), "count"),
        "index.bytes_written": (facts.get("index_segment_bytes", 0), "B"),
        "index.bytes_on_disk": (facts.get("index_bytes", 0), "B"),
        "store.entries_loaded": (
            counts.get("store.entries_loaded", 0), "count"),
        "store.disk_hits": (stats.get("phi_cache_disk_hits", 0), "count"),
    })
    # Host sampling is out of both the traced time and every self time.
    layer_sum = [sum(value for layer, value in self_times[i].items()
                     if layer != "engine") for i in range(len(ok_units))]
    others = [totals[i] - layer_sum[i] for i in range(len(ok_units))]
    metrics["engine.other_s"] = (statistics.median(others), "s")
    untraced_median = statistics.median(unit_totals(runner, untraced))
    metrics["trace.overhead_ratio"] = (
        statistics.median(totals) / untraced_median - 1.0, "ratio")
    problems = []
    if min(others) < -1e-6 * max(totals):
        problems.append("layer self times exceed the traced time")

    context = {
        "traced_units": len(traced),
        "untraced_units": len(untraced),
        "traced_time_s": totals,
        "sampling_s": [sum(op["sampling"] for op in unit["ops"])
                       for unit in ok_units],
        "fidelity_mismatches": mismatches,
        "problems": problems,
        "unit_errors": [unit["error"] for unit in untraced + traced
                        if unit["error"]],
        **quality(untraced + traced),
    }
    attempted, failed = tally(untraced + traced)
    return metrics, context, attempted, failed + len(problems)


def stats_total(stats_by_candidate: dict) -> dict:
    total: dict[str, int] = {}
    for stats in stats_by_candidate.values():
        for name, value in stats.items():
            if isinstance(value, (int, float)):
                total[name] = total.get(name, 0) + value
    return total


def host_facts(probe_ref: float) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "probe_ref": probe_ref}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-ref", type=float, required=True,
                        help="probe seconds on the reference host")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        spec = workloads.generate(args.workload, args.seed, work)
        spec["traces"] = os.path.join(WORK, "traces")
        os.makedirs(spec["traces"], exist_ok=True)
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        runner = Runner(args, work, spec_path)
        measure = per_layer if args.trace else end_to_end
        metrics, context, attempted, failed = measure(runner)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context.update(host=host_facts(args.probe_ref), workload=args.workload,
                   seed=args.seed, trace=args.trace,
                   resource_tracker_tracebacks=runner.tracker_tracebacks)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
