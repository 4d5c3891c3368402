"""One measuring process of the benchmark; ``run.py`` starts these.

    python3 perfbench/phase.py setup  SPEC OUT
    python3 perfbench/phase.py rss    SPEC OUT
    python3 perfbench/phase.py timed  SPEC OUT SECONDS
    python3 perfbench/phase.py traced SPEC OUT SECONDS

``SPEC`` is the corpus spec ``run.py`` wrote; the result goes to ``OUT`` as
JSON.  Times are raw wall seconds with the mean host probe sample taken
while they ran and the seconds sampling took in them (see
``hostprobe.py``); ``run.py`` normalises.  ``src/`` must be on
``PYTHONPATH``.

* ``setup`` times, in this fresh interpreter, ``import repro``, loading the
  config document and constructing the detector or session (plus the
  worker pool on the shared-memory workload).
* ``rss`` runs set-up plus one repetition and reports its own peak
  resident set (and the pool workers' ``ru_maxrss`` once they have
  exited).
* ``timed`` and ``traced`` run a warm-up and then the closed loop for
  ``SECONDS``; ``traced`` records spans around every layer.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

from hostprobe import HostSampler


def measure_setup(spec: dict) -> dict:
    with HostSampler() as sampler:
        start = perf_counter()
        import workloads
        workload = workloads.load(spec)
        workload.start()
        built = workload.build()
        wall = perf_counter() - start
    workload.cleanup(built)
    workload.stop()
    return measured(wall, sampler)


def measured(wall: float, sampler: HostSampler) -> dict:
    """``wall`` with the mean sample and the time sampling took in it."""
    probe, sampling = sampler.take()
    return {"wall": wall, "probe": probe, "sampling": sampling}


def measure_rss(spec: dict) -> dict:
    import workloads
    workload = workloads.load(spec)
    workload.start()
    built = workload.build()
    for args in workload.operations():
        workload.operation(built, *args)
    self_kb = peak_rss_kb()
    workload.cleanup(built)
    workload.stop()
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"self_kb": self_kb, "children_kb": children_kb}


def peak_rss_kb() -> int:
    """This process's own peak resident set in KiB (``VmHWM``).

    Not ``ru_maxrss``: at ``exec`` Linux keeps the larger of the new
    image's peak and the spawning process's resident set, so a child of
    the orchestrator would report the orchestrator's corpus-sized
    footprint.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def measure_loop(spec: dict, seconds: float, traced: bool) -> dict:
    """Warm up, then operate for ``seconds``; one record per unit.

    A unit is one detection on the read workloads and one whole session
    of batches on the incremental workload.  Each unit records its
    operations (wall seconds, mean host probe sample, self times when
    traced), the facts the output checks need, and the error that
    failed it.
    """
    import spans
    import workloads
    tracer = spans.Tracer() if traced else None
    workload = workloads.load(spec, tracer)
    workload.start()
    workload.prepare()
    warm = workload.build()
    for args in workload.operations(warmup=True):
        workload.operation(warm, *args)
    workload.cleanup(warm)
    del warm
    gc.collect()
    if traced:
        tracer.reset()

    units = []
    sampler = HostSampler(tracer.exclude if traced else None)
    with spans.class_spans(tracer, workload.pool) if traced \
            else nullcontext():
        deadline = perf_counter() + seconds
        unit_s = 0.0
        # A unit starts only while at least half of it fits before the
        # deadline, so a run overruns ``seconds`` by at most half a unit.
        while (len(units) < workload.min_units
               or perf_counter() + unit_s / 2 < deadline):
            started = perf_counter()
            built = workload.build()
            if traced:
                spans.instrument(built.engine, tracer)
            units.append(_run_unit(workload, built, tracer, sampler))
            workload.cleanup(built)
            del built
            gc.collect()
            unit_s = perf_counter() - started
    workload.stop()
    if traced:
        tracer.write(os.path.join(
            spec["traces"], f"{spec['workload']}-seed{spec['seed']}"
            f"-hash{os.environ.get('PYTHONHASHSEED', 'random')}.jsonl.gz"))
    return {"units": units}


def _run_unit(workload, built, tracer, sampler) -> dict:
    records = []
    error = None
    result = None
    for args in workload.operations():
        start = perf_counter()
        with sampler:
            try:
                if tracer is None:
                    result = workload.operation(built, *args)
                else:
                    result = tracer.call("engine", workload.operation,
                                         built, *args)
            except Exception:  # an operation that raises counts as failed
                error = traceback.format_exc()
        record = measured(perf_counter() - start, sampler)
        if tracer is not None:
            record["self_s"] = tracer.take_self()
        records.append(record)
        if error is not None:
            print(error, file=sys.stderr)
            break
    facts = None
    if error is None:
        try:
            facts = workload.facts(built, result)
            error = workload.check(facts)
        except Exception:
            error = traceback.format_exc()
            print(error, file=sys.stderr)
    unit = {"ops": records, "facts": facts, "error": error}
    if tracer is not None:
        unit["counts"] = tracer.take_counts()
    return unit


def main(argv: list[str]) -> int:
    phase, spec_path, out_path = argv[1:4]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    if phase == "setup":
        result = measure_setup(spec)
    elif phase == "rss":
        result = measure_rss(spec)
    elif phase in ("timed", "traced"):
        result = measure_loop(spec, float(argv[4]), phase == "traced")
    else:
        print(f"unknown phase {phase!r}", file=sys.stderr)
        return 2
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
