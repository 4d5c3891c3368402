"""Spans around each layer's public entry point (traced runs only).

The traced run wraps the stages it hands to the engine
(``engine.key_source``, ``engine.neighborhood``, ``engine.decision``,
``engine.closure``) and, at class level, ``GkTable.sorted_by_key`` and the
index and φ-store methods.  Nothing inside ``src/`` changes.

A span is ``(id, layer, start, end, parent id)``.  Spans stay in memory and
are written once, when the measuring process ends.  A layer's self time is
its span's duration minus the time its child spans cover; the root span of
each operation is named ``engine``, so its self time is the engine's own
time outside every measured layer.  Counts are taken at the same
boundaries, from return values and from objects, never from timers.
"""

from __future__ import annotations

import gzip
import json
from contextlib import contextmanager
from time import perf_counter

#: Stage classes whose entry point belongs to another layer than the
#: default ``keygen`` (key sources) or ``window`` (neighborhoods).
LAYER_OF_STAGE = {
    "SpillingKeySource": "spill",
    "ParallelWindowStrategy": "execution",
    "IncrementalNeighborhood": "incremental",
}


class Tracer:
    """Nested spans with self times, plus counters, per operation."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []

    def call(self, layer: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [len(self.spans) + len(stack), 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[layer] = (self.self_s.get(layer, 0.0)
                                  + duration - frame[1])
            if parent is not None:
                parent[1] += duration
            self.spans.append((frame[0], layer, start, end,
                               parent[0] if parent is not None else -1))

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` of host sampling out of the open span's self
        time (the measured wall leaves them out too)."""
        if self._stack:
            self._stack[-1][1] += seconds

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def take_self(self) -> dict[str, float]:
        """Self times per layer since the last call."""
        taken, self.self_s = self.self_s, {}
        return taken

    def take_counts(self) -> dict[str, int]:
        """Counts since the last call."""
        taken, self.counts = self.counts, {}
        return taken

    def reset(self) -> None:
        """Forget everything recorded so far (after a warm-up)."""
        self.spans, self.self_s, self.counts = [], {}, {}

    def write(self, path: str) -> None:
        """Write every span recorded so far as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _Traced:
    """Forward every attribute to the wrapped object; time some methods.

    The engine duck-types its stages (``attach_run_context``,
    ``restore_spilled``, ``attach_phi_spill``, ``traversal``,
    ``demote_inconsistent``, ``stats``, ...), so everything not timed
    here must reach the wrapped object unchanged, reads and writes alike.
    """

    def __init__(self, inner, tracer: Tracer, timed: dict):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_timed", timed)

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if name not in self._timed:
            return value
        layer, after = self._timed[name]
        tracer = self._tracer

        def timed(*args, **kwargs):
            result = tracer.call(layer, value, *args, **kwargs)
            if after is not None:
                after(tracer, result, args)
            return result
        return timed

    def __setattr__(self, name, value):
        setattr(self._inner, name, value)


def _count_comparisons(layer: str):
    def after(tracer, outcome, args):
        tracer.count(f"{layer}.comparisons", outcome.comparisons)
    return after


def _count_closure_pairs(tracer, cluster_set, args):
    tracer.count("clusters.pairs", len(args[1]))


class _TracedDecisions(_Traced):
    """A decision policy whose deciders time ``compare``/``compare_block``."""

    def decider(self, *args, **kwargs):
        decider = self._inner.decider(*args, **kwargs)
        return _Traced(decider, self._tracer, {
            "compare": ("similarity", None),
            "compare_block": ("similarity", None)})


def instrument(engine, tracer: Tracer) -> None:
    """Swap ``engine``'s stages for span-recording wrappers.

    On the shared-memory plane the decider is pickled into the workers,
    and a wrapped ``compare`` cannot be pickled: the plane would fall back
    to serial without a word.  There the decider stays unwrapped and the
    comparisons fall inside the ``execution`` span.
    """
    key_layer = LAYER_OF_STAGE.get(type(engine.key_source).__name__,
                                   "keygen")
    engine.key_source = _Traced(engine.key_source, tracer,
                                {"generate": (key_layer, None)})
    window_layer = LAYER_OF_STAGE.get(type(engine.neighborhood).__name__,
                                      "window")
    engine.neighborhood = _Traced(engine.neighborhood, tracer, {
        "find_pairs": (window_layer, _count_comparisons(window_layer))})
    engine.closure = _Traced(engine.closure, tracer,
                             {"close": ("clusters", _count_closure_pairs)})
    if window_layer != "execution":
        engine.decision = _TracedDecisions(engine.decision, tracer, {})


@contextmanager
def class_spans(tracer: Tracer, pool=None):
    """Time the class-level entry points while the block runs.

    ``pool`` is the shared-memory worker pool, if any: its ``submit`` is
    counted as ``execution.shards``.
    """
    from repro.core.gk import GkTable
    from repro.core.index import DetectionIndex
    from repro.similarity.store import PersistentPhiCache

    def rows_sorted(tracer, rows, args):
        tracer.count("gk.rows_sorted", len(rows))

    def entries_loaded(tracer, store, args):
        tracer.count("store.entries_loaded", len(store))

    targets = [
        (GkTable, "sorted_by_key", "gk", rows_sorted),
        (DetectionIndex, "commit_session", "index", None),
        (DetectionIndex, "commit_candidate", "index", None),
        (DetectionIndex, "save_spill", "index", None),
        (PersistentPhiCache, "open", "store", entries_loaded),
        (PersistentPhiCache, "flush", "store", None),
    ]
    originals = []
    for cls, name, layer, after in targets:
        original = cls.__dict__[name]
        originals.append((cls, name, original))

        def timed(self, *args, _original=original, _layer=layer,
                  _after=after, **kwargs):
            result = tracer.call(_layer, _original, self, *args, **kwargs)
            if _after is not None:
                _after(tracer, result, args)
            return result
        setattr(cls, name, timed)
    if pool is not None:
        submit = pool.submit

        def counted_submit(*args, **kwargs):
            tracer.count("execution.shards")
            return submit(*args, **kwargs)
        pool.submit = counted_submit
    try:
        yield
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)
        if pool is not None:
            del pool.submit
