"""The ExecutionPlane: one dispatch seam for serial and shared-memory
window execution.

Two interchangeable backends run every comparison shape of the codebase
through the kernels of :mod:`repro.core.window`:

* :class:`SerialPlane` — the in-process reference.  The shared-memory
  backend is proven bit-identical to it.
* :class:`SharedMemoryPlane` — a persistent warm
  :class:`~concurrent.futures.ProcessPoolExecutor` fed through
  :mod:`multiprocessing.shared_memory`.  The plane publishes one
  segment per candidate — the document-order GK rows (interned at key
  generation), the per-key sorted index tables and the pre-pickled pair
  classifier — and ships shards as *index ranges into the shared table*
  instead of pickled row slices.  Workers attach each segment once,
  memoize the unpickled classifier (φ memo and OD caches stay warm
  across shards), and reach the read-only
  :class:`~repro.similarity.store.PersistentPhiCache` through the
  per-process shared store, refreshed against the parent's segment
  index (see ``PhiCache.__reduce__``).

``workers`` alone selects the backend (:func:`make_plane`): one worker
runs serially, two or more on the shared-memory plane.

The **bit-identity contract**: pairs and cluster sets equal the serial
run exactly; only comparison counts may rise, because shards cannot see
each other's confirmed pairs — every such re-confirmation is counted
into ``ComparisonStats.redundant_comparisons`` at merge time.

The fallback ladder lives here, once: ``workers <= 1`` → serial, table
below ``parallel_min_rows`` → serial, unpicklable classifier → warned
serial, shared-memory payloads below ``sharedMemoryMinBytes`` (or a
failed segment creation) → inline-row shards, broken process pool →
warned serial retry.  Observer events (``pass_dispatched`` /
``pass_merged`` plus the plane-level ``plane_opened`` /
``segment_published``) are emitted from the plane so every backend
produces the same stream.
"""

from __future__ import annotations

import atexit
import pickle
import struct
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import islice

from ..config.model import (DEFAULT_PARALLEL_MIN_ROWS,
                            DEFAULT_SHARED_MEMORY_MIN_BYTES)
from ..similarity import ComparisonStats
from .gk import GkRow, GkTable
from .simmeasure import PairVerdict
from .stages import BOTTOM_UP, CandidateContext, NeighborhoodOutcome
from .window import Compare, de_slide, key_pass, slide, window_start

#: Never split a pass into segments averaging fewer rows than this; a
#: tiny segment's IPC costs more than its comparisons.
MIN_SEGMENT_ROWS = 32

#: Worker-side cap on concurrently attached shared-memory segments.
SEGMENT_MEMO_LIMIT = 4


# ---------------------------------------------------------------------------
# Tasks and results (the picklable worker protocol)


@dataclass
class PassTask:
    """One shard of one key's window pass, shipped to a worker.

    ``duplicate_elimination`` selects :func:`~repro.core.window.de_slide`
    over the whole key order (equal-key runs may span any segment
    boundary, so DE passes shard per key only); otherwise the worker
    slides over the anchors ``[lo, hi)`` of the key order, prepending
    their :func:`~repro.core.window.window_start` overlap.

    Two transports share this protocol.  *Inline* shards carry their
    ``rows`` (a contiguous slice of the key-sorted list, ``lo``/``hi``
    relative to it) and the pre-pickled classifier.  *Shared-memory*
    shards carry only ``segment`` (the segment name) and absolute
    anchor bounds; the worker attaches the segment, reuses its memoized
    classifier, and derives the key order from the published sort
    index — the rows themselves never travel per shard.
    """

    candidate: str
    key_index: int
    window: int
    comparer_pickle: bytes
    duplicate_elimination: bool = False
    rows: list[GkRow] | None = None
    segment: str | None = None
    lo: int = 0
    hi: int = 0


@dataclass
class PassResult:
    """What one worker shard produced.

    ``phi_entries`` carries the exact φ scores this shard computed that
    the persistent spill (if any) had not seen yet — the parent records
    them into its own store so the end-of-run flush persists worker
    results too.  ``None`` when persistence is off.
    """

    key_index: int
    pairs: set[tuple[int, int]]
    comparisons: int
    filtered: int
    stats: ComparisonStats | None
    phi_entries: dict[tuple, float] | None = None


def _compare_of(comparer) -> Compare:
    """A shipped classifier's ``compare``; a bare callable is its own."""
    return getattr(comparer, "compare", comparer)


def _counters(comparer) -> tuple[int, dict | None]:
    """The classifier's filtered count and stats, before a shard runs."""
    stats = getattr(comparer, "stats", None)
    return (getattr(comparer, "filtered_comparisons", 0),
            stats.as_dict() if stats is not None else None)


def _shard_outcome(task, comparer, pairs: set[tuple[int, int]],
                   comparisons: int, before: tuple[int, dict | None],
                   ) -> PassResult:
    """Package one shard's deltas (stats, filters, φ spill) as a result."""
    filtered_before, stats_before = before
    stats = getattr(comparer, "stats", None)
    stats_delta = None
    if stats is not None and stats_before is not None:
        stats_delta = stats.delta(stats_before)
    phi_cache = getattr(getattr(comparer, "plan", None), "phi_cache", None)
    spill = getattr(phi_cache, "spill", None)
    phi_entries = spill.take_new() if spill is not None else None
    return PassResult(
        key_index=task.key_index, pairs=pairs, comparisons=comparisons,
        filtered=getattr(comparer, "filtered_comparisons", 0) - filtered_before,
        stats=stats_delta, phi_entries=phi_entries)


def run_pass_task(task: PassTask) -> PassResult:
    """Execute one shard (runs inside a worker process).

    Inline shards unpickle the classifier fresh per task.  Shared-memory
    shards reuse the segment's memoized classifier instead, keeping the
    φ memo and OD caches warm across shards.  Either way its counters
    are snapshotted before the kernel runs, so the reported deltas are
    exactly this shard's work.  With a persistent φ cache attached, the
    worker's read-only shared store collects the shard's new exact
    scores; they are drained here into the result as the shard's delta.
    """
    if task.segment is not None:
        state = _segment_state(task.segment)
        comparer = _segment_comparer(state)
        ordered = _segment_order(state, task.key_index)
    else:
        comparer = pickle.loads(task.comparer_pickle)
        ordered = task.rows
    before = _counters(comparer)
    compare = _compare_of(comparer)
    pairs: set[tuple[int, int]] = set()
    if task.duplicate_elimination:
        comparisons = de_slide(lambda: ordered, task.key_index, task.window,
                               compare, pairs)
    else:
        first = window_start(task.lo, task.window)
        comparisons = slide(islice(ordered, first, task.hi), task.window,
                            compare, pairs, start=task.lo - first)
    return _shard_outcome(task, comparer, pairs, comparisons, before)


def compare_pairs(pair_list: list[tuple[int, int]], row, compare: Compare,
                  pairs: set[tuple[int, int]]) -> int:
    """Classify an explicit pair list.

    ``row`` maps a pair member to its GK row; each pair is compared
    once, in list order, and confirmed ``(left eid, right eid)`` pairs
    land in ``pairs``.  Returns the comparison count.
    """
    for left, right in pair_list:
        left_row, right_row = row(left), row(right)
        if compare(left_row, right_row).is_duplicate:
            pairs.add((left_row.eid, right_row.eid))
    return len(pair_list)


@dataclass
class PairBlockTask:
    """One shard of a strategy-generated explicit pair list.

    Union-of-strategies neighborhoods (:mod:`repro.core.blocking`)
    produce irregular row subsets rather than anchor ranges, so pair
    blocks always ship inline: ``rows`` holds the distinct GK rows this
    shard's pairs reference and ``pairs`` indexes into it as
    ``(left_position, right_position)``, left carrying the lower eid.
    ``key_index`` is ``-1`` — pair blocks belong to no key pass.
    """

    candidate: str
    rows: list[GkRow]
    pairs: list[tuple[int, int]]
    comparer_pickle: bytes
    key_index: int = -1


def run_pair_block_task(task: PairBlockTask) -> PassResult:
    """Execute one pair-block shard; ships back the usual deltas."""
    comparer = pickle.loads(task.comparer_pickle)
    before = _counters(comparer)
    pairs: set[tuple[int, int]] = set()
    comparisons = compare_pairs(task.pairs, task.rows.__getitem__,
                                _compare_of(comparer), pairs)
    return _shard_outcome(task, comparer, pairs, comparisons, before)


# ---------------------------------------------------------------------------
# Shard planning


def plan_segments(row_count: int, key_count: int, workers: int,
                  segments_per_pass: int | None = None,
                  min_segment_rows: int = MIN_SEGMENT_ROWS) -> int:
    """Number of contiguous segments to split one key's pass into.

    Enough segments to keep ``workers`` busy across ``key_count``
    concurrent passes (``ceil(workers / key_count)``), but never so many
    that segments average fewer than ``min_segment_rows`` rows.  An
    explicit ``segments_per_pass`` overrides the heuristic (tests use
    this to exercise extreme splits).
    """
    if row_count <= 0:
        return 1
    if segments_per_pass is not None:
        return max(1, min(segments_per_pass, row_count))
    segments = -(-workers // max(key_count, 1))
    segments = min(segments, max(1, row_count // max(min_segment_rows, 1)))
    return max(1, min(segments, row_count))


def segment_bounds(row_count: int, segments: int) -> list[tuple[int, int]]:
    """Half-open ``[low, high)`` anchor ranges of each non-empty segment."""
    bounds = []
    for index in range(segments):
        low = row_count * index // segments
        high = row_count * (index + 1) // segments
        if low < high:
            bounds.append((low, high))
    return bounds


def build_pass_tasks(table: GkTable, window: int, key_indices: list[int],
                     duplicate_elimination: bool, workers: int,
                     comparer_pickle: bytes,
                     segments_per_pass: int | None = None,
                     segment: str | None = None) -> list[PassTask]:
    """All shards for one candidate, grouped by key in pass order.

    Without ``segment`` the shards are inline: a segment anchoring
    ``[low, high)`` ships the rows from the first in-window predecessor
    of ``low`` (:func:`~repro.core.window.window_start`) — exactly the
    rows the serial loop would consult for those anchors.  With the
    name of a published ``segment`` they carry anchor ranges into it.
    """
    tasks: list[PassTask] = []
    segments = plan_segments(len(table), len(key_indices), workers,
                             segments_per_pass)
    for key_index in key_indices:
        ordered = table.sorted_by_key(key_index) if segment is None else None
        shipped = dict(candidate=table.candidate_name, key_index=key_index,
                       window=window, segment=segment,
                       comparer_pickle=comparer_pickle if segment is None
                       else b"")
        if duplicate_elimination:
            tasks.append(PassTask(duplicate_elimination=True, rows=ordered,
                                  **shipped))
            continue
        for low, high in segment_bounds(len(table), segments):
            if segment is not None:
                tasks.append(PassTask(lo=low, hi=high, **shipped))
                continue
            first = window_start(low, window)
            tasks.append(PassTask(rows=ordered[first:high], lo=low - first,
                                  hi=high - first, **shipped))
    return tasks


# ---------------------------------------------------------------------------
# Result merging


@dataclass
class MergeOutcome:
    """The parent-side union of all shard results for one candidate."""

    pairs: set[tuple[int, int]] = field(default_factory=set)
    comparisons: int = 0
    filtered: int = 0
    redundant: int = 0
    #: ``(key_index, comparisons, redundant)`` per pass, in merge order.
    per_key: list[tuple[int, int, int]] = field(default_factory=list)
    stats: ComparisonStats | None = None
    #: Union of the shards' new persistent-φ-cache entries.
    phi_entries: dict[tuple, float] = field(default_factory=dict)


def merge_pass_results(results: list[PassResult],
                       pairs: set[tuple[int, int]] | None = None,
                       ) -> MergeOutcome:
    """Union shard pair sets and merge their stats, in shard order.

    A confirmed pair already present in the union is exactly one the
    serial pass would have skipped via ``skip_known`` — it is counted as
    redundant (and recorded in the merged stats) rather than added twice.
    """
    outcome = MergeOutcome(pairs=pairs if pairs is not None else set())
    key_order: dict[int, int] = {}
    per_key: dict[int, list[int]] = {}
    for result in results:
        overlap = len(result.pairs & outcome.pairs)
        outcome.pairs |= result.pairs
        outcome.comparisons += result.comparisons
        outcome.filtered += result.filtered
        outcome.redundant += overlap
        key_order.setdefault(result.key_index, len(key_order))
        totals = per_key.setdefault(result.key_index, [0, 0])
        totals[0] += result.comparisons
        totals[1] += overlap
        if result.stats is not None:
            if outcome.stats is None:
                outcome.stats = ComparisonStats()
            outcome.stats.merge(result.stats)
        if result.phi_entries:
            outcome.phi_entries.update(result.phi_entries)
    if outcome.stats is not None:
        outcome.stats.redundant_comparisons += outcome.redundant
    outcome.per_key = [
        (key_index, per_key[key_index][0], per_key[key_index][1])
        for key_index in sorted(key_order, key=key_order.get)]
    return outcome


# ---------------------------------------------------------------------------
# Persistent warm pools


_EXECUTORS: dict[int, ProcessPoolExecutor] = {}


def shared_executor(workers: int) -> ProcessPoolExecutor:
    """A lazily created, process-wide executor for ``workers`` workers.

    Pools are expensive to start; detections, sweeps, and property tests
    reuse one pool per worker count for the life of the process.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    executor = _EXECUTORS.get(workers)
    if executor is None:
        executor = ProcessPoolExecutor(max_workers=workers)
        _EXECUTORS[workers] = executor
    return executor


def discard_executor(workers: int) -> None:
    """Drop (and shut down) the shared pool for ``workers``, if any."""
    executor = _EXECUTORS.pop(workers, None)
    if executor is not None:
        executor.shutdown(wait=False, cancel_futures=True)


def shutdown_executors() -> None:
    """Shut down every shared pool (registered to run at exit)."""
    while _EXECUTORS:
        _, executor = _EXECUTORS.popitem()
        executor.shutdown()


atexit.register(shutdown_executors)


# ---------------------------------------------------------------------------
# Shared-memory segments (parent side)


def build_segment_payload(table: GkTable, key_indices: list[int],
                          comparer_pickle: bytes) -> dict:
    """The per-candidate bundle one shared segment publishes.

    Contains the document-order rows, the per-key sort index (row
    *positions*, so shards can address anchors without shipping rows)
    and the pre-pickled classifier.  The rows arrive interned: key
    generation pools every distinct key/OD string of a run into one
    object, index loads decode through the index's string pool, and a
    spilled table reads its runs through one shared memo.  The pickle
    memo is identity-based, so each distinct string serializes once —
    the segment's interned string pool.
    """
    rows = list(table)
    orders: dict[int, list[int]] = {}
    for key_index in key_indices:
        orders[key_index] = sorted(
            range(len(rows)),
            key=lambda i: (rows[i].keys[key_index], rows[i].eid))
    return {
        "candidate": table.candidate_name,
        "rows": rows,
        "orders": orders,
        "comparer": comparer_pickle,
    }


def publish_segment(blob: bytes):
    """Create one shared-memory segment holding ``blob``.

    Layout: an 8-byte big-endian length header followed by the pickled
    payload.  Returns the live
    :class:`~multiprocessing.shared_memory.SharedMemory` — the caller
    owns it and must ``close()``/``unlink()`` after the candidate merge.
    """
    from multiprocessing import shared_memory
    segment = shared_memory.SharedMemory(create=True, size=len(blob) + 8)
    segment.buf[:8] = struct.pack(">Q", len(blob))
    segment.buf[8:8 + len(blob)] = blob
    return segment


def release_segment(segment) -> None:
    """Close and unlink one published segment, swallowing teardown races."""
    try:
        segment.close()
    except OSError:
        pass
    try:
        segment.unlink()
    except (OSError, FileNotFoundError):
        pass


# ---------------------------------------------------------------------------
# Shared-memory segments (worker side)


#: name → {"payload": dict, "comparer": obj|None,
#:         "ordered": {key_index: [GkRow]}} — bounded per-process memo.
_ATTACHED: OrderedDict[str, dict] = OrderedDict()


def _attach_segment(name: str) -> dict:
    """Read one published segment's payload (attach, copy out, close)."""
    from multiprocessing import shared_memory
    segment = shared_memory.SharedMemory(name=name)
    try:
        # The parent owns the segment's lifetime; unregister the attach
        # so this process's resource tracker neither unlinks it early
        # nor warns about a leak at exit.
        try:
            from multiprocessing import resource_tracker
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
        (nbytes,) = struct.unpack(">Q", bytes(segment.buf[:8]))
        payload = pickle.loads(bytes(segment.buf[8:8 + nbytes]))
    finally:
        segment.close()
    return payload


def _segment_state(name: str) -> dict:
    state = _ATTACHED.get(name)
    if state is None:
        state = {"payload": _attach_segment(name), "comparer": None,
                 "ordered": {}}
        _ATTACHED[name] = state
        while len(_ATTACHED) > SEGMENT_MEMO_LIMIT:
            _ATTACHED.popitem(last=False)
    else:
        _ATTACHED.move_to_end(name)
    return state


def _segment_comparer(state: dict):
    """The segment's memoized classifier (unpickled once per process).

    Keeping one classifier per segment keeps its φ memo cache and OD
    cache warm across every shard of the candidate; per-shard counter
    deltas stay exact because :func:`run_pass_task` snapshots them
    around each kernel run.
    """
    comparer = state["comparer"]
    if comparer is None:
        comparer = pickle.loads(state["payload"]["comparer"])
        state["comparer"] = comparer
    return comparer


def _segment_order(state: dict, key_index: int) -> list[GkRow]:
    """The segment's rows in one key's published sort order (memoized)."""
    ordered = state["ordered"].get(key_index)
    if ordered is None:
        rows = state["payload"]["rows"]
        ordered = [rows[i] for i in state["payload"]["orders"][key_index]]
        state["ordered"][key_index] = ordered
    return ordered


# ---------------------------------------------------------------------------
# Relational shards (the classical SNM path through the same seam)


#: Relational matchers answer with booleans; the window kernel reads
#: verdicts.
_MATCHED = PairVerdict(1.0, None, 1.0, True)
_UNMATCHED = PairVerdict(0.0, None, 0.0, False)


def match_classifier(matcher) -> Compare:
    """A relational matcher as a pair classifier (booleans as verdicts)."""
    def compare(left, right):
        return _MATCHED if matcher(left, right) else _UNMATCHED
    return compare


@dataclass
class RelationalShard:
    """One anchor-range shard of a relational window pass.

    ``records`` is a slice of the key-sorted record list whose first
    ``start`` entries are overlap.  The relational pass has no
    ``skip_known`` optimization, so sharded comparison counts are
    *exactly* equal to the serial pass — not merely an upper bound.
    """

    records: list
    start: int
    window: int
    matcher_pickle: bytes


def run_relational_shard(shard: RelationalShard) -> tuple[set, int]:
    """Execute one relational shard; returns ``(pairs, comparisons)``."""
    pairs: set[tuple[int, int]] = set()
    compare = match_classifier(pickle.loads(shard.matcher_pickle))
    comparisons = slide(shard.records, shard.window, compare, pairs,
                        start=shard.start, skip_known=False)
    return pairs, comparisons


# ---------------------------------------------------------------------------
# The plane abstraction


class ExecutionPlane:
    """Common surface of the execution backends.

    One plane instance serves one detection run (the engine builds it
    from the config via :func:`make_plane`); :meth:`open_run` announces
    it to the observers and :meth:`finish_run` releases any resources a
    non-persistent backend holds.  Strategies call :meth:`multipass`
    (the fixed/DE multi-pass window), :meth:`pairs_pass` (explicit pair
    lists) or :meth:`relational_pass` (the classical SNM).  This base
    runs them in-process.
    """

    name = "serial"
    parallel = False

    def __init__(self, workers: int = 1):
        self.workers = workers

    # -- lifecycle ------------------------------------------------------

    def open_run(self, emit) -> None:
        """Announce the plane to this run's observers."""
        if emit is not None:
            plane_opened = getattr(emit, "plane_opened", None)
            if plane_opened is not None:
                plane_opened(self.name, self.workers)

    def finish_run(self) -> None:
        """Release per-run resources (non-persistent pools)."""

    # -- the comparison shapes ------------------------------------------

    def multipass(self, ctx, duplicate_elimination: bool = False,
                  ) -> NeighborhoodOutcome:
        """One window (or DE) pass per selected key, serially."""
        total = 0
        for key_index in ctx.key_indices:
            ctx.pass_started(key_index)
            ordered = ctx.table.sorted_by_key(key_index)
            comparisons = key_pass(lambda: ordered, key_index, ctx.window,
                                   ctx.compare, ctx.pairs,
                                   duplicate_elimination)
            ctx.pass_finished(key_index, comparisons)
            total += comparisons
        return NeighborhoodOutcome(total)

    def relational_pass(self, records: list, window: int, matcher,
                        pairs: set[tuple[int, int]]) -> int:
        """One classical-SNM window pass over key-sorted records."""
        return slide(records, window, match_classifier(matcher), pairs,
                     skip_known=False)

    def pairs_pass(self, ctx, pair_list: list[tuple[int, int]],
                   ) -> NeighborhoodOutcome:
        """Compare an explicit candidate-pair list (union strategies).

        ``pair_list`` holds normalized ``(low_eid, high_eid)`` pairs,
        already deduplicated by the caller; each is compared exactly
        once, in list order, and confirmed duplicates land in
        ``ctx.pairs`` — what :mod:`repro.core.blocking` generates.
        """
        return NeighborhoodOutcome(compare_pairs(
            pair_list, ctx.table.row, ctx.compare, ctx.pairs))


class SerialPlane(ExecutionPlane):
    """The in-process reference backend (the bit-identity baseline)."""

    def __init__(self):
        super().__init__(workers=1)


class SharedMemoryPlane(ExecutionPlane):
    """Shard execution on a persistent process pool over shared memory.

    Per candidate, the plane publishes one segment (see
    :func:`build_segment_payload`) and ships shards as anchor ranges
    into the published sort index.  Payloads below ``min_bytes`` — and
    any candidate whose segment cannot be created — fall back to
    inline-row shards on the same pool, so shared-memory failures never
    change results, only transport.
    """

    name = "shm"
    parallel = True

    def __init__(self, workers: int = 2, min_rows: int | None = None,
                 segments_per_pass: int | None = None,
                 executor: Executor | None = None, persist: bool = True,
                 min_bytes: int | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        super().__init__(workers=workers)
        self.min_rows = min_rows
        self.segments_per_pass = segments_per_pass
        self.executor = executor
        self.persist = persist
        self.min_bytes = (min_bytes if min_bytes is not None
                          else DEFAULT_SHARED_MEMORY_MIN_BYTES)
        self._own_pool: Executor | None = None
        self._segments: list = []
        self._serial = SerialPlane()

    # -- pool lifecycle -------------------------------------------------

    def _pool(self) -> Executor:
        if self.executor is not None:
            return self.executor
        if self.persist:
            return shared_executor(self.workers)
        if self._own_pool is None:
            self._own_pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._own_pool

    def _gather(self, futures, warn, what: str) -> list | None:
        """The futures' results, or ``None`` after a broken pool."""
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as error:
            if self.executor is None:
                if self.persist:
                    discard_executor(self.workers)
                elif self._own_pool is not None:
                    self._own_pool.shutdown(wait=False, cancel_futures=True)
                    self._own_pool = None
            if warn is not None:
                warn(f"{what}: worker pool broke ({error}); retrying "
                     f"serially")
            return None

    def _release_shards(self) -> None:
        while self._segments:
            release_segment(self._segments.pop())

    def finish_run(self) -> None:
        self._release_shards()
        if self._own_pool is not None:
            self._own_pool.shutdown()
            self._own_pool = None

    # -- the shared ladder ----------------------------------------------

    def _resolved_min_rows(self, config) -> int:
        if self.min_rows is not None:
            return self.min_rows
        return getattr(config, "parallel_min_rows",
                       DEFAULT_PARALLEL_MIN_ROWS)

    @staticmethod
    def _comparer_pickle(ctx, what: str) -> bytes | None:
        """The pickled classifier, or ``None`` (warned) when it cannot go."""
        comparer = ctx.decider if ctx.decider is not None else ctx.compare
        try:
            return pickle.dumps(comparer, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:  # pickle raises a zoo of types
            ctx.warning(f"{what}: pair classifier is not picklable "
                        f"({error}); running serially")
            return None

    @staticmethod
    def _merged(ctx, results: list[PassResult]) -> MergeOutcome:
        """Union the shard results into ``ctx`` and the parent decider."""
        outcome = merge_pass_results(results, pairs=ctx.pairs)
        accepted = 0
        if outcome.phi_entries:
            # Workers cannot write the store; their new exact scores are
            # recorded here so the engine's end-of-run flush keeps them.
            # ``record_many`` dedupes against the parent's segment index
            # and pending set — entries several workers computed, or the
            # parent already knows, are accepted exactly once.
            parent_cache = getattr(getattr(ctx.decider, "plan", None),
                                   "phi_cache", None)
            parent_spill = getattr(parent_cache, "spill", None)
            if parent_spill is not None:
                accepted = parent_spill.record_many(outcome.phi_entries)
        if outcome.stats is not None:
            # The honest spill counter: what the parent actually queued
            # for flushing, not the sum of what each worker believed it
            # spilled into its read-only copy.
            outcome.stats.phi_cache_spilled = accepted
            parent_stats = getattr(ctx.decider, "stats", None)
            if parent_stats is not None:
                parent_stats.merge(outcome.stats)
        return outcome

    # -- the multipass ladder -------------------------------------------

    def _shards(self, ctx, comparer_pickle: bytes,
                duplicate_elimination: bool) -> list[PassTask]:
        payload = build_segment_payload(
            ctx.table, ctx.key_indices, comparer_pickle)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        segment = None
        if len(blob) >= self.min_bytes:
            try:
                segment = publish_segment(blob)
            except (OSError, ValueError):
                segment = None  # no /dev/shm, quota, …: ship inline
        if segment is not None:
            self._segments.append(segment)
            ctx.segment_published(segment.name, segment.size)
        return build_pass_tasks(
            ctx.table, ctx.window, ctx.key_indices, duplicate_elimination,
            self.workers, comparer_pickle,
            segments_per_pass=self.segments_per_pass,
            segment=segment.name if segment is not None else None)

    def multipass(self, ctx, duplicate_elimination: bool = False,
                  ) -> NeighborhoodOutcome:
        if (self.workers <= 1 or not ctx.key_indices
                or len(ctx.table) < self._resolved_min_rows(ctx.config)):
            return self._serial.multipass(ctx, duplicate_elimination)
        comparer_pickle = self._comparer_pickle(ctx, "parallel neighborhood")
        if comparer_pickle is None:
            return self._serial.multipass(ctx, duplicate_elimination)
        try:
            tasks = self._shards(ctx, comparer_pickle, duplicate_elimination)
            pool = self._pool()
            futures = []
            for key_index in ctx.key_indices:
                ctx.pass_started(key_index)
                key_tasks = [task for task in tasks
                             if task.key_index == key_index]
                futures.extend(pool.submit(run_pass_task, task)
                               for task in key_tasks)
                ctx.pass_dispatched(key_index, len(key_tasks))
            results = self._gather(futures, ctx.warning,
                                   "parallel neighborhood")
        finally:
            self._release_shards()
        if results is None:
            return self._serial.multipass(ctx, duplicate_elimination)
        outcome = self._merged(ctx, results)
        for key_index, comparisons, redundant in outcome.per_key:
            ctx.pass_merged(key_index, comparisons, redundant)
            ctx.pass_finished(key_index, comparisons)
        return NeighborhoodOutcome(outcome.comparisons,
                                   filtered=outcome.filtered)

    # -- the relational ladder ------------------------------------------

    def relational_pass(self, records, window, matcher, pairs):
        if self.workers <= 1 or len(records) < self._resolved_min_rows(None):
            return super().relational_pass(records, window, matcher, pairs)
        try:
            matcher_pickle = pickle.dumps(matcher,
                                          protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return super().relational_pass(records, window, matcher, pairs)
        segments = plan_segments(len(records), 1, self.workers,
                                 self.segments_per_pass)
        shards = []
        for low, high in segment_bounds(len(records), segments):
            first = window_start(low, window)
            shards.append(RelationalShard(
                records=records[first:high], start=low - first,
                window=window, matcher_pickle=matcher_pickle))
        pool = self._pool()
        results = self._gather([pool.submit(run_relational_shard, shard)
                                for shard in shards], None,
                               "parallel relational pass")
        if results is None:
            return super().relational_pass(records, window, matcher, pairs)
        comparisons = 0
        for shard_pairs, shard_comparisons in results:
            pairs |= shard_pairs
            comparisons += shard_comparisons
        return comparisons

    # -- the pair-block ladder ------------------------------------------

    def pairs_pass(self, ctx, pair_list):
        if (self.workers <= 1
                or len(pair_list) < self._resolved_min_rows(ctx.config)):
            return super().pairs_pass(ctx, pair_list)
        comparer_pickle = self._comparer_pickle(ctx, "parallel pair block")
        if comparer_pickle is None:
            return super().pairs_pass(ctx, pair_list)
        segments = plan_segments(len(pair_list), 1, self.workers,
                                 self.segments_per_pass)
        row = ctx.table.row
        tasks = []
        for low, high in segment_bounds(len(pair_list), segments):
            positions: dict[int, int] = {}
            rows: list[GkRow] = []
            indices: list[tuple[int, int]] = []
            for left, right in pair_list[low:high]:
                for eid in (left, right):
                    if eid not in positions:
                        positions[eid] = len(rows)
                        rows.append(row(eid))
                indices.append((positions[left], positions[right]))
            tasks.append(PairBlockTask(
                candidate=ctx.spec.name, rows=rows, pairs=indices,
                comparer_pickle=comparer_pickle))
        pool = self._pool()
        results = self._gather([pool.submit(run_pair_block_task, task)
                                for task in tasks], ctx.warning,
                               "parallel pair block")
        if results is None:
            return super().pairs_pass(ctx, pair_list)
        outcome = self._merged(ctx, results)
        return NeighborhoodOutcome(outcome.comparisons,
                                   filtered=outcome.filtered)


# ---------------------------------------------------------------------------
# Plane selection and the sharded window stage


def make_plane(config, workers: int | None = None) -> ExecutionPlane:
    """Build the plane for one run: serial for one worker, shared-memory
    for two or more (``workers`` defaults to ``config.workers``)."""
    if workers is None:
        workers = getattr(config, "workers", 1)
    if workers <= 1:
        return SerialPlane()
    return SharedMemoryPlane(
        workers=workers,
        persist=getattr(config, "worker_pool_persist", True),
        min_bytes=getattr(config, "shared_memory_min_bytes",
                          DEFAULT_SHARED_MEMORY_MIN_BYTES))


class ParallelWindowStrategy:
    """Sharded fixed/DE multi-pass window (drop-in for the serial one).

    A thin wrapper binding the engine's neighborhood stage to a
    shared-memory execution plane.  Identical pairs and clusters to
    :class:`~repro.core.stages.FixedWindowStrategy` — only wall-clock
    time and comparison counts differ; the fallback ladder (one worker,
    small tables, unpicklable classifiers, broken pools) lives in the
    plane.  When the engine already opened a compatible shared-memory
    plane for the run, the strategy rides it — pool, published segments
    and all — instead of opening a second one.
    """

    traversal = BOTTOM_UP

    def __init__(self, workers: int | None = None,
                 duplicate_elimination: bool = False,
                 min_rows: int | None = None,
                 segments_per_pass: int | None = None,
                 executor: Executor | None = None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.duplicate_elimination = duplicate_elimination
        self.min_rows = min_rows
        self.segments_per_pass = segments_per_pass
        self.executor = executor
        self._planes: dict[int, SharedMemoryPlane] = {}

    def _plane_for(self, ctx: CandidateContext,
                   workers: int) -> SharedMemoryPlane:
        if (isinstance(ctx.plane, SharedMemoryPlane)
                and ctx.plane.workers == workers
                and self.min_rows is None
                and self.segments_per_pass is None
                and self.executor is None):
            return ctx.plane
        plane = self._planes.get(workers)
        if plane is None:
            plane = SharedMemoryPlane(
                workers=workers, min_rows=self.min_rows,
                segments_per_pass=self.segments_per_pass,
                executor=self.executor)
            self._planes[workers] = plane
        return plane

    def find_pairs(self, ctx: CandidateContext) -> NeighborhoodOutcome:
        workers = (self.workers if self.workers is not None
                   else getattr(ctx.config, "workers", 1))
        return self._plane_for(ctx, max(workers, 1)).multipass(
            ctx, duplicate_elimination=self.duplicate_elimination)
