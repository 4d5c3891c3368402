"""The sliding-window kernel of the duplicate-detection phase.

SXNM's detection phase is one loop (paper Sec. 3.4): sort the GK rows by
a key and compare each row with its ``window - 1`` predecessors in key
order.  This module is the only code that walks a window:

* :func:`slide` — one sliding loop over any iterable of rows, holding a
  deque of the last ``window - 1``: an in-memory sorted list, a shard
  slice whose first ``start`` rows serve only as predecessors, a merged
  run stream read once from disk, or the neighborhood of an incremental
  batch (``fresh``: a pair whose members both predate the batch is
  skipped).  Adaptive windows plug in their reach rule (``reach``).
* :func:`de_slide` — the DE-SNM variant (Sec. 5): each run of equal
  non-empty keys in a key-sorted, re-playable source is compared against
  the run's first row, then :func:`slide` runs over one representative
  per run plus every empty-key row.

Every comparison goes through one per-pair classifier,
``compare(left, right)``, which returns a verdict: a decider's
``compare`` or a wrapper around it (observer events, incremental
recording, relational matchers).

Rows need an ``eid``; verdicts need an ``is_duplicate``.  Confirmed
pairs are added to ``pairs`` as ``(smaller eid, larger eid)``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Container, Iterable, Sequence
from itertools import islice, repeat

from ..similarity import filtered_edit_similarity, levenshtein_similarity
from .gk import GkRow, GkTable
from .simmeasure import PairVerdict

#: Per-pair classifier: one verdict for one pair of rows.
Compare = Callable[[GkRow, GkRow], PairVerdict]

#: Reach rule: how many of the nearest predecessors in ``recent`` the
#: arriving row is compared with.
Reach = Callable[[Sequence[GkRow], GkRow], int]


def window_start(index: int, window: int) -> int:
    """First in-window predecessor index of the anchor at ``index``.

    The overlap-shard planners use it to decide how many predecessor
    rows a segment anchoring from ``index`` must prepend (passed to
    :func:`slide` as ``start``), keeping the sharded segments aligned
    with the serial window.
    """
    return max(0, index - window + 1)


def _compare(candidates, compare: Compare, pairs: set[tuple[int, int]],
             skip_known: bool, fresh: Container[int] | None) -> int:
    """Classify the unskipped pairs of ``candidates`` one by one.

    With ``fresh``, a pair with neither member in it is skipped and each
    pair reaches ``compare`` lower eid first — the order incremental
    sessions have always compared in.  Returns the comparison count.
    """
    comparisons = 0
    for left, right in candidates:
        if fresh is not None:
            if left.eid not in fresh and right.eid not in fresh:
                continue
            if right.eid < left.eid:
                left, right = right, left
        pair = ((left.eid, right.eid) if left.eid < right.eid
                else (right.eid, left.eid))
        if skip_known and pair in pairs:
            continue
        comparisons += 1
        if compare(left, right).is_duplicate:
            pairs.add(pair)
    return comparisons


def slide(rows: Iterable[GkRow], window: int, compare: Compare,
          pairs: set[tuple[int, int]], start: int = 0,
          skip_known: bool = True, fresh: Container[int] | None = None,
          reach: Reach | None = None) -> int:
    """One sliding-window pass over ``rows``; returns the comparison count.

    ``rows`` is any key-ordered iterable, read once.  Each row from
    position ``start`` on is compared with the up to ``window - 1`` rows
    before it, oldest first; the first ``start`` rows serve only as
    predecessors.  Because each in-window pair is anchored by exactly
    one row (the later one), contiguous segments that each prepend
    their :func:`window_start` overlap cover every adjacency of the
    serial pass exactly once.

    With ``skip_known`` (default) pairs already in ``pairs`` are not
    re-compared — the multi-pass method unions pair sets, so
    re-confirming is pure waste.  ``fresh`` adds the incremental skip
    rule (see :func:`_compare`); ``reach`` limits each row to its
    nearest ``reach(recent, row)`` predecessors.
    """
    if window < 2:
        raise ValueError("window size must be >= 2")
    comparisons = 0
    recent: deque[GkRow] = deque(maxlen=window - 1)
    for position, row in enumerate(rows):
        if position >= start and recent:
            others = recent
            if reach is not None:
                others = islice(recent, len(recent) - reach(recent, row),
                                None)
            comparisons += _compare(zip(others, repeat(row)), compare,
                                    pairs, skip_known, fresh)
        recent.append(row)
    return comparisons


def _runs(rows: Iterable[GkRow], key_index: int):
    """Runs of equal non-empty keys in key order (empty keys skipped)."""
    run: list[GkRow] = []
    for row in rows:
        key = row.keys[key_index]
        if not key:
            continue
        if run and key != run[0].keys[key_index]:
            yield run
            run = []
        run.append(row)
    if run:
        yield run


def _representatives(rows: Iterable[GkRow], key_index: int):
    """Every empty-key row plus the first row of each equal-key run."""
    previous = None
    for row in rows:
        key = row.keys[key_index]
        if not key:
            yield row
        elif key != previous:
            previous = key
            yield row


def de_slide(replay: Callable[[], Iterable[GkRow]], key_index: int,
             window: int, compare: Compare,
             pairs: set[tuple[int, int]]) -> int:
    """Duplicate-elimination pass (DE-SNM idea, paper Sec. 5).

    ``replay`` returns a fresh ``(key, eid)``-ordered iterable each call;
    the pass reads it twice.  First every member of a run of equal
    non-empty keys is compared against the run's first row (equal keys
    are the cheapest duplicates to confirm); then the
    window slides over the representatives only, which on heavily
    duplicated data shrinks the windowed sequence substantially.  Rows
    whose key is empty carry no grouping evidence: each enters the
    window on its own and is never run-compared.  Known pairs are always
    skipped.  Returns the comparison count.
    """
    if window < 2:
        raise ValueError("window size must be >= 2")
    comparisons = 0
    for run in _runs(replay(), key_index):
        comparisons += _compare(zip(repeat(run[0]), islice(run, 1, None)),
                                compare, pairs, True, None)
    return comparisons + slide(_representatives(replay(), key_index),
                               window, compare, pairs)


def key_pass(replay: Callable[[], Iterable[GkRow]], key_index: int,
             window: int, compare: Compare,
             pairs: set[tuple[int, int]],
             duplicate_elimination: bool = False) -> int:
    """One key's pass over a re-playable key-sorted source, plain or DE."""
    if duplicate_elimination:
        return de_slide(replay, key_index, window, compare, pairs)
    return slide(replay(), window, compare, pairs)


# ---------------------------------------------------------------------------
# Per-pair conveniences over an in-memory GK table


def window_pass(table: GkTable, key_index: int, window: int,
                compare: Compare, pairs: set[tuple[int, int]],
                skip_known: bool = True) -> int:
    """One sliding-window pass of ``compare``; returns the comparison count."""
    return slide(table.sorted_by_key(key_index), window, compare, pairs,
                 skip_known=skip_known)


def de_window_pass(table: GkTable, key_index: int, window: int,
                   compare: Compare, pairs: set[tuple[int, int]]) -> int:
    """One duplicate-elimination pass of ``compare`` (see :func:`de_slide`)."""
    ordered = table.sorted_by_key(key_index)
    return de_slide(lambda: ordered, key_index, window, compare, pairs)


def multipass(table: GkTable, window: int, compare: Compare,
              key_indices: list[int] | None = None,
              duplicate_elimination: bool = False,
              ) -> tuple[set[tuple[int, int]], int]:
    """Run one window (or DE) pass per key; returns (pairs, comparisons)."""
    pairs: set[tuple[int, int]] = set()
    comparisons = 0
    indices = (key_indices if key_indices is not None
               else list(range(table.key_count)))
    for key_index in indices:
        ordered = table.sorted_by_key(key_index)
        comparisons += key_pass(lambda: ordered, key_index, window, compare,
                                pairs, duplicate_elimination)
    return pairs, comparisons


# ---------------------------------------------------------------------------
# Adaptive windows (Lehti & Fankhauser)


def key_similarity(left: str, right: str) -> float:
    """Similarity of two sort keys (edit similarity; empty keys match)."""
    return levenshtein_similarity(left, right)


def keys_similar(left: str, right: str, floor: float) -> bool:
    """Decision-only form of ``key_similarity(left, right) >= floor``.

    Routed through the capped edit path: keys clearly below the floor
    are refuted by the length/bag bounds or the capped kernel's early
    exit and never pay the full distance — they dominate adaptive-pass
    cost, since every extension attempt ends on one.
    """
    if floor <= 0.0:
        return True
    if floor > 1.0:
        return False
    return filtered_edit_similarity(left, right, floor) >= floor


def adaptive_window_pass(table: GkTable, key_index: int,
                         compare: Callable[[GkRow, GkRow], object],
                         pairs: set[tuple[int, int]],
                         min_window: int = 2, max_window: int = 20,
                         key_similarity_floor: float = 0.6) -> int:
    """One adaptive pass (Lehti & Fankhauser); returns the comparison count.

    Every record is compared to at least ``min_window - 1`` predecessors;
    the neighborhood keeps extending backwards while the predecessor's
    key is at least ``key_similarity_floor``-similar to the record's key,
    up to ``max_window - 1`` predecessors.
    """
    if not 2 <= min_window <= max_window:
        raise ValueError("need 2 <= min_window <= max_window")

    def reach(recent: Sequence[GkRow], row: GkRow) -> int:
        key = row.keys[key_index]
        count = 0
        for distance in range(1, len(recent) + 1):
            if distance >= min_window - 1 and not keys_similar(
                    recent[-distance].keys[key_index], key,
                    key_similarity_floor):
                break
            count = distance
        return count

    return slide(table.sorted_by_key(key_index), max_window, compare, pairs,
                 reach=reach)
