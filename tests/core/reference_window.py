"""Frozen copy of the window kernels, kept as a differential oracle.

``segment_window_pass``, ``de_window_pass``, ``multipass`` and
``adaptive_window_pass`` (with the helpers they call) as they stood
before :mod:`repro.core.window` folded every window walk onto one
sliding kernel.  The golden suite's reference detectors and the
kernel's Hypothesis differential test compare the live kernel against
these copies, so a change to the kernel can never be checked against
itself.  Do not edit them to follow the kernel.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.gk import GkRow, GkTable
from repro.core.simmeasure import PairVerdict
from repro.core.window import keys_similar

#: Batched classifier: one call for a block of pairs, verdicts in order.
CompareBlock = Callable[[list[tuple[GkRow, GkRow]]], list[PairVerdict]]


def window_start(index: int, window: int) -> int:
    """First in-window predecessor index of the anchor at ``index``.

    The one piece of window arithmetic everything shares: a sliding
    window of size ``window`` compares the anchor against the up to
    ``window - 1`` rows before it, so the block starts at
    ``max(0, index - window + 1)``.  The overlap-shard planners reuse
    the same expression to decide how many predecessor rows a segment
    starting at anchor ``index`` must prepend — keeping the serial
    window and the sharded segments provably aligned.
    """
    return max(0, index - window + 1)


def _compare_window_block(row: GkRow, ordered: list[GkRow], start: int,
                          index: int, pairs: set[tuple[int, int]],
                          compare_block: CompareBlock,
                          skip_known: bool = True) -> int:
    """Compare one anchor row against its window block in a single call.

    Equivalent to the pair-at-a-time loop: the anchor's window pairs
    all share the anchor eid and have distinct predecessor eids, so no
    pair confirmed inside the block could have been skipped by a
    mid-block ``skip_known`` check — deferring the checks to block
    build time changes nothing.  Returns the comparison count.
    """
    block: list[tuple[GkRow, GkRow]] = []
    block_pairs: list[tuple[int, int]] = []
    for other_index in range(start, index):
        other = ordered[other_index]
        pair = (min(other.eid, row.eid), max(other.eid, row.eid))
        if skip_known and pair in pairs:
            continue
        block.append((other, row))
        block_pairs.append(pair)
    if not block:
        return 0
    for pair, verdict in zip(block_pairs, compare_block(block)):
        if verdict.is_duplicate:
            pairs.add(pair)
    return len(block)


def window_pass(table: GkTable, key_index: int, window: int,
                compare: Callable[[GkRow, GkRow], PairVerdict],
                pairs: set[tuple[int, int]],
                skip_known: bool = True,
                compare_block: CompareBlock | None = None) -> int:
    """One sliding-window pass; returns the number of comparisons made.

    Confirmed duplicate eid pairs are added to ``pairs`` (smaller eid
    first).  With ``skip_known`` (default), pairs already confirmed by an
    earlier pass are not re-compared — the multi-pass method unions pair
    sets, so re-confirming is pure waste.

    With ``compare_block``, each anchor row's window of predecessors is
    classified in one batched call instead of pair by pair — identical
    pairs and verdicts (see :func:`_compare_window_block`), amortized
    per-string work.

    A full pass is the ``start == 0`` special case of
    :func:`segment_window_pass` (no overlap rows), so the sliding loop
    lives there only.
    """
    return segment_window_pass(table.sorted_by_key(key_index), window,
                               compare, pairs, start=0,
                               compare_block=compare_block,
                               skip_known=skip_known)


def de_window_pass(table: GkTable, key_index: int, window: int,
                   compare: Callable[[GkRow, GkRow], PairVerdict],
                   pairs: set[tuple[int, int]],
                   compare_block: CompareBlock | None = None) -> int:
    """Duplicate-elimination window pass (DE-SNM idea, paper Sec. 5).

    Rows sharing an identical non-empty key are handled first: each group
    member is compared against the group's first row only (equal keys are
    the cheapest duplicates to confirm), and a single representative per
    key value enters the sliding window.  On heavily duplicated data the
    windowed list shrinks substantially.  Returns the comparison count.

    Rows whose key is empty carry no grouping evidence (the key
    generator found nothing to extract), so each one is unique: it
    enters the window individually and is never anchor-compared.
    """
    if window < 2:
        raise ValueError("window size must be >= 2")
    comparisons = 0
    groups: dict[str, list[GkRow]] = {}
    ordered: list[GkRow] = []
    # The rows come from ``sorted_by_key``, so appending each empty-key
    # row and each group's first row as they appear keeps ``ordered`` in
    # (key, eid) order (groups preserve first-occurrence order too).
    for row in table.sorted_by_key(key_index):
        key_value = row.keys[key_index]
        if not key_value:
            ordered.append(row)
            continue
        group = groups.get(key_value)
        if group is None:
            groups[key_value] = [row]
            ordered.append(row)
        else:
            group.append(row)

    for group in groups.values():
        if len(group) < 2:
            continue
        anchor = group[0]
        if compare_block is not None:
            # One block per equal-key group: the anchor repeats, member
            # eids are distinct — same deferred-skip argument as the
            # window blocks.
            block = []
            block_pairs = []
            for row in group[1:]:
                pair = (min(anchor.eid, row.eid), max(anchor.eid, row.eid))
                if pair in pairs:
                    continue
                block.append((anchor, row))
                block_pairs.append(pair)
            comparisons += len(block)
            if block:
                for pair, verdict in zip(block_pairs, compare_block(block)):
                    if verdict.is_duplicate:
                        pairs.add(pair)
            continue
        for row in group[1:]:
            pair = (min(anchor.eid, row.eid), max(anchor.eid, row.eid))
            if pair in pairs:
                continue
            comparisons += 1
            if compare(anchor, row).is_duplicate:
                pairs.add(pair)

    comparisons += segment_window_pass(ordered, window, compare, pairs,
                                       start=0, compare_block=compare_block)
    return comparisons


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
    ordered = table.sorted_by_key(key_index)
    comparisons = 0
    for index, row in enumerate(ordered):
        reach = 1
        while reach < max_window and index - reach >= 0:
            if reach >= min_window - 1:
                predecessor = ordered[index - reach]
                if not keys_similar(predecessor.keys[key_index],
                                    row.keys[key_index],
                                    key_similarity_floor):
                    break
            reach += 1
        for other_index in range(max(0, index - reach + 1), index):
            other = ordered[other_index]
            pair = (min(other.eid, row.eid), max(other.eid, row.eid))
            if pair in pairs:
                continue
            comparisons += 1
            if compare(other, row).is_duplicate:  # type: ignore[attr-defined]
                pairs.add(pair)
    return comparisons


def segment_window_pass(ordered: list[GkRow], window: int,
                        compare: Callable[[GkRow, GkRow], PairVerdict],
                        pairs: set[tuple[int, int]],
                        start: int = 0,
                        compare_block: CompareBlock | None = None,
                        skip_known: bool = True) -> int:
    """Sliding-window comparisons over one contiguous segment of a pass.

    ``ordered`` is a slice of a key-sorted row list.  The first ``start``
    rows are overlap carried from the preceding segment: they serve only
    as predecessors and never anchor comparisons themselves.  Because
    each in-window pair is anchored by exactly one row (the later one in
    key order), splitting a sorted pass into contiguous segments that
    each prepend their ``window - 1`` predecessor rows covers every
    adjacency exactly once — the union of the segments' pairs equals the
    serial pass.  With ``skip_known`` (default), pairs already in
    ``pairs`` are skipped; confirmed eid pairs are added (smaller eid
    first).  Returns the comparison count.

    This is the one sliding loop in the codebase: a full serial pass is
    the ``start == 0`` case (:func:`window_pass` delegates here), and
    the shard planners in :mod:`repro.core.execution` derive their
    overlap from the same :func:`window_start` arithmetic.
    """
    if window < 2:
        raise ValueError("window size must be >= 2")
    comparisons = 0
    for index in range(max(start, 0), len(ordered)):
        row = ordered[index]
        block_start = window_start(index, window)
        if compare_block is not None:
            comparisons += _compare_window_block(
                row, ordered, block_start, index, pairs, compare_block,
                skip_known=skip_known)
            continue
        for other_index in range(block_start, index):
            other = ordered[other_index]
            pair = (min(other.eid, row.eid), max(other.eid, row.eid))
            if skip_known and pair in pairs:
                continue
            comparisons += 1
            if compare(other, row).is_duplicate:
                pairs.add(pair)
    return comparisons


def multipass(table: GkTable, window: int,
              compare: Callable[[GkRow, GkRow], PairVerdict],
              key_indices: list[int] | None = None,
              duplicate_elimination: bool = False,
              compare_block: CompareBlock | None = None,
              ) -> tuple[set[tuple[int, int]], int]:
    """Run one window pass per key; returns (pairs, total comparisons).

    With ``duplicate_elimination`` each pass uses :func:`de_window_pass`
    instead of the plain window.  ``compare_block`` batches each pass's
    anchor blocks (same pairs, amortized per-string work).
    """
    pairs: set[tuple[int, int]] = set()
    comparisons = 0
    indices = key_indices if key_indices is not None else list(range(table.key_count))
    for key_index in indices:
        if duplicate_elimination:
            comparisons += de_window_pass(table, key_index, window, compare,
                                          pairs, compare_block=compare_block)
        else:
            comparisons += window_pass(table, key_index, window, compare,
                                       pairs, compare_block=compare_block)
    return pairs, comparisons
