"""Comparison filters — cheap upper bounds that avoid edit distances.

The paper's outlook (Sec. 5) recalls that "filters are quite effective to
avoid comparisons, especially with the edit distance operations" (their
ref. [17]) and asks how such filters interact with the windowing filter.
This module provides the classic ones:

* :func:`length_filter_bound` — an upper bound on normalized edit
  similarity from the length difference alone.
* :func:`bag_filter_bound` — a tighter bound from character multisets
  (bag distance is a lower bound of edit distance).
* :func:`bounded_levenshtein` — the edit kernel with a cap: it exits
  as soon as the distance provably exceeds it.
* :func:`filtered_edit_similarity` — the composition: apply the bounds,
  then the capped kernel, returning 0.0 as soon as the similarity
  provably falls below a floor.
"""

from __future__ import annotations

from .levenshtein import levenshtein_distance


def length_filter_bound(left: str, right: str) -> float:
    """Upper bound of ``levenshtein_similarity`` from lengths only.

    Edit distance is at least ``|len(a) - len(b)|``, so similarity is at
    most ``1 - |Δlen| / max_len``.
    """
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - abs(len(left) - len(right)) / longest


def bag_distance(left: str, right: str) -> int:
    """Bag distance: a cheap lower bound of the edit distance.

    ``max(|bag(a) - bag(b)|, |bag(b) - bag(a)|)`` where the difference is
    multiset difference.  Both differences are a length minus the
    characters the bags share, so the larger one belongs to the longer
    string.
    """
    shared = 0
    for char in set(left):
        in_left = left.count(char)
        in_right = right.count(char)
        shared += in_left if in_left < in_right else in_right
    return max(len(left), len(right)) - shared


def bag_filter_bound(left: str, right: str) -> float:
    """Upper bound of normalized edit similarity from bag distance."""
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - bag_distance(left, right) / longest


def bounded_levenshtein(left: str, right: str, max_distance: int) -> int:
    """Levenshtein distance, or ``max_distance + 1`` once it exceeds it.

    The edit kernel with a cap: it answers at once when the lengths
    alone differ by more than the cap, and otherwise stops as soon as
    the distance provably exceeds it.  A negative cap raises
    ``ValueError``.
    """
    return levenshtein_distance(left, right, max_distance)


def bounded_edit_similarity(left: str, right: str,
                            floor: float) -> tuple[float, bool]:
    """Normalized edit similarity through the capped edit kernel.

    Returns ``(value, exact)``: the exact ``levenshtein_similarity`` with
    ``exact=True`` whenever it is at least ``floor``; otherwise a
    *dominating upper bound* strictly below ``floor`` with
    ``exact=False``.  The bound is term-wise ≥ the exact similarity even
    in float arithmetic, which is what lets the comparison plane prune
    on it without changing decisions.
    """
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0, True
    # Epsilon guards the float boundary: 10 * (1 - 0.9) is 0.999...,
    # which must still allow distance 1 (similarity exactly 0.9).
    max_distance = int(longest * (1.0 - floor) + 1e-9)
    distance = bounded_levenshtein(left, right, max_distance)
    if distance > max_distance:
        # The true distance is at least max_distance + 1, so similarity
        # is at most this value — and 1 - x/n rounds monotonically.
        return 1.0 - (max_distance + 1) / longest, False
    return 1.0 - distance / longest, True


def filtered_edit_similarity(left: str, right: str, floor: float) -> float:
    """Normalized edit similarity, short-circuited below ``floor``.

    Returns the exact ``levenshtein_similarity`` when it is at least
    ``floor`` and ``0.0`` otherwise, without ever running the edit
    kernel when the length or bag filters already refute the floor.
    """
    if not 0.0 <= floor <= 1.0:
        raise ValueError("floor must lie in [0, 1]")
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    if length_filter_bound(left, right) < floor:
        return 0.0
    if bag_filter_bound(left, right) < floor:
        return 0.0
    # Epsilon guards the float boundary: 10 * (1 - 0.9) is 0.999...,
    # which must still allow distance 1 (similarity exactly 0.9).
    max_distance = int(longest * (1.0 - floor) + 1e-9)
    distance = bounded_levenshtein(left, right, max_distance)
    if distance > max_distance:
        return 0.0
    return 1.0 - distance / longest
