"""Frozen copies of the two edit-distance DPs, kept as differential oracles.

``levenshtein_distance`` (the textbook DP) and ``bounded_levenshtein``
(the banded DP with an early exit) as they stood before
:mod:`repro.similarity.levenshtein` replaced both with one bit-parallel
kernel.  The kernel's differential tests and the filter soundness tests
compare against these copies, so a change to the kernel can never be
checked against itself.  Do not edit them to follow the kernel.
"""

from __future__ import annotations


def levenshtein_distance(left: str, right: str) -> int:
    """Minimum number of insertions, deletions, and substitutions."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    # Keep the shorter string in the inner dimension for less memory.
    if len(left) < len(right):
        left, right = right, left
    previous = list(range(len(right) + 1))
    for row, left_char in enumerate(left, start=1):
        current = [row]
        for col, right_char in enumerate(right, start=1):
            cost = 0 if left_char == right_char else 1
            current.append(min(previous[col] + 1,          # deletion
                               current[col - 1] + 1,       # insertion
                               previous[col - 1] + cost))  # substitution
        previous = current
    return previous[-1]


def bounded_levenshtein(left: str, right: str, max_distance: int) -> int:
    """Levenshtein distance, or ``max_distance + 1`` once it exceeds it.

    Uses the standard band of width ``2 * max_distance + 1`` around the
    diagonal and exits as soon as every band cell exceeds the cap.
    """
    if max_distance < 0:
        raise ValueError("max_distance must be >= 0")
    if left == right:
        return 0
    len_left, len_right = len(left), len(right)
    if abs(len_left - len_right) > max_distance:
        return max_distance + 1
    if len_left == 0:
        return len_right
    if len_right == 0:
        return len_left

    overflow = max_distance + 1
    previous = list(range(len_right + 1))
    for row, char in enumerate(left, start=1):
        low = max(1, row - max_distance)
        high = min(len_right, row + max_distance)
        current = [overflow] * (len_right + 1)
        if low == 1:
            current[0] = row
        best = current[0]
        for col in range(low, high + 1):
            cost = 0 if char == right[col - 1] else 1
            value = min(previous[col] + 1,
                        current[col - 1] + 1,
                        previous[col - 1] + cost)
            current[col] = value
            if value < best:
                best = value
        if best > max_distance:
            return overflow
        previous = current
    distance = previous[len_right]
    return distance if distance <= max_distance else overflow
