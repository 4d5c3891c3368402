"""Edit-distance measures.

The paper's example φ function for object descriptions is the edit
distance ("which computes the minimum number of operations needed to
convert one string into another").  We provide plain Levenshtein, the
Damerau variant (adjacent transpositions count as one operation — the
Dirty XML Data Generator's *swap* error is exactly such a transposition),
and normalized similarities in ``[0, 1]``.

Every Levenshtein distance — full or capped by the comparison plane's
filters — runs through one bit-parallel kernel,
:func:`levenshtein_distance` (Myers 1999, in Hyyrö's 2003 formulation
for the global distance): one DP column is a pair of bit vectors held
in Python ints, so a text character costs a fixed handful of integer
operations instead of a pass over the pattern.  Damerau stays a plain
DP.
"""

from __future__ import annotations


def levenshtein_distance(left: str, right: str,
                         max_distance: int | None = None) -> int:
    """Minimum number of insertions, deletions, and substitutions.

    With ``max_distance`` (the cap) the result is the distance when it
    is at most the cap and ``max_distance + 1`` otherwise; the kernel
    then stops as soon as the distance provably exceeds the cap.
    """
    if max_distance is not None and max_distance < 0:
        raise ValueError("max_distance must be >= 0")
    if left == right:
        return 0
    # The shorter string is the bit pattern: one bit per character.
    if len(left) > len(right):
        left, right = right, left
    length = len(left)
    remaining = len(right)
    if max_distance is None:
        max_distance = remaining  # no distance exceeds the longer length
    elif remaining - length > max_distance:
        return max_distance + 1
    if not length:
        return remaining
    matches: dict[str, int] = {}
    bit = 1
    for char in left:
        matches[char] = matches.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    top = bit >> 1
    match = matches.get
    # Vertical deltas of the current column, as +1 and -1 bit vectors,
    # and the distance from the whole pattern to the text read so far.
    plus, minus = mask, 0
    score = length
    # One text character moves the score by at most one, so the final
    # distance is at least ``score - remaining``: once that exceeds the
    # cap, nothing left can bring it back under.
    limit = max_distance + remaining
    for char in right:
        eq = match(char, 0)
        xv = eq | minus
        xh = (((eq & plus) + plus) ^ plus) | eq
        # ``~`` on a Python int is negative: mask it to the pattern width,
        # which keeps every vector below ``bit`` for the ``top`` tests.
        h_plus = minus | (mask & ~(xh | plus))
        h_minus = xh & plus
        if h_plus >= top:
            score += 1
        elif h_minus >= top:
            score -= 1
        limit -= 1
        if score > limit:
            return max_distance + 1
        # Row 0 of a global distance grows by one per column, so a 1
        # enters the horizontal +1 vector at the bottom every step.
        h_plus = (h_plus << 1) | 1
        plus = mask & ((h_minus << 1) | ~(xv | h_plus))
        minus = h_plus & xv
    return score


def damerau_levenshtein_distance(left: str, right: str) -> int:
    """Levenshtein with adjacent transpositions as a single operation."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    rows = len(left) + 1
    cols = len(right) + 1
    matrix = [[0] * cols for _ in range(rows)]
    for row in range(rows):
        matrix[row][0] = row
    for col in range(cols):
        matrix[0][col] = col
    for row in range(1, rows):
        for col in range(1, cols):
            cost = 0 if left[row - 1] == right[col - 1] else 1
            best = min(matrix[row - 1][col] + 1,
                       matrix[row][col - 1] + 1,
                       matrix[row - 1][col - 1] + cost)
            if (row > 1 and col > 1 and left[row - 1] == right[col - 2]
                    and left[row - 2] == right[col - 1]):
                best = min(best, matrix[row - 2][col - 2] + 1)
            matrix[row][col] = best
    return matrix[-1][-1]


def levenshtein_similarity(left: str, right: str) -> float:
    """``1 - distance / max(len)`` — 1.0 for equal strings, 0.0 disjoint.

    Both strings empty counts as identical (similarity 1.0).
    """
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(left, right) / longest


def damerau_similarity(left: str, right: str) -> float:
    """Normalized Damerau-Levenshtein similarity in ``[0, 1]``."""
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - damerau_levenshtein_distance(left, right) / longest
