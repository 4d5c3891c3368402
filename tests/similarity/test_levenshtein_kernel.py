"""The bit-parallel edit kernel, held to the frozen DPs it replaced.

:func:`repro.similarity.levenshtein_distance` runs every Levenshtein
distance, uncapped and capped.  These properties pin it to the frozen
textbook DP and banded DP in :mod:`tests.similarity.reference_levenshtein`
on pairs drawn wider than the filter suites draw: few-letter alphabets
(long runs of equal characters), non-BMP and combining characters, and
lengths up to 200, so the bit pattern crosses 30, 60, 64 and 128 bits.
Each pair is checked uncapped, in both argument orders, and at a drawn
cap from 0 to the longer length plus 2 as well as at the caps where the
kernel's exits turn: the length difference and the distance, each with
its predecessor.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.similarity import bounded_levenshtein, levenshtein_distance
from tests.similarity import reference_levenshtein as frozen

#: Few letters give long equal runs and small distances; the others mix
#: precomposed, combining, superscript and astral-plane characters.
ALPHABETS = st.sampled_from([
    "a", "ab", "abc", "ab ", "abcdefghi",
    "a\u00e9e\u0301", "a\u00b2\U0001F600", "xy\U00010348\u0301",
])

#: Long enough for the kernel's own example of a 65-bit pattern.
LONG = ("abcdefghij" * 7)[:65]


@st.composite
def edited(draw, text: str, alphabet: str) -> str:
    """``text`` after a few random substitutions, deletions, insertions."""
    chars = list(text)
    for _ in range(draw(st.integers(0, 6))):
        position = draw(st.integers(0, len(chars)))
        action = draw(st.sampled_from(["sub", "del", "ins"]))
        char = draw(st.sampled_from(alphabet))
        if action == "sub" and chars:
            chars[position % len(chars)] = char
        elif action == "del" and chars:
            del chars[position % len(chars)]
        else:
            chars.insert(position, char)
    return "".join(chars)


@st.composite
def cases(draw) -> tuple[str, str, int]:
    """``(left, right, cap)``; ``right`` is a near copy half the time."""
    alphabet = draw(ALPHABETS)
    text = st.text(alphabet=alphabet, max_size=200)
    left = draw(text)
    if draw(st.booleans()):
        right = draw(edited(left, alphabet))
    else:
        right = draw(text)
    cap = draw(st.integers(0, max(len(left), len(right)) + 2))
    return left, right, cap


class TestKernelMatchesFrozenDps:
    @given(case=cases())
    @settings(max_examples=250, deadline=None)
    @example(case=("", "", 0))
    @example(case=("", "abc", 1))          # length exit on an empty pattern
    @example(case=("", "abc", 3))          # empty pattern within the cap
    @example(case=("same", "same", 0))     # equal strings
    @example(case=("a", "b", 0))           # one-character strings
    @example(case=("a", "ab", 1))
    @example(case=("kitten", "sitting", 2))
    @example(case=("kitten", "sitting", 3))
    @example(case=(LONG, LONG[:40] + "X" + LONG[41:] + "yz", 3))  # 65 bits
    @example(case=("ab", "abcdefgh", 3))   # length exit
    @example(case=("abcdef", "uvwxyz", 2))  # cap exit mid-text
    @example(case=("abc", "xyz", 2))       # cap exit on the last character
    @example(case=("xab", "ab", 1))        # 2 after "xa", 1 at the end
    def test_uncapped_and_capped_equal_reference(self, case):
        left, right, cap = case
        exact = frozen.levenshtein_distance(left, right)
        assert levenshtein_distance(left, right) == exact
        assert levenshtein_distance(right, left) == exact
        gap = abs(len(left) - len(right))
        for at in {cap, gap, max(gap - 1, 0), exact, max(exact - 1, 0)}:
            expected = frozen.bounded_levenshtein(left, right, at)
            assert expected == (exact if exact <= at else at + 1)
            assert levenshtein_distance(left, right, at) == expected
            assert levenshtein_distance(right, left, at) == expected
            assert bounded_levenshtein(left, right, at) == expected


def test_negative_cap_rejected():
    with pytest.raises(ValueError):
        levenshtein_distance("a", "b", -1)
    with pytest.raises(ValueError):
        levenshtein_distance("a", "a", -1)
