"""Unit tests for comparison filters (length/bag bounds, capped kernel).

Exact distances come from the frozen textbook DP in
:mod:`tests.similarity.reference_levenshtein`, not from the kernel.
"""

import pytest

from repro.similarity import (bag_distance, bag_filter_bound,
                              bounded_levenshtein, filtered_edit_similarity,
                              length_filter_bound, levenshtein_similarity)
from tests.similarity.reference_levenshtein import levenshtein_distance


class TestLengthFilter:
    def test_equal_lengths(self):
        assert length_filter_bound("abc", "xyz") == 1.0

    def test_bound_is_valid(self):
        for left, right in [("abc", "a"), ("", "xyz"), ("short", "longer one")]:
            assert levenshtein_similarity(left, right) <= \
                length_filter_bound(left, right) + 1e-12

    def test_both_empty(self):
        assert length_filter_bound("", "") == 1.0


class TestBagFilter:
    def test_bag_distance_known(self):
        assert bag_distance("abc", "abc") == 0
        assert bag_distance("abc", "abd") == 1
        assert bag_distance("aabb", "ab") == 2

    def test_bag_is_lower_bound_of_edit(self):
        samples = [("Mask of Zorro", "Mask of Zoro"), ("matrix", "martix"),
                   ("abcdef", "ghijkl"), ("", "abc"), ("aa", "aaaa")]
        for left, right in samples:
            assert bag_distance(left, right) <= levenshtein_distance(left, right)

    def test_bound_is_valid(self):
        for left, right in [("abcd", "dcba"), ("hello", "help"), ("x", "y")]:
            assert levenshtein_similarity(left, right) <= \
                bag_filter_bound(left, right) + 1e-12

    def test_bag_tighter_than_length_when_chars_differ(self):
        assert bag_filter_bound("abc", "xyz") < length_filter_bound("abc", "xyz")


class TestBoundedLevenshtein:
    @pytest.mark.parametrize("left,right", [
        ("kitten", "sitting"), ("abc", "abc"), ("", "abc"),
        ("Mask of Zorro", "Mask of Zoro"), ("flaw", "lawn"),
    ])
    def test_matches_exact_within_cap(self, left, right):
        exact = levenshtein_distance(left, right)
        assert bounded_levenshtein(left, right, exact) == exact
        assert bounded_levenshtein(left, right, exact + 3) == exact

    def test_overflow_when_exceeds_cap(self):
        assert bounded_levenshtein("abcdef", "uvwxyz", 2) == 3

    def test_length_shortcut(self):
        assert bounded_levenshtein("a", "abcdefgh", 2) == 3

    def test_zero_cap(self):
        assert bounded_levenshtein("same", "same", 0) == 0
        assert bounded_levenshtein("same", "sane", 0) == 1

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            bounded_levenshtein("a", "b", -1)


class TestFilteredEditSimilarity:
    def test_exact_above_floor(self):
        left, right = "Mask of Zorro", "Mask of Zoro"
        exact = levenshtein_similarity(left, right)
        assert filtered_edit_similarity(left, right, 0.8) == pytest.approx(exact)

    def test_zero_below_floor(self):
        assert filtered_edit_similarity("abcdef", "uvwxyz", 0.8) == 0.0

    def test_agrees_with_threshold_decision(self):
        samples = [("The Matrix", "The Matrlx"), ("Speed", "Spede"),
                   ("Dark City", "Light Town"), ("", ""), ("a", "")]
        for floor in (0.3, 0.6, 0.9):
            for left, right in samples:
                exact = levenshtein_similarity(left, right)
                filtered = filtered_edit_similarity(left, right, floor)
                assert (exact >= floor) == (filtered >= floor)
                if exact >= floor:
                    assert filtered == pytest.approx(exact)

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            filtered_edit_similarity("a", "b", 1.5)

    def test_empty_strings(self):
        assert filtered_edit_similarity("", "", 0.5) == 1.0
