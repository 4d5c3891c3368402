"""The one sliding-window kernel, held to the frozen pre-kernel loops.

:func:`repro.core.window.slide` and :func:`repro.core.window.de_slide`
replaced every hand-written window walk.  These properties pin them to
the frozen copies in :mod:`tests.core.reference_window` on random
key-sorted rows with repeated and empty keys: equal pairs, equal
comparison counts, and an equal classifier call sequence — over
windows 2–7, shard cuts with ``window_start`` overlap, list and
one-shot iterator input, plain and DE passes, and skip on and off.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GkRow, GkTable, PairVerdict
from repro.core.window import (adaptive_window_pass, de_slide, slide,
                               window_start)
from tests.core import reference_window as frozen

KEYS = st.sampled_from(["", "", "a", "ab", "abc", "b", "ba", "c", "cab"])


def make_table(keys: list[str], eid_order: list[int]) -> GkTable:
    table = GkTable("x", key_count=1, od_count=0)
    for eid, key in zip(eid_order, keys):
        table.add(GkRow(eid, [key], []))
    return table


@st.composite
def tables(draw):
    keys = draw(st.lists(KEYS, max_size=24))
    eids = draw(st.permutations(list(range(len(keys)))))
    return make_table(keys, eids)


def known_pairs(draw, table: GkTable) -> set[tuple[int, int]]:
    eids = table.eids()
    if len(eids) < 2:
        return set()
    picks = draw(st.lists(st.tuples(st.sampled_from(eids),
                                    st.sampled_from(eids)), max_size=6))
    return {(min(a, b), max(a, b)) for a, b in picks if a != b}


class Recorder:
    """A deterministic classifier that logs every pair it receives.

    A pair is a duplicate when the eid sum is a multiple of 3 or the
    keys share a non-empty first letter.
    """

    def __init__(self):
        self.calls: list = []

    @staticmethod
    def verdict(left, right) -> PairVerdict:
        same = bool(left.keys[0]) and left.keys[0][:1] == right.keys[0][:1]
        duplicate = same or (left.eid + right.eid) % 3 == 0
        return PairVerdict(float(duplicate), None, float(duplicate),
                           duplicate)

    def compare(self, left, right):
        self.calls.append((left.eid, right.eid))
        return self.verdict(left, right)


def source(ordered: list, one_shot: bool):
    return iter(list(ordered)) if one_shot else ordered


class TestSlideMatchesFrozenSegmentPass:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), table=tables(), window=st.integers(2, 7),
           skip=st.booleans(), one_shot=st.booleans())
    def test_whole_pass(self, data, table, window, skip, one_shot):
        ordered = table.sorted_by_key(0)
        known = known_pairs(data.draw, table)
        old, new = Recorder(), Recorder()
        old_pairs, new_pairs = set(known), set(known)
        expected = frozen.segment_window_pass(
            ordered, window, old.compare, old_pairs, skip_known=skip)
        got = slide(source(ordered, one_shot), window, new.compare,
                    new_pairs, skip_known=skip)
        assert got == expected
        assert new_pairs == old_pairs
        assert new.calls == old.calls

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), table=tables(), window=st.integers(2, 7),
           skip=st.booleans(), one_shot=st.booleans())
    def test_shard_cuts_with_overlap(self, data, table, window, skip,
                                     one_shot):
        ordered = table.sorted_by_key(0)
        cuts = sorted(set(data.draw(st.lists(
            st.integers(0, len(ordered)), max_size=4))))
        bounds = list(zip([0, *cuts], [*cuts, len(ordered)]))
        known = known_pairs(data.draw, table)
        old, new = Recorder(), Recorder()
        old_pairs, new_pairs = set(known), set(known)
        expected = got = 0
        for low, high in bounds:
            first = window_start(low, window)
            expected += frozen.segment_window_pass(
                ordered[first:high], window, old.compare, old_pairs,
                start=low - first, skip_known=skip)
            got += slide(source(ordered[first:high], one_shot), window,
                         new.compare, new_pairs, start=low - first,
                         skip_known=skip)
        assert got == expected
        assert new_pairs == old_pairs
        assert new.calls == old.calls


class TestDeSlideMatchesFrozenDePass:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), table=tables(), window=st.integers(2, 7),
           one_shot=st.booleans())
    def test_de_pass(self, data, table, window, one_shot):
        ordered = table.sorted_by_key(0)
        known = known_pairs(data.draw, table)
        old, new = Recorder(), Recorder()
        old_pairs, new_pairs = set(known), set(known)
        expected = frozen.de_window_pass(
            table, 0, window, old.compare, old_pairs)
        got = de_slide(lambda: source(ordered, one_shot), 0, window,
                       new.compare, new_pairs)
        assert got == expected
        assert new_pairs == old_pairs
        assert new.calls == old.calls


class TestAdaptiveMatchesFrozenAdaptivePass:
    @settings(max_examples=100, deadline=None)
    @given(table=tables(), min_window=st.integers(2, 4),
           extra=st.integers(0, 4), floor=st.sampled_from([0.0, 0.4, 0.7]))
    def test_adaptive_pass(self, table, min_window, extra, floor):
        old, new = Recorder(), Recorder()
        old_pairs: set = set()
        new_pairs: set = set()
        expected = frozen.adaptive_window_pass(
            table, 0, old.compare, old_pairs, min_window=min_window,
            max_window=min_window + extra, key_similarity_floor=floor)
        got = adaptive_window_pass(
            table, 0, new.compare, new_pairs, min_window=min_window,
            max_window=min_window + extra, key_similarity_floor=floor)
        assert got == expected
        assert new_pairs == old_pairs
        assert new.calls == old.calls


class TestIncrementalSkipRule:
    def test_old_pairs_skipped_and_presented_lower_eid_first(self):
        rows = [GkRow(eid, ["k"], []) for eid in (5, 1, 4, 0)]
        recorder = Recorder()
        pairs: set = set()
        count = slide(rows, 3, recorder.compare, pairs, fresh={4})
        # Only pairs touching eid 4 are compared, lower eid first.
        assert recorder.calls == [(4, 5), (1, 4), (0, 4)]
        assert count == 3
