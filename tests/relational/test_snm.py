"""Unit tests for the classical SNM and its matchers."""

import pytest

from repro.errors import PatternSyntaxError
from repro.relational import (FieldRule, Relation, RelationalKey,
                              WeightedFieldMatcher, sorted_neighborhood)


def movie_relation() -> Relation:
    relation = Relation(["title", "year"], name="MOVIE")
    relation.extend([
        {"title": "Mask of Zorro", "year": "1998"},
        {"title": "Mask of Zoro", "year": "1998"},     # typo duplicate of 0
        {"title": "The Matrix", "year": "1999"},
        {"title": "Matrix, The", "year": "1999"},
        {"title": "Speed", "year": "1994"},
        {"title": "Mask of Zorro", "year": "1998"},    # exact duplicate of 0
    ])
    return relation


def title_key() -> RelationalKey:
    return RelationalKey.create([("title", "K1-K4"), ("year", "D3,D4")],
                                name="Key 1")


def matcher(threshold: float = 0.75) -> WeightedFieldMatcher:
    return WeightedFieldMatcher(
        [FieldRule("title", 0.8), FieldRule("year", 0.2, "year")], threshold)


class TestRelationalKey:
    def test_paper_example(self):
        relation = Relation(["title", "year"])
        record = relation.insert({"title": "Mask of Zorro", "year": "1998"})
        assert title_key().generate(record) == "MSKF98"

    def test_missing_field(self):
        relation = Relation(["title", "year"])
        record = relation.insert({"title": "Matrix"})
        assert title_key().generate(record) == "MTRX"

    def test_create_requires_parts(self):
        with pytest.raises(ValueError):
            RelationalKey.create([])

    def test_create_rejects_malformed_pattern(self):
        with pytest.raises(PatternSyntaxError):
            RelationalKey.create([("name", "Q1")])

    def test_golden_corpus_keys_match_per_character_extraction(self):
        from tests.core.reference_keygen import extract_pattern
        from tests.relational.test_golden import dirty_relation
        parts = [("name", "K1-K3,V1"), ("address", "C1-C4,D1,D2"),
                 ("year", "D3,D4"), ("name", "W1-2,S2-4,A5")]
        key = RelationalKey.create(parts)
        for record in dirty_relation():
            assert key.generate(record) == "".join(
                extract_pattern(pattern, record.get(field))
                for field, pattern in parts).upper()


class TestRelation:
    def test_unknown_attribute_rejected(self):
        relation = Relation(["a"])
        with pytest.raises(ValueError):
            relation.insert({"b": "1"})

    def test_needs_attributes(self):
        with pytest.raises(ValueError):
            Relation([])

    def test_rids_sequential(self):
        relation = movie_relation()
        assert [record.rid for record in relation] == list(range(6))


class TestSortedNeighborhood:
    def test_finds_typo_and_exact_duplicates(self):
        result = sorted_neighborhood(movie_relation(), [title_key()],
                                     matcher(), window=3)
        assert (0, 1) in result.pairs
        assert (0, 5) in result.pairs or (1, 5) in result.pairs

    def test_transitive_closure_clusters(self):
        result = sorted_neighborhood(movie_relation(), [title_key()],
                                     matcher(), window=4)
        clusters = {tuple(sorted(c)) for c in result.clusters}
        assert (0, 1, 5) in clusters

    def test_window_limits_comparisons(self):
        relation = movie_relation()
        small = sorted_neighborhood(relation, [title_key()], matcher(), window=2)
        large = sorted_neighborhood(relation, [title_key()], matcher(), window=6)
        assert small.comparisons < large.comparisons
        # n records, window w: (w-1)*n - (w-1)*w/2 comparisons per pass.
        assert small.comparisons == 5
        assert large.comparisons == 15  # all pairs of 6

    def test_multi_pass_unions_pairs(self):
        # 'Matrix, The' and 'The Matrix' sort apart on a title key but
        # together on a year-first key.
        year_key = RelationalKey.create([("year", "D1-D4"), ("title", "K1,K2")],
                                        name="Key 2")
        single = sorted_neighborhood(movie_relation(), [title_key()],
                                     matcher(0.5), window=2)
        multi = sorted_neighborhood(movie_relation(), [title_key(), year_key],
                                    matcher(0.5), window=2)
        assert multi.pairs >= single.pairs
        assert multi.comparisons == 2 * single.comparisons

    def test_every_record_clustered(self):
        result = sorted_neighborhood(movie_relation(), [title_key()],
                                     matcher(), window=3)
        flattened = sorted(rid for cluster in result.clusters for rid in cluster)
        assert flattened == list(range(6))

    def test_no_closure_mode(self):
        result = sorted_neighborhood(movie_relation(), [title_key()],
                                     matcher(), window=3, closure=False)
        assert result.clusters == []
        assert result.pairs

    def test_requires_keys_and_window(self):
        with pytest.raises(ValueError):
            sorted_neighborhood(movie_relation(), [], matcher())
        with pytest.raises(ValueError):
            sorted_neighborhood(movie_relation(), [title_key()], matcher(),
                                window=1)

    def test_timing_fields_populated(self):
        result = sorted_neighborhood(movie_relation(), [title_key()],
                                     matcher(), window=3)
        assert result.key_generation_seconds >= 0
        assert result.duplicate_detection_seconds == pytest.approx(
            result.window_seconds + result.closure_seconds)
