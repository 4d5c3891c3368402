"""Property-based tests (hypothesis) for core invariants."""

import random
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import (UnionFind, quadratic_transitive_closure,
                              transitive_closure)
from repro.datagen import pollute
from repro.eval import evaluate_pairs, pairs_from_clusters
from repro.keys import parse_pattern
from repro.similarity import (damerau_levenshtein_distance, jaccard,
                              jaro_similarity, jaro_winkler_similarity,
                              levenshtein_distance, levenshtein_similarity,
                              ngram_similarity, soundex)
from repro.xmlmodel import XmlElement, escape_attribute, escape_text, parse, serialize

#: XML 1.0 ``Char`` only: no surrogates (Cs), no control characters (Cc),
#: and neither of the noncharacters U+FFFE and U+FFFF.
text_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc"),
                           blacklist_characters="\ufffe\uffff"),
    max_size=40)
simple_text = st.text(alphabet=string.ascii_letters + string.digits + " .,-",
                      max_size=30)
tag_strategy = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,10}", fullmatch=True)


class TestXmlRoundTrip:
    @given(tag=tag_strategy, text=text_strategy,
           attr_value=text_strategy)
    @settings(max_examples=150)
    def test_serialize_parse_identity(self, tag, text, attr_value):
        element = XmlElement(tag, attributes={"a": attr_value},
                             text=text or None)
        element.make_child("child", text=text or None)
        reparsed = parse(serialize(element))
        assert reparsed.root.structurally_equal(element)

    @given(value=text_strategy)
    @settings(max_examples=100)
    def test_escaping_removes_specials(self, value):
        escaped = escape_text(value)
        assert "<" not in escaped.replace("&lt;", "")
        attr = escape_attribute(value)
        assert '"' not in attr.replace("&quot;", "")

    @given(tags=st.lists(tag_strategy, min_size=1, max_size=6),
           texts=st.lists(simple_text, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_nested_round_trip(self, tags, texts):
        root = XmlElement("root")
        current = root
        for tag, text in zip(tags, texts):
            current = current.make_child(tag, text=text or None)
        again = parse(serialize(root))
        assert again.root.structurally_equal(root)


class TestEditDistanceProperties:
    @given(a=simple_text, b=simple_text)
    @settings(max_examples=200)
    def test_symmetry(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(a=simple_text, b=simple_text, c=simple_text)
    @settings(max_examples=150)
    def test_triangle_inequality(self, a, b, c):
        assert (levenshtein_distance(a, c)
                <= levenshtein_distance(a, b) + levenshtein_distance(b, c))

    @given(a=simple_text)
    @settings(max_examples=100)
    def test_identity(self, a):
        assert levenshtein_distance(a, a) == 0
        assert levenshtein_similarity(a, a) == 1.0

    @given(a=simple_text, b=simple_text)
    @settings(max_examples=200)
    def test_damerau_never_exceeds_levenshtein(self, a, b):
        assert damerau_levenshtein_distance(a, b) <= levenshtein_distance(a, b)

    @given(a=simple_text, b=simple_text)
    @settings(max_examples=200)
    def test_distance_bounds(self, a, b):
        distance = levenshtein_distance(a, b)
        assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))

    @given(a=simple_text, b=simple_text)
    @settings(max_examples=200)
    def test_similarities_unit_interval(self, a, b):
        for function in (levenshtein_similarity, jaro_similarity,
                         jaro_winkler_similarity, ngram_similarity):
            value = function(a, b)
            assert 0.0 <= value <= 1.0

    @given(a=simple_text, b=simple_text)
    @settings(max_examples=150)
    def test_jaro_winkler_dominates_jaro(self, a, b):
        assert jaro_winkler_similarity(a, b) >= jaro_similarity(a, b) - 1e-12


class TestSetSimilarityProperties:
    @given(left=st.sets(st.integers(0, 50)), right=st.sets(st.integers(0, 50)))
    @settings(max_examples=200)
    def test_jaccard_bounds_and_symmetry(self, left, right):
        value = jaccard(left, right)
        assert 0.0 <= value <= 1.0
        assert value == jaccard(right, left)

    @given(items=st.sets(st.integers(0, 50)))
    @settings(max_examples=100)
    def test_jaccard_identity(self, items):
        assert jaccard(items, items) == 1.0


class TestSoundexProperties:
    @given(name=st.text(alphabet=string.ascii_letters, min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_code_shape(self, name):
        code = soundex(name)
        assert len(code) == 4
        assert code[0].isalpha() and code[0].isupper()
        assert all(c.isdigit() or c == "0" for c in code[1:])

    @given(name=st.text(alphabet=string.ascii_letters, min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_case_insensitive(self, name):
        assert soundex(name.lower()) == soundex(name.upper())


class TestPatternProperties:
    @given(text=simple_text, lo=st.integers(1, 5), span=st.integers(0, 5))
    @settings(max_examples=200)
    def test_extraction_is_subsequence_of_class(self, text, lo, span):
        pattern = parse_pattern(f"C{lo}-C{lo + span}")
        extracted = pattern.extract(text)
        pool = "".join(c for c in text if not c.isspace())
        assert extracted == pool[lo - 1:lo + span]

    @given(text=simple_text)
    @settings(max_examples=100)
    def test_consonants_never_vowels(self, text):
        extracted = parse_pattern("K1-K10").extract(text)
        assert not any(c in "aeiouAEIOU" for c in extracted)
        assert all(c.isalpha() for c in extracted)


class TestUnionFindProperties:
    @given(pairs=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                          max_size=40))
    @settings(max_examples=150)
    def test_groups_form_partition(self, pairs):
        universe = range(31)
        clusters = transitive_closure(pairs, universe)
        flattened = sorted(x for cluster in clusters for x in cluster)
        assert flattened == list(universe)

    @given(pairs=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                          max_size=40))
    @settings(max_examples=100)
    def test_pairs_connected(self, pairs):
        forest = UnionFind()
        for a, b in pairs:
            forest.union(a, b)
        for a, b in pairs:
            assert forest.connected(a, b)

    @given(pairs=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                          max_size=30))
    @settings(max_examples=100)
    def test_quadratic_closure_equivalent(self, pairs):
        universe = range(21)
        fast = {frozenset(c) for c in transitive_closure(pairs, universe)}
        slow = {frozenset(c)
                for c in quadratic_transitive_closure(pairs, universe)}
        assert fast == slow


class TestMetricsProperties:
    @given(found=st.sets(st.tuples(st.integers(0, 20), st.integers(0, 20))),
           gold=st.sets(st.tuples(st.integers(0, 20), st.integers(0, 20))))
    @settings(max_examples=200)
    def test_metrics_unit_interval(self, found, gold):
        metrics = evaluate_pairs(found, gold)
        assert 0.0 <= metrics.precision <= 1.0
        assert 0.0 <= metrics.recall <= 1.0
        assert 0.0 <= metrics.f_measure <= 1.0

    @given(clusters=st.lists(st.sets(st.integers(0, 30), min_size=1),
                             max_size=8))
    @settings(max_examples=100)
    def test_perfect_self_evaluation(self, clusters):
        pairs = pairs_from_clusters(clusters)
        metrics = evaluate_pairs(pairs, pairs)
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0


class TestPolluteProperties:
    @given(text=simple_text, errors=st.integers(0, 4), seed=st.integers(0, 999))
    @settings(max_examples=200)
    def test_length_bounds(self, text, errors, seed):
        rng = random.Random(seed)
        polluted = pollute(text, rng, errors)
        assert abs(len(polluted) - len(text)) <= errors

    @given(text=simple_text, seed=st.integers(0, 999))
    @settings(max_examples=100)
    def test_zero_errors_identity(self, text, seed):
        assert pollute(text, random.Random(seed), 0) == text


class TestOdUpperBoundProperty:
    @given(left=simple_text, right=simple_text,
           year_a=st.integers(1900, 2020), year_b=st.integers(1900, 2020))
    @settings(max_examples=200)
    def test_bound_dominates_exact_od(self, left, right, year_a, year_b):
        """The filter upper bound must never under-estimate OD similarity
        (otherwise filtering would change detection results)."""
        from repro.config import CandidateSpec
        from repro.core import GkRow
        from repro.core.simmeasure import od_similarity, od_similarity_upper_bound

        spec = CandidateSpec.build(
            "m", "db/m",
            od=[("title/text()", 0.8), ("@year", 0.2, "year")],
            keys=[[("title/text()", "K1")]])
        row_a = GkRow(0, ["K"], [left, str(year_a)])
        row_b = GkRow(1, ["K"], [right, str(year_b)])
        exact = od_similarity(row_a, row_b, spec)
        bound = od_similarity_upper_bound(row_a, row_b, spec)
        assert bound >= exact - 1e-9

    @given(left=st.none() | simple_text, right=st.none() | simple_text)
    @settings(max_examples=150)
    def test_bound_handles_missing_values(self, left, right):
        from repro.config import CandidateSpec
        from repro.core import GkRow
        from repro.core.simmeasure import od_similarity, od_similarity_upper_bound

        spec = CandidateSpec.build(
            "m", "db/m", od=[("title/text()", 1.0)],
            keys=[[("title/text()", "K1")]])
        row_a = GkRow(0, ["K"], [left])
        row_b = GkRow(1, ["K"], [right])
        exact = od_similarity(row_a, row_b, spec)
        bound = od_similarity_upper_bound(row_a, row_b, spec)
        assert bound >= exact - 1e-9


class TestBoundedLevenshteinProperty:
    @given(a=simple_text, b=simple_text, cap=st.integers(0, 12))
    @settings(max_examples=300)
    def test_agrees_with_exact_within_cap(self, a, b, cap):
        from repro.similarity import bounded_levenshtein
        from tests.similarity.reference_levenshtein import (
            levenshtein_distance as frozen_distance)
        exact = frozen_distance(a, b)
        bounded = bounded_levenshtein(a, b, cap)
        if exact <= cap:
            assert bounded == exact
        else:
            assert bounded == cap + 1


class TestKeyGenerationProperty:
    @given(title=simple_text, year=st.integers(1000, 9999))
    @settings(max_examples=200)
    def test_keys_uppercase_and_bounded(self, title, year):
        from repro.keys import KeyDefinition
        from repro.xmlmodel import element

        movie = element("movie", {"year": str(year)},
                        element("title", text=title))
        key = KeyDefinition.create([("title/text()", "K1-K5"),
                                    ("@year", "D3,D4")])
        value = key.generate(movie)
        assert value == value.upper()
        assert len(value) <= 7
        # The year digits always land at the end.
        assert value.endswith(str(year)[2:4])
