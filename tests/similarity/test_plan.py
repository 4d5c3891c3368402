"""The compiled comparison plane: plans, caches, pruning, stats."""

import random

import pytest

from repro.similarity import (CompiledCondition, ComparisonPlan,
                              ComparisonStats, PhiCache, PhiTraits, PlanField,
                              levenshtein_similarity,
                              register_similarity, reset_registry)
from tests.similarity.conftest import FIELDS, naive_score, random_corpus


class TestPhiCache:
    def test_lru_eviction(self):
        cache = PhiCache(2)
        cache.put(("edit", "a", "b"), 0.1)
        cache.put(("edit", "a", "c"), 0.2)
        assert cache.get(("edit", "a", "b")) == 0.1  # refresh recency
        cache.put(("edit", "a", "d"), 0.3)           # evicts ("a", "c")
        assert cache.get(("edit", "a", "c")) is None
        assert cache.get(("edit", "a", "b")) == 0.1
        assert cache.get(("edit", "a", "d")) == 0.3
        assert len(cache) == 2

    def test_hit_miss_counters(self):
        cache = PhiCache(8)
        assert cache.get(("edit", "x", "y")) is None
        cache.put(("edit", "x", "y"), 0.5)
        assert cache.get(("edit", "x", "y")) == 0.5
        assert cache.hits == 1
        assert cache.misses == 1

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            PhiCache(0)

    def test_clear_resets_counters(self):
        # Regression: clear() used to drop the entries but keep stale
        # hit/miss counters, so a cleared cache reported history it no
        # longer had.
        cache = PhiCache(8)
        cache.get(("edit", "x", "y"))
        cache.put(("edit", "x", "y"), 0.5)
        cache.get(("edit", "x", "y"))
        assert (cache.hits, cache.misses) == (1, 1)
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.disk_hits) == (0, 0, 0)

    def test_reset_stats_keeps_entries(self):
        cache = PhiCache(8)
        cache.put(("edit", "x", "y"), 0.5)
        cache.get(("edit", "x", "y"))
        cache.reset_stats()
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.get(("edit", "x", "y")) == 0.5  # entry survived

    def test_pickles_as_empty_cache(self):
        import pickle
        cache = PhiCache(16)
        cache.put(("edit", "x", "y"), 0.5)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.maxsize == 16
        assert len(clone) == 0
        assert clone.spill is None


class TestPlanScore:
    def test_bitwise_equal_to_naive_loop(self):
        plan = ComparisonPlan(FIELDS)
        rows = random_corpus(11)
        for left in rows[:40]:
            for right in rows[40:80]:
                assert plan.score(left, right) == naive_score(FIELDS, left,
                                                              right)

    def test_missing_value_semantics(self):
        plan = ComparisonPlan(FIELDS)
        # Both missing: field skipped, weights renormalized.
        assert plan.score(["abc", None, None],
                          ["abc", None, None]) == 1.0
        # One missing: weight counts, contributes zero.
        one_missing = plan.score(["abc", "1999", None],
                                 ["abc", "1999", "xyz"])
        assert one_missing == pytest.approx(0.8)
        # Everything missing: zero.
        assert plan.score([None, None, None], [None, None, None]) == 0.0

    def test_upper_bound_dominates_score(self):
        plan = ComparisonPlan(FIELDS)
        rows = random_corpus(13)
        for left in rows[:40]:
            for right in rows[40:80]:
                assert (plan.upper_bound(left, right)
                        >= plan.score(left, right))

    def test_memoization_counts(self):
        stats = ComparisonStats()
        plan = ComparisonPlan(FIELDS, phi_cache=PhiCache(1024), stats=stats)
        left = ["matrix", "1999", "alien"]
        right = ["matrlx", "1999", "aliens"]
        first = plan.score(left, right)
        misses = stats.phi_cache_misses
        second = plan.score(left, right)
        assert first == second
        assert stats.phi_cache_misses == misses  # all hits the second time
        assert stats.phi_cache_hits > 0

    def test_symmetric_cache_key_normalization(self):
        stats = ComparisonStats()
        plan = ComparisonPlan([PlanField("title", 1.0, "edit")],
                              phi_cache=PhiCache(64), stats=stats)
        plan.score(["matrix"], ["matrlx"])
        plan.score(["matrlx"], ["matrix"])  # reversed pair must hit
        assert stats.phi_cache_hits == 1


class TestPlanPruning:
    def test_decisions_match_exact_scores(self):
        for threshold in (0.5, 0.65, 0.8, 0.95):
            stats = ComparisonStats()
            plan = ComparisonPlan(FIELDS, threshold=threshold,
                                  phi_cache=PhiCache(4096), stats=stats)
            exact_plan = ComparisonPlan(FIELDS)
            rows = random_corpus(17)
            for left in rows[:50]:
                for right in rows[50:100]:
                    outcome = plan.evaluate(left, right)
                    exact = exact_plan.score(left, right)
                    assert ((outcome.exact
                             and outcome.score >= threshold)
                            == (exact >= threshold))
                    if outcome.exact:
                        assert outcome.score == exact
                    else:
                        # Inexact scores are dominating bounds below the
                        # threshold, proving the exact score fails too.
                        assert outcome.score >= exact
                        assert outcome.score < threshold

    def test_decide_equals_thresholded_exact_score(self):
        plan = ComparisonPlan(FIELDS, threshold=0.65,
                              phi_cache=PhiCache(4096))
        exact_plan = ComparisonPlan(FIELDS)
        rows = random_corpus(41, count=80)
        for left, right in zip(rows, rows[1:]):
            assert plan.decide(left, right) \
                == (exact_plan.score(left, right) >= 0.65)
        with pytest.raises(ValueError):
            exact_plan.decide(rows[0], rows[1])

    def test_probe_and_resolve_edge_cases(self):
        plan = ComparisonPlan(FIELDS, threshold=0.65)
        missing = [None, None, None]
        probe = plan.probe(missing, missing)
        assert (probe.score, probe.prefiltered) == (0.0, False)
        assert plan.resolve(probe).score == 0.0
        assert plan.resolve(probe).exact
        # Without a threshold, resolve scores every present field exactly.
        exact_plan = ComparisonPlan(FIELDS)
        left, right = ["matrix", "1999", None], ["matrlx", "1999", None]
        outcome = exact_plan.resolve(exact_plan.probe(left, right))
        assert outcome.exact
        assert outcome.score == exact_plan.score(left, right)
        assert outcome.fields_evaluated == 2

    def test_field_rules_compile_like_plan_fields(self):
        from repro.relational import FieldRule
        rules = [FieldRule(spec.label, spec.weight, spec.phi)
                 for spec in FIELDS]
        from_rules = ComparisonPlan.from_field_rules(rules)
        plan = ComparisonPlan(FIELDS)
        rows = random_corpus(5, count=40)
        for left, right in zip(rows, rows[1:]):
            assert from_rules.score(left, right) == plan.score(left, right)

    def test_prefilter_counts(self):
        stats = ComparisonStats()
        plan = ComparisonPlan([PlanField("title", 1.0, "edit")],
                              threshold=0.9, stats=stats)
        outcome = plan.evaluate(["completely different"], ["zzz"])
        assert outcome.prefiltered and not outcome.exact
        assert stats.pairs_prefiltered == 1
        assert stats.fields_evaluated == 0  # no φ ever ran

    def test_cheap_field_rejection_skips_edit_distance(self):
        # "exact" (cost 0) is evaluated before "edit" (cost 3); with the
        # cheap field already refuting the threshold, the weighted-sum
        # abort fires before any edit DP runs.
        stats = ComparisonStats()
        fields = [PlanField("id", 0.6, "exact"),
                  PlanField("blob", 0.4, "edit")]
        plan = ComparisonPlan(fields, threshold=0.5, stats=stats)
        # Same lengths and bags, so the pair-level bound cannot reject;
        # only the in-pair abort after the exact-match miss can.
        outcome = plan.evaluate(["abcd", "stressed"], ["dcba", "desserts"])
        assert not outcome.exact
        assert stats.pairs_pruned == 1
        assert stats.edit_full_evals == 0
        assert stats.edit_bounded_evals == 0
        assert stats.fields_skipped == 1

    def test_stats_merge_and_rates(self):
        one = ComparisonStats(phi_cache_hits=3, phi_cache_misses=1,
                              fields_evaluated=8, filter_short_circuits=2)
        two = ComparisonStats(phi_cache_hits=1, phi_cache_misses=3)
        one.merge(two)
        assert one.phi_cache_hits == 4
        assert one.phi_cache_misses == 4
        assert one.phi_cache_hit_rate == 0.5
        assert one.filter_short_circuit_rate == 0.25
        assert ComparisonStats().phi_cache_hit_rate == 0.0
        assert set(two.as_dict()) == set(one.as_dict())

    def test_later_counters_survive_merge_and_as_dict(self):
        # Regression: as_dict() used to enumerate counters by hand, so
        # merge() (which iterates that dict) silently dropped any field
        # added later — the parallel workers' stats-delta protocol would
        # have lost such counters the same way.
        one = ComparisonStats(redundant_comparisons=5, pairs_review=2)
        two = ComparisonStats(redundant_comparisons=7, pairs_review=1)
        one.merge(two)
        assert one.redundant_comparisons == 12
        assert one.pairs_review == 3
        assert one.as_dict()["redundant_comparisons"] == 12
        assert one.as_dict()["pairs_review"] == 3

    def test_as_dict_enumerates_every_dataclass_field(self):
        import dataclasses
        stats = ComparisonStats(redundant_comparisons=1)
        assert set(stats.as_dict()) \
            == {field.name for field in dataclasses.fields(stats)}

    def test_mapping_counters_survive_merge_and_as_dict(self):
        # Regression: merge() used to add every field with plain `+`,
        # so the first mapping-valued field (the per-strategy
        # attribution counters) would have raised — or, had as_dict()
        # shallow-copied, leaked shared dicts across PassResults.
        one = ComparisonStats(pairs_scored=2)
        one.strategy_counters["window"] = {"generated": 5, "compared": 3}
        two = ComparisonStats(pairs_scored=4)
        two.strategy_counters["window"] = {"generated": 2, "compared": 1}
        two.strategy_counters["minhash-lsh"] = {"generated": 9}
        one.merge(two)
        assert one.pairs_scored == 6
        assert one.strategy_counters == {
            "window": {"generated": 7, "compared": 4},
            "minhash-lsh": {"generated": 9}}
        snapshot = one.as_dict()
        assert snapshot["strategy_counters"] == one.strategy_counters
        # Deep copy: mutating the snapshot must not leak back.
        snapshot["strategy_counters"]["window"]["generated"] = 999
        assert one.strategy_counters["window"]["generated"] == 7

    def test_delta_subtracts_every_field_including_mappings(self):
        stats = ComparisonStats(pairs_scored=10, redundant_comparisons=4)
        stats.strategy_counters["window"] = {"generated": 8, "compared": 6}
        before = ComparisonStats(pairs_scored=3, redundant_comparisons=4)
        before.strategy_counters["window"] = {"generated": 2, "compared": 6}
        delta = stats.delta(before.as_dict())
        assert delta.pairs_scored == 7
        assert delta.redundant_comparisons == 0
        # Zero-valued counter entries drop out of the delta entirely.
        assert delta.strategy_counters == {"window": {"generated": 6}}


class TestCustomPhiTraits:
    def teardown_method(self):
        reset_registry()

    def test_registered_phi_gets_filter_binding(self):
        # A user φ with registered bounds is pruned like the edit family.
        def never_similar(left, right):
            raise AssertionError("full phi must not run")

        def zero_bound(left, right):
            return 0.0

        register_similarity("hopeless", never_similar,
                            traits=PhiTraits(cost=3, symmetric=True,
                                             upper_bounds=(zero_bound,)))
        plan = ComparisonPlan([PlanField("f", 1.0, "hopeless")],
                              threshold=0.5)
        outcome = plan.evaluate(["abc"], ["abd"])
        assert outcome.prefiltered and not outcome.exact

    def test_traitless_phi_defaults_are_sound(self):
        register_similarity("always", lambda left, right: 1.0)
        plan = ComparisonPlan([PlanField("f", 1.0, "always")], threshold=0.9)
        outcome = plan.evaluate(["x"], ["y"])
        assert outcome.exact and outcome.score == 1.0

    def test_reset_registry_restores_builtin_traits(self):
        register_similarity("edit", lambda left, right: 0.0, overwrite=True)
        reset_registry()
        plan = ComparisonPlan([PlanField("f", 1.0, "edit")])
        assert plan.score(["same"], ["same"]) == 1.0


class TestCompiledCondition:
    def test_matches_plain_threshold_test(self):
        condition = CompiledCondition("edit", 0.8, phi_cache=PhiCache(256))
        rng = random.Random(23)
        words = ["matrix", "matrlx", "casablanca", "kasablanca", "x", ""]
        for _ in range(300):
            left, right = rng.choice(words), rng.choice(words)
            expected = levenshtein_similarity(left, right) >= 0.8
            assert condition.holds(left, right) == expected

    def test_filter_short_circuit_counts(self):
        condition = CompiledCondition("edit", 0.9)
        assert not condition.holds("short", "a much longer string")
        assert condition.stats.filter_short_circuits == 1
        assert condition.stats.edit_full_evals == 0

    def test_unfiltered_mode(self):
        condition = CompiledCondition("edit", 0.9, use_filters=False)
        assert condition.holds("same", "same")
        assert not condition.holds("short", "a much longer string")
        assert condition.stats.filter_short_circuits == 0
