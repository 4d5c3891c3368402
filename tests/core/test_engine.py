"""Unit tests for the detection engine and its four stage protocols."""

import pytest

from repro.config import CandidateSpec, SxnmConfig
from repro.core import (AdaptiveWindowStrategy, AllPairsStrategy,
                        CandidateContext, CandidateHierarchy, ClosureStrategy,
                        DecisionPolicy, DetectionEngine, DomKeySource,
                        EngineStages, FixedWindowStrategy, GkRow, GkTable,
                        KeySource, LiveClosure, MethodClosure,
                        NeighborhoodStrategy, ObserverGroup, OdOnlyPolicy,
                        ParentGroupedStrategy, PrecomputedKeySource,
                        QuadraticClosure, SimilarityMeasure,
                        StreamingKeySource, TheoryPolicy, ThresholdPolicy,
                        UnionFindClosure, XmlEquationalTheory, OdCondition,
                        select_key_indices)
from repro.core.engine import TOP_DOWN
from repro.core.observer import EngineObserver
from repro.core.simmeasure import PairVerdict
from repro.core.stages import od_only_spec

ITEMS_XML = """
<db>
  <item><name>alpha</name></item>
  <item><name>alpha</name></item>
  <item><name>beta</name></item>
  <item><name>gamma</name></item>
</db>
"""


def item_config(window=3) -> SxnmConfig:
    config = SxnmConfig(window_size=window, od_threshold=0.55,
                        desc_threshold=0.3)
    config.add(CandidateSpec.build(
        "item", "db/item",
        od=[("name/text()", 1.0)],
        keys=[[("name/text()", "K1-K4")]]))
    return config


def toy_table(keys, ods=None) -> GkTable:
    table = GkTable("item", key_count=1, od_count=1)
    for eid, key in enumerate(keys):
        od = key if ods is None else ods[eid]
        table.add(GkRow(eid, [key], [od]))
    return table


class KeyEqualDecider:
    """Stub decider: a pair is a duplicate iff the first keys match."""

    def __init__(self):
        self.filtered_comparisons = 0

    def compare(self, left, right):
        return PairVerdict(0.0, None, 0.0, left.keys[0] == right.keys[0])


def make_ctx(table, window=3, config=None, compare=None, emit=None):
    config = config or item_config(window)
    hierarchy = CandidateHierarchy(config)
    node = hierarchy.order[-1]
    compare = compare or KeyEqualDecider().compare
    return CandidateContext(
        node=node, spec=node.spec, config=config, table=table,
        tables={table.candidate_name: table}, window=window,
        key_indices=list(range(table.key_count)), compare=compare,
        pairs=set(), cluster_sets={}, emit=emit)


# ---------------------------------------------------------------------------
# select_key_indices (the experiments' pass-selection helper)


class TestSelectKeyIndices:
    def test_none_selects_all(self):
        assert select_key_indices(toy_table(["a"]), None) == [0]

    def test_int_and_list(self):
        table = GkTable("item", key_count=3, od_count=0)
        assert select_key_indices(table, 1) == [1]
        assert select_key_indices(table, [2, 0]) == [2, 0]

    def test_duplicates_collapse_preserving_order(self):
        table = GkTable("item", key_count=3, od_count=0)
        assert select_key_indices(table, [2, 2, 0, 2, 0]) == [2, 0]

    def test_out_of_range_dropped(self):
        table = GkTable("item", key_count=2, od_count=0)
        assert select_key_indices(table, [5, 1, -1]) == [1]

    def test_empty_resolution_falls_back_and_warns(self):
        table = GkTable("item", key_count=2, od_count=0)
        warnings = []
        assert select_key_indices(table, [7], warn=warnings.append) == [0, 1]
        assert len(warnings) == 1
        assert "falling back" in warnings[0]

    def test_fallback_is_silent_without_warn(self):
        table = GkTable("item", key_count=1, od_count=0)
        assert select_key_indices(table, 9) == [0]


# ---------------------------------------------------------------------------
# KeySource


class TestKeySources:
    def test_protocol_conformance(self):
        for source in (DomKeySource(), StreamingKeySource(),
                       PrecomputedKeySource({})):
            assert isinstance(source, KeySource)

    def test_dom_and_streaming_agree(self):
        config = item_config()
        hierarchy = CandidateHierarchy(config)
        dom = DomKeySource().generate(ITEMS_XML, config, hierarchy)
        streaming = StreamingKeySource().generate(ITEMS_XML, config, hierarchy)
        def rows(tables):
            return [(row.eid, row.keys, row.ods) for row in tables["item"]]

        assert rows(dom) == rows(streaming)

    def test_precomputed_serves_given_tables(self):
        tables = {"item": toy_table(["a"])}
        served = PrecomputedKeySource(tables).generate(
            "<ignored/>", item_config(), None)
        assert served is tables


# ---------------------------------------------------------------------------
# DecisionPolicy


class TestDecisionPolicies:
    def test_protocol_conformance(self):
        for policy in (ThresholdPolicy(), TheoryPolicy({}), OdOnlyPolicy()):
            assert isinstance(policy, DecisionPolicy)

    def test_threshold_policy_configures_measure(self):
        config = item_config()
        spec = config.candidates[0]
        decider = ThresholdPolicy("combined").decider(spec, config, {}, None)
        assert isinstance(decider, SimilarityMeasure)
        assert decider.decision == "combined"
        filtered = ThresholdPolicy("gates", use_filters=True).decider(
            spec, config, {}, None)
        assert filtered.use_filters

    def test_theory_policy_routes_per_candidate(self):
        config = item_config()
        spec = config.candidates[0]
        theory = XmlEquationalTheory(require=[OdCondition("name/text()")])
        policy = TheoryPolicy({"item": theory})
        decider = policy.decider(spec, config, {}, None)
        assert decider.theory is theory
        other = CandidateSpec.build("other", "db/other",
                                    od=[("text()", 1.0)],
                                    keys=[[("text()", "K1-K4")]])
        fallback = policy.decider(other, config, {}, None)
        assert isinstance(fallback, SimilarityMeasure)

    def test_od_only_policy_ignores_descendants(self):
        config = item_config()
        spec = config.candidates[0]
        decider = OdOnlyPolicy().decider(spec, config,
                                         {"child": object()}, None)
        assert not decider.spec.use_descendants
        # The original spec is untouched (a copy is classified).
        assert od_only_spec(spec) is not spec


# ---------------------------------------------------------------------------
# NeighborhoodStrategy


class TestNeighborhoodStrategies:
    def test_protocol_conformance(self):
        for strategy in (FixedWindowStrategy(), AdaptiveWindowStrategy(),
                         AllPairsStrategy(), ParentGroupedStrategy()):
            assert isinstance(strategy, NeighborhoodStrategy)

    def test_fixed_window_counts_and_pairs(self):
        ctx = make_ctx(toy_table(["a", "a", "b", "c"]), window=2)
        outcome = FixedWindowStrategy().find_pairs(ctx)
        # Window 2 compares each row to its single predecessor.
        assert outcome.comparisons == 3
        assert ctx.pairs == {(0, 1)}

    def test_de_window_compares_representatives(self):
        ctx = make_ctx(toy_table(["a", "a", "b"]), window=2)
        outcome = FixedWindowStrategy(duplicate_elimination=True) \
            .find_pairs(ctx)
        # One anchor comparison inside the "a" group, then one windowed
        # comparison between the two representatives.
        assert outcome.comparisons == 2
        assert ctx.pairs == {(0, 1)}

    def test_adaptive_validates_window_bounds(self):
        with pytest.raises(ValueError):
            AdaptiveWindowStrategy(min_window=1)
        with pytest.raises(ValueError):
            AdaptiveWindowStrategy(min_window=5, max_window=3)

    def test_adaptive_extends_over_similar_keys(self):
        table = toy_table(["record-1", "record-2", "record-3", "zzz"])
        seen = []

        class Recorder(KeyEqualDecider):
            def compare(self, left, right):
                seen.append((left.eid, right.eid))
                return super().compare(left, right)

        ctx = make_ctx(table, window=2, compare=Recorder().compare)
        AdaptiveWindowStrategy(min_window=2, max_window=10,
                               key_similarity_floor=0.6).find_pairs(ctx)
        # The similar record-* keys chain into one neighborhood...
        assert (0, 2) in seen
        # ...but the dissimilar zzz key stays at the minimum window.
        assert (0, 3) not in seen

    def test_all_pairs_without_filters_is_quadratic(self):
        ctx = make_ctx(toy_table(["a", "b", "c", "d"]))
        outcome = AllPairsStrategy(use_filters=False).find_pairs(ctx)
        assert outcome.comparisons == 6
        assert outcome.filtered == 0

    def test_all_pairs_filters_prune_cheaply(self):
        config = item_config()
        spec = config.candidates[0]
        table = toy_table(["a", "b"], ods=["identical text",
                                           "zzzzzzzzzzzzzzzzzzzzzzzz"])
        measure = SimilarityMeasure(spec, config, {})
        ctx = make_ctx(table, config=config, compare=measure.compare)
        outcome = AllPairsStrategy(use_filters=True).find_pairs(ctx)
        assert outcome.filtered == 1
        assert outcome.comparisons == 0

    def test_parent_grouped_is_top_down(self):
        assert ParentGroupedStrategy.traversal == TOP_DOWN
        assert FixedWindowStrategy.traversal == "bottom_up"


# ---------------------------------------------------------------------------
# ClosureStrategy


class TestClosureStrategies:
    PAIRS = {(1, 2), (2, 3)}
    UNIVERSE = [1, 2, 3, 4]

    def partition(self, cluster_set):
        return {frozenset(cluster) for cluster in cluster_set}

    def test_protocol_conformance(self):
        for closure in (UnionFindClosure(), QuadraticClosure(),
                        MethodClosure("union_find"), LiveClosure()):
            assert isinstance(closure, ClosureStrategy)

    def test_union_find_and_quadratic_agree(self):
        expected = {frozenset({1, 2, 3}), frozenset({4})}
        for closure in (UnionFindClosure(), QuadraticClosure()):
            result = closure.close("item", self.PAIRS, self.UNIVERSE)
            assert self.partition(result) == expected

    def test_method_closure_fails_late(self):
        closure = MethodClosure("not-a-method")  # construction succeeds
        with pytest.raises(ValueError):
            closure.close("item", self.PAIRS, self.UNIVERSE)

    def test_live_closure_persists_across_calls(self):
        closure = LiveClosure()
        first = closure.close("item", {(1, 2)}, [1, 2, 3])
        assert self.partition(first) == {frozenset({1, 2}), frozenset({3})}
        second = closure.close("item", {(3, 4)}, [1, 2, 3, 4])
        assert self.partition(second) == {frozenset({1, 2}),
                                          frozenset({3, 4})}
        assert self.partition(first) == {frozenset({1, 2}), frozenset({3})}
        assert self.partition(closure.labels("item").snapshot("item")) \
            == self.partition(second)


# ---------------------------------------------------------------------------
# The engine itself


class TestDetectionEngine:
    def test_defaults_reproduce_plain_sxnm(self):
        engine = DetectionEngine(item_config())
        result = engine.run(ITEMS_XML)
        assert result.pairs("item") == {(1, 3)}  # the two alpha items
        assert len(result.cluster_set("item")) == 3

    def test_order_reverses_for_top_down(self):
        bottom_up = DetectionEngine(item_config())
        top_down = DetectionEngine(item_config(),
                                   neighborhood=ParentGroupedStrategy())
        assert top_down.order == list(reversed(bottom_up.order))

    def test_precomputed_gk_skips_key_generation(self):
        engine = DetectionEngine(item_config())
        first = engine.run(ITEMS_XML)
        again = engine.run(ITEMS_XML, gk=first.gk)
        assert again.pairs("item") == first.pairs("item")
        assert again.gk is first.gk

    def test_od_cache_is_populated_and_shared(self):
        engine = DetectionEngine(item_config())
        cache: dict = {}
        first = engine.run(ITEMS_XML, od_cache=cache)
        assert cache["item"]  # per-candidate cache filled
        cached = dict(cache["item"])
        engine.run(ITEMS_XML, gk=first.gk, od_cache=cache)
        assert cache["item"] == cached

    def test_add_and_remove_observer(self):
        engine = DetectionEngine(item_config())
        observer = EngineObserver()
        engine.add_observer(observer)
        assert observer in engine.observers
        engine.remove_observer(observer)
        assert observer not in engine.observers

    def test_stage_bundle_defaults(self):
        stages = EngineStages()
        assert isinstance(stages.key_source, DomKeySource)
        assert isinstance(stages.neighborhood, FixedWindowStrategy)
        assert isinstance(stages.decision, ThresholdPolicy)
        assert isinstance(stages.closure, UnionFindClosure)

    def test_custom_stage_composition(self):
        """A hybrid engine: precomputed keys, all-pairs, live closure."""
        seed = DetectionEngine(item_config()).run(ITEMS_XML)
        hybrid = DetectionEngine(
            item_config(),
            key_source=PrecomputedKeySource(seed.gk),
            neighborhood=AllPairsStrategy(use_filters=False),
            closure=LiveClosure())
        result = hybrid.run("<unused/>")
        assert result.pairs("item") == seed.pairs("item")
        assert result.outcomes["item"].comparisons == 6

    def test_context_helpers_are_noops_without_emit(self):
        ctx = make_ctx(toy_table(["a"]))
        ctx.pass_started(0)
        ctx.pass_finished(0, 0)
        ctx.pair_filtered(1, 2)  # no observer attached: must not raise

    def test_context_helpers_forward_to_observers(self):
        events = []

        class Recorder(EngineObserver):
            def pass_started(self, candidate, key_index):
                events.append(("pass_started", candidate, key_index))

            def pair_filtered(self, candidate, left_eid, right_eid):
                events.append(("pair_filtered", candidate, left_eid,
                               right_eid))

        ctx = make_ctx(toy_table(["a"]), emit=ObserverGroup([Recorder()]))
        ctx.pass_started(3)
        ctx.pair_filtered(1, 2)
        assert events == [("pass_started", "item", 3),
                          ("pair_filtered", "item", 1, 2)]
