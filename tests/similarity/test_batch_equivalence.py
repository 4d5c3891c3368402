"""Differential battery: batched comparison ≡ pair-at-a-time, bitwise.

The batched evaluation layer (:mod:`repro.similarity.batch`) promises
that batching is *purely* a work-saving transformation: every score,
outcome, decision, detected pair, cluster partition, and non-batch
stats counter is bit-identical to mapping the pair-at-a-time path over
the same pairs in the same order.  This battery holds the promise at
every level the batch threads through — the raw plan, the similarity
measure, full detector runs (serial, sharded across worker processes,
and against a warm persistent φ cache), and the relational matchers.
"""

import os

import pytest

from repro.core import ClusterSet, SxnmDetector
from repro.datagen import generate_dirty_movies
from repro.experiments import dataset1_config
from repro.relational import (Condition, FieldRule, Relation, RelationalKey,
                              RuleMatcher, WeightedFieldMatcher,
                              sorted_neighborhood)
from repro.similarity import (ComparisonPlan, ComparisonStats, PairBatch,
                              PhiCache)
from tests.similarity.conftest import FIELDS, random_corpus

#: The only counters allowed to differ between the two paths.
BATCH_ONLY = {"batched_pairs", "batch_prefilter_drops"}

WORKERS = int(os.environ.get("SXNM_TEST_WORKERS", "2"))


def stats_modulo_batch(stats: ComparisonStats) -> dict[str, int]:
    return {name: value for name, value in stats.as_dict().items()
            if name not in BATCH_ONLY}


def make_plan(threshold):
    stats = ComparisonStats()
    return ComparisonPlan(FIELDS, threshold=threshold,
                          phi_cache=PhiCache(32768), stats=stats), stats


def window_blocks(rows, window=5):
    """Blocks shaped like the window kernel's: anchor vs predecessors."""
    blocks = []
    for index in range(len(rows)):
        start = max(0, index - window + 1)
        if start < index:
            blocks.append([(rows[other], rows[index])
                           for other in range(start, index)])
    return blocks


def partition(cluster_set: ClusterSet) -> set[frozenset[int]]:
    return {frozenset(cluster) for cluster in cluster_set}


# ---------------------------------------------------------------------------
# Plan level: evaluate/score/decide over blocks vs per pair


class TestPlanDifferential:
    @pytest.mark.parametrize("threshold", [None, 0.65],
                             ids=["unfiltered", "filtered"])
    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_evaluate_block_identical_outcomes_and_stats(self, seed,
                                                         threshold):
        rows = random_corpus(seed)
        serial_plan, serial_stats = make_plan(threshold)
        batch_plan, batch_stats = make_plan(threshold)
        batch = PairBatch(batch_plan)
        pairs_total = 0
        for block in window_blocks(rows):
            pairs_total += len(block)
            expected = [serial_plan.evaluate(left, right)
                        for left, right in block]
            actual = batch.evaluate_block(block)
            assert [(o.score, o.exact, o.prefiltered, o.fields_evaluated)
                    for o in actual] \
                == [(o.score, o.exact, o.prefiltered, o.fields_evaluated)
                    for o in expected]
        assert stats_modulo_batch(batch_stats) \
            == stats_modulo_batch(serial_stats)
        assert batch_stats.batched_pairs == pairs_total
        if threshold is not None:
            assert batch_stats.batch_prefilter_drops \
                == batch_stats.pairs_prefiltered > 0
        else:
            assert batch_stats.batch_prefilter_drops == 0

    @pytest.mark.parametrize("seed", [5, 23])
    def test_score_block_bitwise_equal(self, seed):
        rows = random_corpus(seed, count=80)
        serial_plan, serial_stats = make_plan(None)
        batch_plan, batch_stats = make_plan(None)
        batch = PairBatch(batch_plan)
        for block in window_blocks(rows):
            assert batch.score_block(block) \
                == [serial_plan.score(left, right) for left, right in block]
        assert stats_modulo_batch(batch_stats) \
            == stats_modulo_batch(serial_stats)

    @pytest.mark.parametrize("seed", [7, 41])
    def test_decide_block_identical_decisions(self, seed):
        rows = random_corpus(seed, count=80)
        serial_plan, _ = make_plan(0.65)
        batch_plan, _ = make_plan(0.65)
        batch = PairBatch(batch_plan)
        for block in window_blocks(rows):
            assert batch.decide_block(block) \
                == [serial_plan.decide(left, right) for left, right in block]

    def test_decide_block_requires_threshold(self):
        plan, _ = make_plan(None)
        with pytest.raises(ValueError):
            PairBatch(plan).decide_block([(["a", None, None],
                                           ["b", None, None])])


# ---------------------------------------------------------------------------
# Detection level: full runs with batch_compare on vs off


DETECTOR_CONFIGS = [
    {},
    {"decision": "combined"},
    {"use_filters": True},
    {"duplicate_elimination": True},
    {"closure_method": "quadratic"},
]
DETECTOR_IDS = ["plain", "combined", "filters", "de", "quadratic"]


@pytest.fixture(scope="module")
def movies():
    return generate_dirty_movies(60, seed=11, profile="effectiveness")


def run_detector(movies, batch, extra=None, **kwargs):
    config = dataset1_config()
    for name, value in (extra or {}).items():
        setattr(config, name, value)
    return SxnmDetector(config, batch_compare=batch, **kwargs).run(
        movies, window=6)


class TestDetectionDifferential:
    @pytest.mark.parametrize("kwargs", DETECTOR_CONFIGS, ids=DETECTOR_IDS)
    def test_batch_equals_serial_everywhere(self, movies, kwargs):
        serial = run_detector(movies, batch=False, **kwargs)
        batched = run_detector(movies, batch=True, **kwargs)
        for name, outcome in serial.outcomes.items():
            other = batched.outcomes[name]
            assert other.pairs == outcome.pairs
            assert other.comparisons == outcome.comparisons
            assert other.filtered_comparisons == outcome.filtered_comparisons
            assert partition(other.cluster_set) == partition(
                outcome.cluster_set)
            assert stats_modulo_batch(other.compare_stats) \
                == stats_modulo_batch(outcome.compare_stats)
            assert outcome.compare_stats.batched_pairs == 0
            # Every window comparison went through the batch layer.
            assert other.compare_stats.batched_pairs == other.comparisons > 0

    def test_parallel_batched_equals_serial_unbatched(self, movies):
        """Batch × workers compose: pairs/partitions stay identical."""
        serial = run_detector(movies, batch=False)
        sharded = run_detector(movies, batch=True,
                               extra={"parallel_min_rows": 0},
                               workers=WORKERS)
        for name, outcome in serial.outcomes.items():
            other = sharded.outcomes[name]
            assert other.pairs == outcome.pairs
            assert partition(other.cluster_set) == partition(
                outcome.cluster_set)
            assert other.comparisons >= outcome.comparisons
            assert (other.comparisons - outcome.comparisons
                    == other.compare_stats.redundant_comparisons)
            # Worker deltas carry the batch counters back to the parent.
            assert other.compare_stats.batched_pairs == other.comparisons

    def test_warm_persistent_cache_batched_equals_cacheless(self, movies,
                                                            tmp_path):
        """Batch × persistent φ cache compose, cold and warm."""
        cache_dir = str(tmp_path / "phi-cache")
        baseline = run_detector(movies, batch=False)
        cold = run_detector(movies, batch=True,
                            extra={"phi_cache_dir": cache_dir})
        warm = run_detector(movies, batch=True,
                            extra={"phi_cache_dir": cache_dir})
        for name, outcome in baseline.outcomes.items():
            for run in (cold, warm):
                other = run.outcomes[name]
                assert other.pairs == outcome.pairs
                assert other.comparisons == outcome.comparisons
                assert partition(other.cluster_set) == partition(
                    outcome.cluster_set)
        cold_total = ComparisonStats()
        warm_total = ComparisonStats()
        for run, total in ((cold, cold_total), (warm, warm_total)):
            for outcome in run.outcomes.values():
                total.merge(outcome.compare_stats)
        assert cold_total.phi_cache_spilled > 0
        assert warm_total.phi_cache_disk_hits > 0
        assert warm_total.phi_cache_spilled == 0
        assert warm_total.batched_pairs == cold_total.batched_pairs > 0


# ---------------------------------------------------------------------------
# Relational matchers: block APIs vs per-pair calls


ROWS = [
    {"name": "John Smith", "addr": "12 Main Street", "city": "Springfield"},
    {"name": "Jon Smith", "addr": "12 Main St", "city": "Springfield"},
    {"name": "Jane Doe", "addr": "4 Elm Road", "city": "Shelbyville"},
    {"name": "Jane Do", "addr": "4 Elm Rd", "city": "Shelbyville"},
    {"name": "Mary Major", "addr": "77 Oak Avenue", "city": "Capital City"},
    {"name": "M. Major", "addr": "77 Oak Ave", "city": "Capital City"},
    {"name": "", "addr": "", "city": ""},
]
RULES = [FieldRule("name", 0.5), FieldRule("addr", 0.3),
         FieldRule("city", 0.2)]


def relation():
    built = Relation(["name", "addr", "city"])
    built.extend(ROWS)
    return built


def record_pairs():
    records = list(relation())
    return [(left, right) for i, left in enumerate(records)
            for right in records[i + 1:]]


class TestRelationalDifferential:
    @pytest.mark.parametrize("use_filters", [True, False],
                             ids=["filtered", "unfiltered"])
    def test_weighted_matcher_match_block(self, use_filters):
        serial = WeightedFieldMatcher(RULES, 0.7, use_filters=use_filters)
        batched = WeightedFieldMatcher(RULES, 0.7, use_filters=use_filters)
        pairs = record_pairs()
        assert batched.match_block(pairs) \
            == [serial(left, right) for left, right in pairs]
        assert stats_modulo_batch(batched.stats) \
            == stats_modulo_batch(serial.stats)
        assert batched.stats.batched_pairs == len(pairs)

    def test_weighted_matcher_similarity_block(self):
        serial = WeightedFieldMatcher(RULES, 0.7)
        batched = WeightedFieldMatcher(RULES, 0.7)
        pairs = record_pairs()
        assert batched.similarity_block(pairs) \
            == [serial.similarity(left, right) for left, right in pairs]

    def test_rule_matcher_match_block(self):
        matcher = RuleMatcher(require=[Condition("name", "edit", 0.7)],
                              alternatives=[Condition("addr", "edit", 0.6),
                                            Condition("city", "exact", 1.0)])
        pairs = record_pairs()
        assert matcher.match_block(pairs) \
            == [matcher(left, right) for left, right in pairs]

    def test_sorted_neighborhood_batch_flag(self):
        key = RelationalKey.create([("name", "K1,K2,K3"), ("city", "K1")])
        serial = sorted_neighborhood(relation(), [key],
                                     WeightedFieldMatcher(RULES, 0.7),
                                     window=3)
        batched = sorted_neighborhood(relation(), [key],
                                      WeightedFieldMatcher(RULES, 0.7),
                                      window=3, batch=True)
        assert batched.pairs == serial.pairs
        assert batched.comparisons == serial.comparisons
        assert sorted(map(sorted, batched.clusters)) \
            == sorted(map(sorted, serial.clusters))

    def test_sorted_neighborhood_batch_needs_block_matcher(self):
        key = RelationalKey.create([("name", "K1,K2")])
        with pytest.raises(ValueError):
            sorted_neighborhood(relation(), [key],
                                lambda left, right: False, batch=True)
