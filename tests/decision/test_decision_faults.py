"""Fault battery: degenerate samples fail loudly, demotion is stable.

The calibrator never silently produces a threshold from a sample that
cannot support one — zero positives, zero negatives, all-tied scores,
single elements, and NaN scores each raise a :class:`DetectionError`
that *itemizes* the problems.  The anti-transitive demotion pass is
pinned to be independent of input iteration order (its tie-breaks are
all on sorted structures).  The legacy grid-search calibrator's results
are pinned exactly so the ``method=`` extension cannot drift them.
"""

import math
import random

import pytest

from repro.clustering import demote_antitransitive
from repro.core import CalibrationResult, SxnmDetector, calibrate_thresholds
from repro.datagen import generate_dataset2
from repro.decision import (ReviewItem, ReviewQueue, calibrate_document,
                            calibrate_three_way, clopper_pearson_upper,
                            conformal_lower_bound, neyman_pearson_cutoff)
from repro.errors import DetectionError
from repro.eval import evaluate_bands, gold_pairs
from repro.experiments import DISC_XPATH, dataset2_config


class TestSampleFaults:
    def test_zero_positives_itemized(self):
        with pytest.raises(DetectionError) as excinfo:
            calibrate_three_way([0.1, 0.2, 0.3, 0.4],
                                [False, False, False, False])
        assert "no positive (duplicate) pairs" in str(excinfo.value)

    def test_zero_negatives_itemized(self):
        with pytest.raises(DetectionError) as excinfo:
            calibrate_three_way([0.1, 0.2], [True, True])
        assert "no negative (non-duplicate) pairs" in str(excinfo.value)

    def test_all_tied_scores_itemized(self):
        with pytest.raises(DetectionError) as excinfo:
            calibrate_three_way([0.5, 0.5, 0.5, 0.5],
                                [True, False, True, False])
        assert "all scores are tied" in str(excinfo.value)

    def test_tied_fit_split_itemized_with_seed_hint(self):
        """The whole sample separates, but the seeded fit split is tied."""
        with pytest.raises(DetectionError) as excinfo:
            calibrate_three_way([0.0] * 7 + [1.0], [True] * 4 + [False] * 4,
                                seed=0)
        message = str(excinfo.value)
        assert "fit split has no two distinct scores" in message
        assert "try more labelled pairs or another seed" in message

    def test_single_element_sample_itemized(self):
        with pytest.raises(DetectionError) as excinfo:
            calibrate_three_way([0.9], [True])
        assert "at least one positive and one negative" in str(excinfo.value)

    def test_nan_scores_itemized_with_count(self):
        with pytest.raises(DetectionError) as excinfo:
            calibrate_three_way([0.1, float("nan"), float("nan"), 0.9],
                                [False, False, True, True])
        assert "2 score(s) are NaN" in str(excinfo.value)

    def test_multiple_problems_all_listed(self):
        """One bad sample, every distinct problem named, not just the first."""
        with pytest.raises(DetectionError) as excinfo:
            calibrate_three_way([float("nan"), float("nan")], [False, False])
        message = str(excinfo.value)
        assert "2 score(s) are NaN" in message
        assert "no positive (duplicate) pairs" in message

    def test_length_mismatch(self):
        with pytest.raises(DetectionError) as excinfo:
            neyman_pearson_cutoff([0.1, 0.2], [True])
        assert "2 scores but 1 labels" in str(excinfo.value)

    def test_bad_parameters(self):
        scores = [0.1, 0.9]
        labels = [False, True]
        with pytest.raises(DetectionError):
            calibrate_three_way(scores, labels, fpr=1.0)
        with pytest.raises(DetectionError):
            calibrate_three_way(scores, labels, coverage=0.0)
        with pytest.raises(DetectionError):
            conformal_lower_bound([], coverage=0.9)
        with pytest.raises(DetectionError):
            conformal_lower_bound([0.5], coverage=1.5)
        with pytest.raises(DetectionError):
            clopper_pearson_upper(3, 0)
        with pytest.raises(DetectionError):
            clopper_pearson_upper(5, 3)

    def test_bad_confidence_and_fit_fraction(self):
        scores = [0.1, 0.9]
        labels = [False, True]
        with pytest.raises(DetectionError) as excinfo:
            clopper_pearson_upper(1, 10, confidence=1.5)
        assert "confidence" in str(excinfo.value)
        with pytest.raises(DetectionError) as excinfo:
            calibrate_three_way(scores, labels, fit_fraction=1.5)
        assert "fit fraction" in str(excinfo.value)
        with pytest.raises(DetectionError):
            neyman_pearson_cutoff(scores, labels, target_fpr=-0.1)
        with pytest.raises(DetectionError):
            conformal_lower_bound([float("nan")])

    def test_inverted_band_rejected(self):
        from repro.decision import ThreeWayCalibration
        with pytest.raises(DetectionError) as excinfo:
            ThreeWayCalibration(
                upper=0.4, lower=0.6, target_fpr=0.05, coverage=0.9,
                confidence=0.95, empirical_fpr=0.0, fpr_upper_bound=0.1,
                fit_positives=1, fit_negatives=1, calibration_positives=1,
                seed=0)
        assert "exceeds AUTO_DUP cutoff" in str(excinfo.value)

    def test_as_dict_carries_every_guarantee_field(self):
        calibration = calibrate_three_way(
            [0.1, 0.2, 0.3, 0.7, 0.8, 0.9, 0.15, 0.85],
            [False, False, False, True, True, True, False, True], seed=1)
        record = calibration.as_dict()
        assert set(record) == {
            "upper", "lower", "target_fpr", "coverage", "confidence",
            "empirical_fpr", "fpr_upper_bound", "fit_positives",
            "fit_negatives", "calibration_positives", "seed"}
        assert record["upper"] == calibration.upper

    def test_unlabelled_corpus_itemizes_every_candidate(self):
        """A corpus without oids names each uncalibratable candidate."""
        document = generate_dataset2(disc_count=20, seed=5)
        for element in document.root.iter():
            element.attributes.pop("oid", None)
        config = dataset2_config()
        with pytest.raises(DetectionError) as excinfo:
            calibrate_document(document, config)
        message = str(excinfo.value)
        assert "cannot calibrate from this corpus" in message
        for spec in config.candidates:
            assert f"candidate {spec.name!r}" in message

    def test_evaluate_bands_rejects_nan_and_mismatch(self):
        from repro.decision import ThreeWayCalibration
        calibration = ThreeWayCalibration.degenerate(0.5)
        with pytest.raises(DetectionError):
            evaluate_bands([0.1], [True, False], calibration)
        with pytest.raises(DetectionError):
            evaluate_bands([], [], calibration)
        with pytest.raises(DetectionError):
            evaluate_bands([float("nan")], [True], calibration)


class TestReviewQueueFaults:
    def test_non_finite_score_rejected(self):
        queue = ReviewQueue()
        with pytest.raises(DetectionError):
            queue.add(ReviewItem("c", 1, 2, "review", math.inf, None, 1.0))

    def test_malformed_jsonl_line_numbered(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        path.write_text('{"candidate": "c", "left_eid": 1, "right_eid": 2, '
                        '"band": "review", "od": 0.5, "descendants": null, '
                        '"combined": 0.5}\nnot json\n', encoding="utf-8")
        with pytest.raises(DetectionError) as excinfo:
            ReviewQueue.load(path)
        assert "line 2" in str(excinfo.value)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        path.write_text('{"candidate": "c"}\n', encoding="utf-8")
        with pytest.raises(DetectionError) as excinfo:
            ReviewQueue.load(path)
        assert "malformed review-queue item" in str(excinfo.value)

    def test_roundtrip(self, tmp_path):
        queue = ReviewQueue()
        queue.add(ReviewItem("c", 3, 1, "review", 0.5, None, 0.5,
                             demoted=True,
                             fields=({"path": "t/text()", "relevance": 1.0,
                                      "phi": "edit", "left": "a",
                                      "right": "b", "similarity": 0.0},)))
        queue.add(ReviewItem("c", 1, 2, "review", 0.6, 0.3, 0.55))
        path = tmp_path / "queue.jsonl"
        assert queue.write(path) == 2
        loaded = ReviewQueue.load(path)
        assert loaded.sorted_items() == queue.sorted_items()
        assert loaded.demoted_count() == 1
        assert loaded.counts_by_candidate() == {"c": 2}


class TestDemotionOrderIndependence:
    @staticmethod
    def build_instance(rng):
        """A random duplicate graph plus keep pairs crossing its clusters."""
        nodes = list(range(rng.randint(4, 12)))
        edges = {}
        for _ in range(rng.randint(3, 20)):
            left, right = rng.sample(nodes, 2)
            key = (min(left, right), max(left, right))
            edges.setdefault(key, round(rng.random(), 2))
        keeps = []
        for _ in range(rng.randint(1, 4)):
            left, right = rng.sample(nodes, 2)
            keeps.append((left, right))
        return edges, keeps

    def test_shuffled_inputs_demote_identically(self):
        """Regression: demotion order must not depend on dict/list order."""
        for trial in range(25):
            rng = random.Random(1000 + trial)
            edges, keeps = self.build_instance(rng)
            baseline_edges = dict(edges)
            baseline = demote_antitransitive(baseline_edges, keeps)
            for shuffle_seed in (1, 2, 3):
                shuffler = random.Random(shuffle_seed)
                items = list(edges.items())
                shuffler.shuffle(items)
                # Reverse some edge orientations too: (b, a) instead of
                # (a, b) must not change the outcome.
                shuffled = {}
                for (left, right), score in items:
                    key = ((right, left) if shuffler.random() < 0.5
                           else (left, right))
                    shuffled[key] = score
                shuffled_keeps = list(keeps)
                shuffler.shuffle(shuffled_keeps)
                result = demote_antitransitive(shuffled, shuffled_keeps)
                assert result == baseline
                assert ({(min(l, r), max(l, r)) for l, r in shuffled}
                        == set(baseline_edges))

    def test_no_violation_is_noop(self):
        edges = {(1, 2): 0.9, (3, 4): 0.8}
        assert demote_antitransitive(edges, [(1, 3)]) == []
        assert edges == {(1, 2): 0.9, (3, 4): 0.8}

    def test_weakest_chain_edge_demoted(self):
        # 1-2-3 chain; keep pair (1, 3) → the weaker edge (2, 3) goes.
        edges = {(1, 2): 0.9, (2, 3): 0.6}
        assert demote_antitransitive(edges, [(3, 1)]) == [(2, 3)]
        assert edges == {(1, 2): 0.9}

    def test_keep_pair_outside_graph_ignored(self):
        edges = {(1, 2): 0.9}
        assert demote_antitransitive(edges, [(7, 8)]) == []


class TestLegacyGridRegression:
    """The ``method=`` extension must not move the legacy grid results."""

    def test_grid_results_pinned(self):
        sample = generate_dataset2(disc_count=40, seed=9)
        config = dataset2_config(window=6)
        gold = gold_pairs(sample, DISC_XPATH)
        result = calibrate_thresholds(sample, config, "disc", gold,
                                      od_grid=[0.5, 0.65, 0.8],
                                      desc_grid=[0.2, 0.4])
        assert result == CalibrationResult(
            candidate_name="disc", od_threshold=0.5, desc_threshold=0.2,
            f_measure=1.0)
        assert result.method == "grid"
        assert result.three_way is None

    def test_grid_is_the_default_method(self):
        sample = generate_dataset2(disc_count=20, seed=9)
        config = dataset2_config(window=6)
        gold = gold_pairs(sample, DISC_XPATH)
        implicit = calibrate_thresholds(sample, config, "disc", gold,
                                        od_grid=[0.65], desc_grid=[0.2])
        explicit = calibrate_thresholds(sample, config, "disc", gold,
                                        od_grid=[0.65], desc_grid=[0.2],
                                        method="grid")
        assert implicit == explicit

    def test_unknown_method_rejected(self):
        sample = generate_dataset2(disc_count=10, seed=9)
        config = dataset2_config()
        with pytest.raises(ValueError):
            calibrate_thresholds(sample, config, "disc", set(),
                                 method="bayes")

    def test_three_way_method_carries_calibration(self):
        sample = generate_dataset2(disc_count=40, seed=9)
        config = dataset2_config(window=6)
        gold = gold_pairs(sample, DISC_XPATH)
        result = calibrate_thresholds(sample, config, "disc", gold,
                                      method="three-way", fpr=0.1, seed=3)
        assert result.method == "three-way"
        assert result.three_way is not None
        assert result.od_threshold == result.three_way.upper
        assert result.three_way.empirical_fpr <= 0.1
        calibrated = result.apply_to(config)
        assert calibrated.decision_mode == "three-way"
        assert config.decision_mode == "threshold"  # original untouched
        # The calibrated config actually drives a three-way run.
        detection = SxnmDetector(
            calibrated, calibration={"disc": result.three_way}).run(sample)
        stats = detection.outcomes["disc"].compare_stats
        assert stats.pairs_auto_dup + stats.pairs_review \
            + stats.pairs_auto_keep > 0
