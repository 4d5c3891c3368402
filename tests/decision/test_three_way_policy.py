"""Three-way policy integration: detector, queue, CLI, config, FS.

End-to-end checks that the calibrated band actually drives detection:
the review queue reconciles *exactly* with the plane's band counters,
observers see the calibration and every demotion, the CLI round-trips a
queue to JSONL and back, and the ``<decision>`` config element survives
dump/load.  The Fellegi–Sunter variant gets the same calibrator.
"""

import json

import pytest

from repro.config import (dump_config, load_config, load_config_file,
                          save_config_file, validate_config)
from repro.core import CounterObserver, SxnmDetector
from repro.datagen import generate_dirty_movies
from repro.decision import ReviewQueue, ThreeWayCalibration, calibrate_document
from repro.errors import DetectionError
from repro.experiments import dataset1_config
from repro.relational import (FieldModel, Record, band_of,
                              calibrate_fellegi_sunter)
from repro.xmlmodel import serialize


def partition(cluster_set):
    return {frozenset(cluster)
            for cluster in cluster_set.duplicate_clusters()}


# 80 dirty movies at seed 7 calibrate to a genuinely open band
# (lower < upper) at fpr=0.05 — the interesting regime where REVIEW
# pairs and demotions actually occur.
@pytest.fixture(scope="module")
def movie_corpus():
    return generate_dirty_movies(80, seed=7)


@pytest.fixture(scope="module")
def movie_calibration(movie_corpus):
    calibration = calibrate_document(movie_corpus, dataset1_config(),
                                     fpr=0.05, seed=0)
    assert any(cal.band_width > 0 for cal in calibration.values())
    return calibration


class TestThreeWayDetection:
    def test_queue_reconciles_with_band_counters(self, movie_corpus,
                                                 movie_calibration):
        queue = ReviewQueue()
        counter = CounterObserver()
        result = SxnmDetector(dataset1_config(), decision="three-way",
                              calibration=movie_calibration,
                              review_queue=queue,
                              observers=[counter]).run(movie_corpus)
        total_review = 0
        by_candidate = queue.counts_by_candidate()
        for name, outcome in result.outcomes.items():
            stats = outcome.compare_stats
            assert stats is not None
            assert stats.pairs_auto_dup + stats.pairs_review \
                + stats.pairs_auto_keep > 0
            # Every pair the plane banded REVIEW (including demotions)
            # is in the queue, exactly once.
            assert by_candidate.get(name, 0) == stats.pairs_review
            total_review += stats.pairs_review
        assert len(queue) == total_review
        demoted = sum(1 for item in queue if item.demoted)
        assert demoted == queue.demoted_count()
        assert counter.counts.get("pair_demoted", 0) == demoted

    def test_observer_sees_calibration_and_demotions(self, movie_corpus,
                                                     movie_calibration):
        counter = CounterObserver()
        SxnmDetector(dataset1_config(), decision="three-way",
                     calibration=movie_calibration,
                     review_queue=ReviewQueue(),
                     observers=[counter]).run(movie_corpus)
        assert counter.counts.get("decision_calibrated", 0) \
            == len(movie_calibration)

    def test_three_way_finds_no_fewer_duplicates_than_auto_band(
            self, movie_corpus, movie_calibration):
        """REVIEW pairs are excluded from closure: the three-way pair set
        is exactly the AUTO_DUP pairs (minus demotions, which also came
        out of AUTO_DUP)."""
        queue = ReviewQueue()
        result = SxnmDetector(dataset1_config(), decision="three-way",
                              calibration=movie_calibration,
                              review_queue=queue).run(movie_corpus)
        for name, outcome in result.outcomes.items():
            stats = outcome.compare_stats
            assert len(outcome.pairs) <= stats.pairs_auto_dup

    def test_shorthand_equals_explicit_mode(self, movie_corpus,
                                            movie_calibration):
        shorthand = SxnmDetector(dataset1_config(), decision="three-way",
                                 calibration=movie_calibration,
                                 ).run(movie_corpus)
        explicit = SxnmDetector(dataset1_config(), decision="gates",
                                decision_mode="three-way",
                                calibration=movie_calibration,
                                ).run(movie_corpus)
        for name in shorthand.outcomes:
            assert shorthand.pairs(name) == explicit.pairs(name)
            assert partition(shorthand.cluster_set(name)) \
                == partition(explicit.cluster_set(name))

    def test_unknown_decision_rejected(self):
        with pytest.raises(DetectionError):
            SxnmDetector(dataset1_config(), decision="coinflip")

    def test_degenerate_calibration_has_empty_review_band(self, movie_corpus):
        config = dataset1_config()
        spec = config.candidates[0]
        calibration = {spec.name: ThreeWayCalibration.degenerate(
            config.effective_od_threshold(spec))}
        queue = ReviewQueue()
        result = SxnmDetector(config, decision="three-way",
                              calibration=calibration,
                              review_queue=queue).run(movie_corpus)
        assert len(queue) == 0
        for outcome in result.outcomes.values():
            assert outcome.compare_stats.pairs_review == 0
            assert outcome.compare_stats.pairs_auto_dup \
                == len(outcome.pairs)


class TestThreeWayMeasureUnit:
    """Drive the decider directly: blocks, bands, filters, overrides."""

    @staticmethod
    def open_calibration(lower=0.4, upper=0.8):
        import dataclasses
        return dataclasses.replace(ThreeWayCalibration.degenerate(upper),
                                   lower=lower)

    @staticmethod
    def measure(calibration, **kwargs):
        from repro.decision import ThreeWayPolicy
        config = dataset1_config()
        spec = config.candidates[0]
        policy = ThreeWayPolicy(calibration={"movie": calibration}, **kwargs)
        return policy.decider(spec, config, {}, {})

    @staticmethod
    def rows():
        from repro.core.gk import GkRow
        return (GkRow(1, [], ["Once Upon a Time in the West", "139"]),
                GkRow(2, [], ["Once Upon a Tim in the West", "139"]),
                GkRow(3, [], ["zzz", "5"]))

    def test_compare_bands_every_pair(self):
        near, near2, far = self.rows()
        measure = self.measure(self.open_calibration())
        for left, right in [(near, near2), (near, far), (near2, far)]:
            measure.compare(left, right)
        counts = measure.band_counts()
        assert sum(counts.values()) == 3
        assert measure.band(2, 1) == "auto_dup"
        assert measure.band(1, 3) == "auto_keep"
        assert measure.band(5, 6) is None

    def test_filtered_plan_rebuilt_at_band_floor(self):
        near, _, far = self.rows()
        filtered = self.measure(self.open_calibration(), use_filters=True)
        verdict = filtered.compare(near, far)
        assert not verdict.is_duplicate
        # Prefiltered/pruned pairs still land in a band — AUTO_KEEP,
        # because the rebuilt plan proves score < lower.
        assert filtered.band(1, 3) == "auto_keep"
        unfiltered = self.measure(self.open_calibration())
        assert unfiltered.compare(near, far).od == pytest.approx(
            verdict.od, abs=1e-9) or verdict.od <= 0.4

    def test_consistency_override_disables_demotion(self):
        measure = self.measure(self.open_calibration(), consistency=False)
        assert measure._consistency_active() is False
        assert measure.demote_inconsistent({(1, 2)}) == []

    def test_demotion_skipped_for_foreign_pairs(self):
        # A confirmed pair this decider never classified (parallel shard,
        # restored index) has no score — the pass must stand down.
        measure = self.measure(self.open_calibration())
        assert measure.demote_inconsistent({(41, 42)}) == []


class TestCliThreeWay:
    @pytest.fixture()
    def corpus_files(self, tmp_path, movie_corpus):
        corpus = tmp_path / "movies.xml"
        corpus.write_text(serialize(movie_corpus), encoding="utf-8")
        config = tmp_path / "config.xml"
        save_config_file(dataset1_config(), str(config))
        return corpus, config

    def test_detect_three_way_writes_review_queue(self, corpus_files,
                                                  tmp_path, capsys):
        from repro.cli import main
        corpus, config = corpus_files
        queue_path = tmp_path / "queue.jsonl"
        code = main(["detect", str(corpus), "--config", str(config),
                     "--decision", "three-way", "--fpr", "0.05",
                     "--review-out", str(queue_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "auto-dup" in output and "review queue:" in output
        loaded = ReviewQueue.load(queue_path)
        assert len(loaded) > 0
        for item in loaded:
            assert item.band == "review"

    def test_review_export_renders_queue(self, corpus_files, tmp_path,
                                         capsys):
        from repro.cli import main
        corpus, config = corpus_files
        queue_path = tmp_path / "queue.jsonl"
        assert main(["detect", str(corpus), "--config", str(config),
                     "--decision", "three-way", "--fpr", "0.05",
                     "--review-out", str(queue_path)]) == 0
        capsys.readouterr()
        assert main(["review", "export", str(queue_path)]) == 0
        table = capsys.readouterr().out
        assert "band" in table and "review" in table
        assert main(["review", "export", str(queue_path),
                     "--fields"]) == 0
        detailed = capsys.readouterr().out
        assert "phi" in detailed or "edit" in detailed

    def test_review_out_requires_three_way(self, corpus_files, tmp_path,
                                           capsys):
        from repro.cli import main
        corpus, config = corpus_files
        code = main(["detect", str(corpus), "--config", str(config),
                     "--review-out", str(tmp_path / "q.jsonl")])
        assert code == 1
        assert "three-way" in capsys.readouterr().err

    def test_review_export_missing_file_fails(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["review", "export",
                     str(tmp_path / "absent.jsonl")]) == 1


class TestDecisionConfigRoundTrip:
    def test_decision_element_round_trips(self):
        config = dataset1_config()
        config.decision_mode = "three-way"
        config.decision_fpr = 0.07
        config.decision_coverage = 0.93
        xml = dump_config(config)
        assert "<decision" in xml
        loaded = load_config(xml)
        assert loaded.decision_mode == "three-way"
        assert loaded.decision_fpr == 0.07
        assert loaded.decision_coverage == 0.93

    def test_default_decision_omitted_and_defaulted(self):
        config = dataset1_config()
        loaded = load_config(dump_config(config))
        assert loaded.decision_mode == "threshold"
        assert loaded.decision_fpr == 0.05
        assert loaded.decision_coverage == 0.9

    def test_file_round_trip(self, tmp_path):
        config = dataset1_config()
        config.decision_mode = "three-way"
        path = tmp_path / "config.xml"
        save_config_file(config, str(path))
        assert load_config_file(str(path)).decision_mode == "three-way"

    def test_validate_rejects_bad_decision_settings(self):
        config = dataset1_config()
        config.decision_mode = "four-way"
        config.decision_fpr = 1.5
        config.decision_coverage = 0.0
        problems = "\n".join(validate_config(config))
        assert "decision mode 'four-way' unknown" in problems
        assert "decision fpr 1.5 outside [0, 1)" in problems
        assert "decision coverage 0.0 outside (0, 1)" in problems


class TestFellegiSunterCalibration:
    @staticmethod
    def sample_pairs():
        fields = [FieldModel("name", m=0.95, u=0.05),
                  FieldModel("year", m=0.9, u=0.1, phi="exact",
                             agree_at=1.0)]
        pairs, labels = [], []
        for index in range(30):
            left = Record(index * 2, {"name": f"alpha beta {index}",
                                      "year": str(1960 + index)})
            right = Record(index * 2 + 1, {"name": f"alpha beta {index}",
                                           "year": str(1960 + index)})
            pairs.append((left, right))
            labels.append(True)
        for index in range(30):
            left = Record(1000 + index * 2, {"name": f"gamma {index}",
                                             "year": str(1900 + index)})
            right = Record(1001 + index * 2, {"name": f"delta {index * 7}",
                                              "year": str(2000 - index)})
            pairs.append((left, right))
            labels.append(False)
        return fields, pairs, labels

    def test_calibrated_matcher_bands(self):
        fields, pairs, labels = self.sample_pairs()
        matcher, calibration = calibrate_fellegi_sunter(
            fields, pairs, labels, fpr=0.1, seed=1)
        assert matcher.upper == calibration.upper
        assert matcher.lower == calibration.lower
        assert calibration.empirical_fpr <= 0.1
        # A clean duplicate classifies as a match, a clean distinct
        # pair as a non-match, under the calibrated bands.
        assert matcher.classify(*pairs[0]) == "match"
        assert matcher.classify(*pairs[-1]) == "non-match"

    def test_band_of_mapping(self):
        assert band_of("match") == "auto_dup"
        assert band_of("possible") == "review"
        assert band_of("non-match") == "auto_keep"
        with pytest.raises(ValueError):
            band_of("maybe")

    def test_calibration_requires_both_labels(self):
        fields, pairs, _ = self.sample_pairs()
        with pytest.raises(DetectionError):
            calibrate_fellegi_sunter(fields, pairs,
                                     [True] * len(pairs))


class TestReviewQueueJson:
    def test_written_lines_are_sorted_json(self, tmp_path, movie_corpus,
                                           movie_calibration):
        queue = ReviewQueue()
        SxnmDetector(dataset1_config(), decision="three-way",
                     calibration=movie_calibration,
                     review_queue=queue).run(movie_corpus)
        path = tmp_path / "queue.jsonl"
        written = queue.write(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert written == len(lines) == len(queue)
        records = [json.loads(line) for line in lines]
        keys = [(r["candidate"], r["left_eid"], r["right_eid"])
                for r in records]
        assert keys == sorted(keys)
        for record in records:
            assert record["band"] == "review"
            assert isinstance(record["combined"], float)
            if record["fields"]:
                entry = record["fields"][0]
                assert set(entry) >= {"path", "phi", "similarity"}
