"""Integration-style unit tests for the SXNM detector."""

import pytest

from repro.config import CandidateSpec, SxnmConfig
from repro.core import SxnmDetector, detect_duplicates
from repro.errors import ConfigError
from repro.xmlmodel import parse

# Fig. 2(b) style: two <movie> duplicates sharing persons, one distinct.
MOVIES_XML = """
<movie_database>
  <movies>
    <movie year="1999">
      <title>The Matrix</title>
      <people>
        <person>Keanu Reeves</person>
        <person>Don Davis</person>
      </people>
    </movie>
    <movie year="1999">
      <title>The Matrlx</title>
      <people>
        <person>Keanu Reves</person>
        <person>Don Davis</person>
      </people>
    </movie>
    <movie year="1994">
      <title>Speed</title>
      <people>
        <person>Keanu Reeves</person>
        <person>Dennis Hopper</person>
      </people>
    </movie>
  </movies>
</movie_database>
"""


def movie_config(window=5, od_threshold=0.55, desc_threshold=0.3) -> SxnmConfig:
    config = SxnmConfig(window_size=window, od_threshold=od_threshold,
                        desc_threshold=desc_threshold)
    config.add(CandidateSpec.build(
        "person", "movie_database/movies/movie/people/person",
        od=[("text()", 1.0)],
        keys=[[("text()", "K1-K4")]]))
    config.add(CandidateSpec.build(
        "movie", "movie_database/movies/movie",
        od=[("title/text()", 0.8), ("@year", 0.2, "year")],
        keys=[
            [("title/text()", "K1-K5")],
            [("@year", "D3,D4"), ("title/text()", "K1,K2")],
        ]))
    return config


class TestDetectorEndToEnd:
    def test_person_duplicates_found(self):
        result = SxnmDetector(movie_config()).run(MOVIES_XML)
        persons = result.cluster_set("person")
        # Keanu Reeves appears three times (one with a typo); Don Davis twice.
        sizes = sorted(len(c) for c in persons)
        assert sizes == [1, 2, 3]

    def test_movie_duplicates_found_via_descendants(self):
        result = SxnmDetector(movie_config()).run(MOVIES_XML)
        movies = result.cluster_set("movie")
        assert len(movies.duplicate_clusters()) == 1
        assert len(movies) == 2  # {matrix pair}, {speed}

    def test_descendant_gate_blocks_od_only_matches(self):
        # Force title similarity to pass but make children disjoint by
        # renaming the second movie's actors entirely.
        xml = MOVIES_XML.replace("Keanu Reves", "Bob One").replace(
            "Don Davis</person>\n      </people>\n    </movie>\n    <movie year=\"1994\">",
            "Carl Two</person>\n      </people>\n    </movie>\n    <movie year=\"1994\">", 1)
        result = SxnmDetector(movie_config()).run(xml)
        movies = result.cluster_set("movie")
        assert movies.duplicate_clusters() == []

    def test_window_override(self):
        wide = SxnmDetector(movie_config()).run(MOVIES_XML, window=10)
        narrow = SxnmDetector(movie_config()).run(MOVIES_XML, window=2)
        assert wide.total_comparisons >= narrow.total_comparisons

    def test_single_pass_key_selection(self):
        detector = SxnmDetector(movie_config())
        multi = detector.run(MOVIES_XML)
        single = detector.run(MOVIES_XML, key_selection=0)
        assert single.total_comparisons <= multi.total_comparisons

    def test_key_selection_falls_back_when_missing(self):
        # person has one key; selecting key index 1 must fall back to
        # person's own keys rather than skipping the candidate.
        result = SxnmDetector(movie_config()).run(MOVIES_XML, key_selection=1)
        assert len(result.cluster_set("person").members()) == 6

    def test_timings_populated(self):
        result = SxnmDetector(movie_config()).run(MOVIES_XML)
        timings = result.timings
        assert timings.key_generation > 0
        assert timings.duplicate_detection == pytest.approx(
            timings.window + timings.closure)
        assert timings.total == pytest.approx(
            timings.key_generation + timings.duplicate_detection)

    def test_accepts_parsed_document(self):
        document = parse(MOVIES_XML)
        result = SxnmDetector(movie_config()).run(document)
        assert "movie" in result.outcomes

    def test_streaming_keygen_equivalent(self):
        plain = SxnmDetector(movie_config()).run(MOVIES_XML)
        streaming = SxnmDetector(movie_config(),
                                 streaming_keygen=True).run(MOVIES_XML)
        for name in ("movie", "person"):
            assert plain.pairs(name) == streaming.pairs(name)

    def test_detect_duplicates_convenience(self):
        result = detect_duplicates(MOVIES_XML, movie_config())
        assert result.cluster_set("movie").duplicate_clusters()

    def test_invalid_config_rejected(self):
        config = SxnmConfig()
        config.add(CandidateSpec.build("movie", "db/movie",
                                       od=[("text()", 0.5)]))
        with pytest.raises(ConfigError):
            SxnmDetector(config)

    def test_pairs_accessor_copies(self):
        result = SxnmDetector(movie_config()).run(MOVIES_XML)
        pairs = result.pairs("person")
        pairs.add((999, 1000))
        assert (999, 1000) not in result.pairs("person")

    def test_unknown_candidate_result(self):
        from repro.errors import DetectionError
        result = SxnmDetector(movie_config()).run(MOVIES_XML)
        with pytest.raises(DetectionError):
            result.cluster_set("ghost")


class TestOverridesStayOnTheDetector:
    """Keyword overrides land on the detector's own copy of the config."""

    def test_detector_overrides_leave_the_callers_config_alone(self,
                                                               tmp_path):
        config = movie_config()
        index_dir = str(tmp_path / "index")
        detector = SxnmDetector(config, decision="three-way", stream=True,
                                index_dir=index_dir, spill_max_rows=7,
                                strategies=["window", "exact-key"])
        assert config == movie_config()
        assert detector.config.decision_mode == "three-way"
        assert detector.config.stream_parse
        assert detector.config.spill_max_rows == 7
        assert detector.config.index_dir == detector.index_dir == index_dir
        assert [strategy.name for strategy
                in detector.config.neighborhood_strategies] \
            == ["window", "exact-key"]
        plain = SxnmDetector(config)
        assert plain.decision_mode == "threshold"
        assert not plain.stream and plain.index_dir is None
        assert plain.strategies == []

    def test_session_index_dir_stays_on_the_session(self, tmp_path):
        from repro.core import IncrementalSxnm
        config = movie_config()
        index_dir = str(tmp_path / "session")
        session = IncrementalSxnm(config, index_dir=index_dir)
        assert session.config.index_dir == index_dir
        assert config.index_dir is None
