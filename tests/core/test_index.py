"""Unit tests for the persistent DetectionIndex (repro.core.index)."""

import json
import os

from repro.core import GkRow, GkTable
from repro.core.index import (DetectionIndex, MANIFEST_NAME, SEGMENT_SUFFIX,
                              config_fingerprint, corpus_checksum,
                              run_signature)
from repro.experiments import dataset1_config, dataset2_config


def make_tables():
    movie = GkTable("movie", key_count=2, od_count=3)
    movie.add(GkRow(3, ["MT99", "5MA"], ["Matrix", None, ""],
                    {"person": [5, 6]}))
    movie.add(GkRow(9, ["MT99", "5MA"], ["Matrix", "  ", "\n"],
                    {"person": [11]}))
    person = GkTable("person", key_count=1, od_count=1)
    person.add(GkRow(5, ["KEANU"], ["Keanu Reeves"]))
    person.add(GkRow(6, ["KEANU"], [None]))
    person.add(GkRow(11, ["LFISH"], ["Laurence Fishburne"]))
    return {"movie": movie, "person": person}


def open_index(tmp_path, name="index", **kwargs):
    return DetectionIndex(str(tmp_path / name), **kwargs).open()


class TestFingerprints:
    def test_stable_across_equal_configs(self):
        assert (config_fingerprint(dataset1_config())
                == config_fingerprint(dataset1_config()))

    def test_sensitive_to_thresholds_and_window(self):
        base = config_fingerprint(dataset1_config())
        tweaked = dataset1_config()
        tweaked.od_threshold = 0.123
        assert config_fingerprint(tweaked) != base
        widened = dataset1_config(window=17)
        assert config_fingerprint(widened) != base

    def test_sensitive_to_candidate_shape(self):
        assert (config_fingerprint(dataset1_config())
                != config_fingerprint(dataset2_config()))

    def test_sensitive_to_strategies_and_decision_mode(self):
        from repro.config import StrategySpec
        base = config_fingerprint(dataset1_config())
        unioned = dataset1_config()
        unioned.neighborhood_strategies = [StrategySpec("window"),
                                           StrategySpec("minhash-lsh")]
        seeded = dataset1_config()
        seeded.neighborhood_strategies = [
            StrategySpec("window"), StrategySpec("minhash-lsh", {"seed": "7"})]
        three_way = dataset1_config()
        three_way.decision_mode = "three-way"
        assert len({base, config_fingerprint(unioned),
                    config_fingerprint(seeded),
                    config_fingerprint(three_way)}) == 4

    def test_perf_knobs_excluded(self):
        base = dataset1_config()
        tuned = dataset1_config()
        tuned.workers = 8
        tuned.use_filters = True
        tuned.phi_cache_dir = "/tmp/phi"
        tuned.index_dir = "/tmp/idx"
        assert config_fingerprint(tuned) == config_fingerprint(base)

    def test_corpus_checksum_text_and_document_agree(self):
        from repro.xmlmodel import parse, serialize
        document = parse("<movies><movie><t>X</t></movie></movies>")
        assert (corpus_checksum(document)
                == corpus_checksum(serialize(document, pretty=False)))
        assert corpus_checksum("<a/>") != corpus_checksum("<b/>")

    def test_run_signature_canonicalizes_selection(self):
        assert run_signature(5, 2) == run_signature(5, (2,))
        assert run_signature(5, [0, 1]) == run_signature(5, (0, 1))
        assert run_signature(5, None) != run_signature(5, [0])


class TestGkRoundTrip:
    def test_rows_survive_bit_identically(self, tmp_path):
        index = open_index(tmp_path)
        tables = make_tables()
        assert index.save_gk(tables)
        restored = DetectionIndex(index.directory).open().load_gk()
        assert set(restored) == set(tables)
        for name, table in tables.items():
            assert restored[name].key_count == table.key_count
            assert restored[name].od_count == table.od_count
            for mine, theirs in zip(table, restored[name]):
                assert mine.eid == theirs.eid
                assert mine.keys == theirs.keys
                assert mine.ods == theirs.ods
                assert mine.children == theirs.children

    def test_awkward_ods_round_trip(self, tmp_path):
        # None, empty string, and whitespace-only ODs are all distinct
        # values and must come back exactly (the string pool carries
        # them verbatim; -1 encodes None).
        index = open_index(tmp_path)
        index.save_gk(make_tables())
        restored = DetectionIndex(index.directory).open().load_gk()
        assert list(restored["movie"])[0].ods == ["Matrix", None, ""]
        assert list(restored["movie"])[1].ods == ["Matrix", "  ", "\n"]

    def test_loaded_strings_are_interned(self, tmp_path):
        index = open_index(tmp_path)
        index.save_gk(make_tables())
        reopened = DetectionIndex(index.directory).open()
        rows = list(reopened.load_gk()["movie"])
        assert rows[0].keys[0] is rows[1].keys[0]
        assert rows[0].ods[0] is rows[1].ods[0]

    def test_published_payload_shares_one_object_per_string(self, tmp_path):
        # The shared-memory plane pickles list(table) as it stands; the
        # pickle memo is identity-based, so the segment carries one copy
        # of each distinct string only if the rows already share them.
        # Fresh, index-loaded, GK-file-loaded and spilled tables must all
        # arrive so.
        from repro.core import (SpillStore, generate_gk, load_gk, save_gk,
                                spill_gk_streaming)
        from repro.core.execution import build_segment_payload
        from repro.core.spill import document_events
        from repro.datagen import generate_dirty_movies

        config = dataset1_config()
        document = generate_dirty_movies(40, seed=7, profile="effectiveness")
        fresh = generate_gk(document, config)
        index = open_index(tmp_path)
        index.save_gk(fresh)
        loaded = DetectionIndex(index.directory).open().load_gk()
        save_gk(fresh, str(tmp_path / "gk.xml"))
        from_file = load_gk(str(tmp_path / "gk.xml"))
        spilled = spill_gk_streaming(
            document_events(document), config, None,
            SpillStore(str(tmp_path / "spill")), max_rows=7)
        assert all(len(table.doc_runs) > 1 for table in spilled.values())
        for tables in (fresh, loaded, from_file, spilled):
            for name, table in tables.items():
                payload = build_segment_payload(
                    table, list(range(table.key_count)), b"")
                assert len(payload["rows"]) == len(fresh[name])
                objects: dict[str, set[int]] = {}
                for row in payload["rows"]:
                    for value in row.keys + row.ods:
                        if value is not None:
                            objects.setdefault(value, set()).add(id(value))
                shared = sum(len(ids) for ids in objects.values())
                assert shared == len(objects), name


class TestRunState:
    def test_candidate_commit_and_load(self, tmp_path):
        index = open_index(tmp_path)
        index.manifest["config_fingerprint"] = "f" * 16
        pairs = {(9, 3), (1, 2)}
        stats = {"pairs_scored": 4}
        assert index.commit_candidate("movie", pairs, comparisons=12,
                                      filtered=3, stats=stats)
        restored = DetectionIndex(index.directory).open()
        state = restored.load_candidate("movie")
        assert state["pairs"] == pairs
        assert state["comparisons"] == 12
        assert state["filtered"] == 3
        assert state["stats"] == stats
        assert restored.completed == ["movie"]
        assert restored.load_candidate("person") is None

    def test_begin_run_clears_run_state_keeps_gk_and_counters(self, tmp_path):
        config = dataset1_config()
        index = open_index(tmp_path)
        index.begin_run(config, "c" * 16, run_signature(5, None))
        index.save_gk(make_tables())
        index.commit_candidate("movie", {(1, 2)}, 3, 0, None)
        runs_before = index.counters()["runs"]

        index.begin_run(config, "d" * 16, run_signature(7, None))
        assert index.completed == []
        assert index.counters()["runs"] == runs_before + 1
        assert index.manifest["corpus_checksum"] == "d" * 16
        assert "gk" in index.manifest["segments"]
        assert not any(role.startswith("run/")
                       for role in index.manifest["segments"])
        assert index.load_gk() is not None

    def test_resume_mismatch_reports_each_drift(self, tmp_path):
        config = dataset1_config()
        index = open_index(tmp_path)
        assert index.resume_mismatch(config, "c" * 16,
                                     run_signature(5, None)) \
            == ["the index has no committed run to resume"]
        index.begin_run(config, "c" * 16, run_signature(5, None))
        assert index.resume_mismatch(config, "c" * 16,
                                     run_signature(5, None)) == []
        other = dataset1_config()
        other.od_threshold = 0.99
        problems = index.resume_mismatch(other, "x" * 16,
                                         run_signature(9, [0]))
        assert len(problems) == 3
        assert any("config fingerprint" in line for line in problems)
        assert any("corpus checksum" in line for line in problems)
        assert any("run parameter" in line for line in problems)

    def test_session_commit_and_load(self, tmp_path):
        index = open_index(tmp_path)
        index.manifest["config_fingerprint"] = "f" * 16
        tables = make_tables()
        states = {"movie": (tables["movie"], {(3, 9)}, 7),
                  "person": (tables["person"], set(), 2)}
        assert index.commit_session(eid_offset=120, batches=2, states=states)
        session = DetectionIndex(index.directory).open().load_session()
        assert session["eid_offset"] == 120
        assert session["batches"] == 2
        assert session["pairs"] == {"movie": {(3, 9)}, "person": set()}
        assert session["comparisons"] == {"movie": 7, "person": 2}
        assert [row.eid for row in session["tables"]["movie"]] == [3, 9]


class TestSessionChain:
    """Delta commits on a base snapshot, replayed in chain order."""

    def base_and_delta(self, tmp_path):
        index = open_index(tmp_path)
        index.manifest["config_fingerprint"] = "f" * 16
        tables = make_tables()
        states = {"movie": (tables["movie"], {(3, 9)}, 7),
                  "person": (tables["person"], set(), 2)}
        assert index.commit_session(120, 1, states)
        added = GkRow(130, ["MT98", "5MA"], ["Matrix", None, None],
                      {"person": []})
        tables["movie"].add(added)
        states = {"movie": (tables["movie"], {(3, 9), (9, 130)}, 10),
                  "person": (tables["person"], set(), 2)}
        delta = {"movie": ([added], [(9, 130)]), "person": ([], [])}
        assert index.commit_session(140, 2, states, delta)
        return index

    def test_delta_appends_one_link_and_replays(self, tmp_path):
        index = self.base_and_delta(tmp_path)
        assert len(index.manifest["session_deltas"]) == 1
        session = DetectionIndex(index.directory).open().load_session()
        assert session["eid_offset"] == 140
        assert session["batches"] == 2
        assert session["pairs"] == {"movie": {(3, 9), (9, 130)},
                                    "person": set()}
        assert session["comparisons"] == {"movie": 10, "person": 2}
        assert [row.eid for row in session["tables"]["movie"]] \
            == [3, 9, 130]
        assert index.counters()["batches_committed"] == 2

    def test_commit_on_an_unreplayed_chain_folds(self, tmp_path):
        index = self.base_and_delta(tmp_path)
        stranger = DetectionIndex(index.directory).open()
        table = make_tables()["person"]
        assert stranger.commit_session(
            150, 3, {"person": (table, set(), 0)},
            {"person": ([], [])})
        assert stranger.manifest["session_deltas"] == []
        assert stranger.load_session()["batches"] == 3

    def test_failed_delta_write_folds_the_next_commit(self, tmp_path,
                                                      monkeypatch):
        import tempfile
        index = self.base_and_delta(tmp_path)
        tables = make_tables()
        states = {"movie": (tables["movie"], {(3, 9)}, 7),
                  "person": (tables["person"], set(), 2)}
        nothing = {"movie": ([], []), "person": ([], [])}

        def refuse(*args, **kwargs):
            raise OSError("disk full")

        with monkeypatch.context() as patched:
            patched.setattr(tempfile, "mkstemp", refuse)
            assert index.commit_session(140, 3, states, nothing) is False
        assert index.commit_session(140, 4, states, nothing) is True
        assert index.manifest["session_deltas"] == []
        session = DetectionIndex(index.directory).open().load_session()
        assert session["batches"] == 4
        assert [row.eid for row in session["tables"]["movie"]] == [3, 9]

    def test_status_counts_chain_links_as_referenced(self, tmp_path):
        index = self.base_and_delta(tmp_path)
        status = index.status()
        assert status["session_deltas"] == index.manifest["session_deltas"]
        # The base snapshot of the first commit is still referenced.
        assert status["orphan_segments"] == []

    def test_begin_run_keeps_the_session_and_drop_session_forgets_it(
            self, tmp_path):
        config = dataset1_config()
        index = open_index(tmp_path)
        index.begin_run(config, "c" * 16, run_signature(5, None))
        index.manifest["session_params"] = {"window": 3,
                                            "decision": "gates"}
        tables = make_tables()
        states = {"movie": (tables["movie"], {(3, 9)}, 7),
                  "person": (tables["person"], set(), 2)}
        nothing = {"movie": ([], []), "person": ([], [])}
        assert index.commit_session(120, 1, states)
        assert index.commit_session(120, 2, states, nothing)
        chain = index.manifest["session_deltas"]
        assert len(chain) == 1

        index.begin_run(config, "d" * 16, run_signature(7, None))
        reopened = DetectionIndex(index.directory).open()
        assert reopened.manifest["session_params"] == {"window": 3,
                                                       "decision": "gates"}
        assert reopened.manifest["session_deltas"] == chain
        assert reopened.load_session()["batches"] == 2

        reopened.drop_session()
        assert "session" not in reopened.manifest["segments"]
        assert reopened.manifest["session_deltas"] == []
        assert reopened.load_session() is None
        # With nothing to extend, the next commit is a full snapshot.
        assert reopened.commit_session(120, 3, states, nothing)
        assert reopened.manifest["session_deltas"] == []
        assert reopened.load_session()["batches"] == 3


class TestOperations:
    def test_initialize_stamps_fingerprint(self, tmp_path):
        config = dataset1_config()
        index = open_index(tmp_path)
        index.initialize(config)
        reopened = DetectionIndex(index.directory).open()
        assert reopened.fingerprint == config_fingerprint(config)
        assert reopened.completed == []

    def test_compact_removes_only_orphans(self, tmp_path):
        index = open_index(tmp_path)
        index.manifest["config_fingerprint"] = "f" * 16
        index.save_gk(make_tables())
        smaller = {"movie": make_tables()["movie"]}
        index.save_gk(smaller)  # content-addressed: the old file remains
        files = [name for name in os.listdir(index.directory)
                 if name.endswith(SEGMENT_SUFFIX)]
        assert len(files) == 2
        assert index.compact() == 1
        survivors = [name for name in os.listdir(index.directory)
                     if name.endswith(SEGMENT_SUFFIX)]
        assert survivors == [index.manifest["segments"]["gk"]]
        assert DetectionIndex(index.directory).open().load_gk() is not None

    def test_status_reports_segments_and_orphans(self, tmp_path):
        index = open_index(tmp_path)
        index.manifest["config_fingerprint"] = "f" * 16
        index.save_gk(make_tables())
        (tmp_path / "index" / f"orphan{SEGMENT_SUFFIX}").write_bytes(b"x")
        status = DetectionIndex(index.directory).open().status()
        assert status["usable"] is True
        assert status["config_fingerprint"] == "f" * 16
        assert status["segment_files"] == 2
        assert status["orphan_segments"] == [f"orphan{SEGMENT_SUFFIX}"]
        assert set(status["segments"]) == {"gk"}

    def test_read_only_never_writes(self, tmp_path):
        missing = DetectionIndex(str(tmp_path / "nowhere"),
                                 read_only=True).open()
        assert missing.usable is False
        assert not (tmp_path / "nowhere").exists()

        index = open_index(tmp_path)
        index.manifest["config_fingerprint"] = "f" * 16
        index.save_gk(make_tables())
        before = sorted(os.listdir(index.directory))
        reader = DetectionIndex(index.directory, read_only=True).open()
        assert reader.save_gk(make_tables()) is False
        assert reader.commit_candidate("movie", set(), 0, 0,
                                       None) is False
        assert reader.compact() == 0
        assert sorted(os.listdir(index.directory)) == before

    def test_manifest_is_valid_json_with_magic(self, tmp_path):
        index = open_index(tmp_path)
        index.initialize(dataset1_config())
        manifest = json.loads(
            (tmp_path / "index" / MANIFEST_NAME).read_text())
        assert manifest["magic"] == "sxnm-index"
        assert manifest["version"] == 1


class TestManifestWrites:
    """A commit publishes its segment and counters in one manifest write."""

    def manifest_writes(self, monkeypatch):
        writes = []
        replace = os.replace

        def counted(source, target, *args, **kwargs):
            if os.path.basename(target) == MANIFEST_NAME:
                writes.append(target)
            return replace(source, target, *args, **kwargs)

        monkeypatch.setattr(os, "replace", counted)
        return writes

    def test_each_commit_replaces_the_manifest_once(self, tmp_path,
                                                    monkeypatch):
        index = open_index(tmp_path)
        index.begin_run(dataset1_config(), "c" * 16, run_signature(5, None))
        writes = self.manifest_writes(monkeypatch)
        tables = make_tables()
        commits = [
            lambda: index.save_gk(tables),
            lambda: index.save_spill({"movie": {"rows": 2, "doc": [],
                                                "keys": []}}),
            lambda: index.commit_candidate("movie", {(3, 9)}, 4, 0, None),
            lambda: index.commit_session(
                12, 1, {"movie": (tables["movie"], {(3, 9)}, 4)}),
        ]
        for count, commit in enumerate(commits, start=1):
            assert commit()
            assert len(writes) == count
        counters = DetectionIndex(index.directory).open().counters()
        assert counters == {"runs": 1, "gk_rows": 5, "spill_rows": 2,
                            "candidates_committed": 1,
                            "window_comparisons": 4, "pairs_confirmed": 1,
                            "batches_committed": 1}

    def test_out_of_core_detection_writes_one_per_segment(self, tmp_path,
                                                          monkeypatch):
        from repro.core import SxnmDetector
        from repro.datagen import generate_dirty_movies
        from repro.xmlmodel import serialize
        writes = self.manifest_writes(monkeypatch)
        directory = tmp_path / "index"
        SxnmDetector(dataset1_config(), index_dir=str(directory),
                     stream=True, spill_max_rows=16).run(
            serialize(generate_dirty_movies(60, seed=1)))
        segments = [name for name in os.listdir(directory)
                    if name.endswith(SEGMENT_SUFFIX)]
        assert len(segments) == 2  # the spill state and the movie run
        assert len(writes) == len(segments) + 1  # and begin_run's


class TestDeterministicSegments:
    def test_two_fresh_indexes_of_one_detection_match_byte_for_byte(
            self, tmp_path):
        """Segments hold results only (no timings), so two detections of
        one corpus write the same segment files under the same
        content-addressed names."""
        from repro.core import SxnmDetector
        from repro.datagen import generate_dirty_movies
        document = generate_dirty_movies(30, seed=5,
                                         profile="effectiveness")
        snapshots = []
        for name in ("first", "second"):
            directory = tmp_path / name
            SxnmDetector(dataset1_config(),
                         index_dir=str(directory)).run(document, window=5)
            snapshots.append({
                str(path.relative_to(directory)): path.read_bytes()
                for path in directory.rglob(f"*{SEGMENT_SUFFIX}")})
        assert snapshots[0]
        assert snapshots[0] == snapshots[1]
