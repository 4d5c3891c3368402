"""Unit tests for the out-of-core machinery (``repro.core.spill``).

Every kernel is pinned to its in-memory counterpart: run formation and
the k-way merge must reproduce ``GkTable.sorted_by_key`` exactly,
``spill_gk_streaming`` must emit the same rows as
``generate_gk_streaming``, and the window kernels over merged run
streams must match the frozen in-memory ``segment_window_pass`` /
``de_window_pass`` pair for pair and count for count.  The streaming
differential battery over whole detections lives in
``test_engine_equivalence.py``.
"""

import json
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CandidateSpec, SxnmConfig, load_config, dump_config
from repro.core import (DetectionEngine, OdOnlyPolicy, ParentGroupedStrategy,
                        SpilledGkTable, SpillingKeySource, SpillStore,
                        generate_gk, generate_gk_streaming,
                        spill_gk_streaming)
from repro.core.candidates import CandidateHierarchy
from repro.core.gk import GkRow
from repro.core.spill import (DEFAULT_SPILL_MAX_ROWS, XmlFileSource,
                              document_events, merge_runs, source_events)
from repro.core.window import de_slide, slide
from repro.datagen import generate_dataset2, generate_dirty_movies
from repro.errors import DetectionError
from repro.experiments import dataset1_config, dataset2_config
from repro.xmlmodel import iter_events, parse, serialize, write_file
from tests.core.reference_window import de_window_pass, segment_window_pass


@pytest.fixture(scope="module")
def movies():
    return generate_dirty_movies(40, seed=7, profile="effectiveness")


def spill_tables(document, tmp_path, max_rows=5, fan_in=16,
                 config=None, warn=None):
    config = config or dataset1_config()
    store = SpillStore(str(tmp_path / "spill"), warn=warn)
    tables = spill_gk_streaming(document_events(document), config,
                                CandidateHierarchy(config), store,
                                max_rows=max_rows, fan_in=fan_in)
    return tables, store, config


def rows_equal(left: GkRow, right: GkRow) -> bool:
    return (left.eid == right.eid and left.keys == right.keys
            and left.ods == right.ods and left.children == right.children)


class TestRunFiles:
    def sample_rows(self):
        return [
            GkRow(3, ["SM99", "AB"], ["smith", None], {"person": [4, 5]}),
            GkRow(7, ["SM99", "CD"], ["smith", "1999"], {}),
            GkRow(9, ["", "EF"], [None, None], {"person": []}),
        ]

    def test_round_trip_preserves_rows(self, tmp_path):
        store = SpillStore(str(tmp_path))
        rows = self.sample_rows()
        name, count = store.write_run("doc", iter(rows))
        assert count == 3
        assert name.startswith("run-") and name.endswith(".xrun")
        loaded = list(store.iter_run(name))
        assert len(loaded) == 3
        for original, again in zip(rows, loaded):
            assert rows_equal(original, again)

    def test_lines_are_compact_ascii_json(self):
        # Run names hash these bytes, so the hand-written line must be
        # exactly the compact ASCII JSON of the row's references.
        from repro.core.spill import _encode_row
        rows = self.sample_rows() + [
            GkRow(12, ["SM99", "é\"x"], ["Zoë", None], {"pérson": [13]})]
        mine: dict[str, int] = {}
        theirs: dict[str, int] = {}

        def ref(value):
            return -1 if value is None else theirs.setdefault(
                value, len(theirs))
        for row in rows:
            expected = json.dumps(
                [row.eid, [ref(key) for key in row.keys],
                 [ref(od) for od in row.ods], row.children],
                ensure_ascii=True, separators=(",", ":"))
            assert _encode_row(row, mine) == expected
        assert mine == theirs

    def test_content_addressed_names_dedupe(self, tmp_path):
        store = SpillStore(str(tmp_path))
        first, _ = store.write_run("doc", iter(self.sample_rows()))
        second, _ = store.write_run("doc", iter(self.sample_rows()))
        assert first == second
        assert len(os.listdir(tmp_path)) == 1  # no temp leftovers either

    def test_interning_shares_repeated_strings(self, tmp_path):
        store = SpillStore(str(tmp_path))
        rows = [GkRow(i, ["same-key"], ["same-od"], {}) for i in range(50)]
        name, _ = store.write_run("doc", iter(rows))
        blob = open(store.path(name), "rb").read()
        assert blob.count(b"same-key") == 1
        assert all(rows_equal(a, b)
                   for a, b in zip(rows, store.iter_run(name)))

    def test_empty_run_round_trips(self, tmp_path):
        store = SpillStore(str(tmp_path))
        name, count = store.write_run("doc", iter(()))
        assert count == 0
        assert store.validate_run(name, role="doc")
        assert list(store.iter_run(name)) == []

    def test_validate_checks_role(self, tmp_path):
        warnings = []
        store = SpillStore(str(tmp_path), warn=warnings.append)
        name, _ = store.write_run("doc", iter(self.sample_rows()))
        assert store.validate_run(name, role="doc")
        assert not store.validate_run(name, role="key0")
        assert len(warnings) == 1 and "role" in warnings[0]

    def test_unwritable_directory_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the directory should be")
        store = SpillStore(str(blocker / "spill"))
        with pytest.raises(DetectionError, match="cannot write spill run"):
            store.write_run("doc", iter(self.sample_rows()))

    def test_remove_unreferenced_keeps_live_runs(self, tmp_path):
        store = SpillStore(str(tmp_path))
        keep, _ = store.write_run("doc", iter(self.sample_rows()))
        drop, _ = store.write_run("doc", iter(self.sample_rows()[:1]))
        store.remove_unreferenced({keep})
        assert os.path.exists(store.path(keep))
        assert not os.path.exists(store.path(drop))

    def test_a_committed_spill_state_drops_earlier_runs(self, tmp_path):
        from repro.core import SxnmDetector
        from repro.core.index import DetectionIndex
        index_dir = tmp_path / "index"
        for count in (20, 12):
            SxnmDetector(dataset1_config(), index_dir=str(index_dir),
                         stream=True, spill_max_rows=6).run(
                serialize(generate_dirty_movies(count, seed=3)))
        state = DetectionIndex(str(index_dir)).open().load_spill()
        live = {name for entry in state.values()
                for names in [entry["doc"], *entry["keys"]]
                for name in names}
        assert live and set(os.listdir(index_dir / "spill")) == live


class TestMergeOrder:
    def test_merged_runs_equal_sorted_by_key(self, movies, tmp_path):
        config = dataset1_config()
        reference = generate_gk(movies, config)
        tables, _, _ = spill_tables(movies, tmp_path, max_rows=5)
        for name, table in tables.items():
            baseline = reference[name]
            for key_index in range(baseline.key_count):
                expected = baseline.sorted_by_key(key_index)
                merged = list(table.iter_sorted_by_key(key_index))
                assert [row.eid for row in merged] \
                    == [row.eid for row in expected]
                assert all(rows_equal(a, b)
                           for a, b in zip(merged, expected))

    def test_fan_in_reduction_preserves_order(self, movies, tmp_path):
        # max_rows=2 on a 40-movie corpus produces far more runs than a
        # fan-in of 3 can merge at once, forcing multi-level reduction.
        tables, _, config = spill_tables(movies, tmp_path, max_rows=2,
                                         fan_in=3)
        reference = generate_gk(movies, config)
        table = tables["movie"]
        assert table.run_count(0) > 3
        merged = list(table.iter_sorted_by_key(0))
        assert table.run_count(0) <= 3  # reduced in place
        expected = reference["movie"].sorted_by_key(0)
        assert [row.eid for row in merged] == [row.eid for row in expected]
        # A second pass reuses the reduced runs and still agrees.
        again = list(table.iter_sorted_by_key(0))
        assert [row.eid for row in again] == [row.eid for row in expected]

    def test_merge_runs_empty_and_single(self, tmp_path):
        store = SpillStore(str(tmp_path))
        assert list(merge_runs(store, [], 0)) == []
        name, _ = store.write_run("key0", iter(
            [GkRow(1, ["a"], [], {}), GkRow(2, ["b"], [], {})]))
        assert [row.eid for row in merge_runs(store, [name], 0)] == [1, 2]


class TestSpilledTableFacade:
    def test_matches_streaming_keygen(self, movies, tmp_path):
        config = dataset1_config()
        reference = generate_gk_streaming(serialize(movies), config)
        tables, _, _ = spill_tables(movies, tmp_path, max_rows=7,
                                    config=config)
        assert set(tables) == set(reference)
        for name, table in tables.items():
            baseline = reference[name]
            assert table.spilled is True
            assert len(table) == len(baseline)
            assert table.eids() == baseline.eids()
            assert table.key_count == baseline.key_count
            assert table.od_count == baseline.od_count
            assert all(rows_equal(a, b) for a, b in zip(table, baseline))

    def test_row_lookup_and_errors(self, movies, tmp_path):
        tables, _, _ = spill_tables(movies, tmp_path)
        table = tables["movie"]
        eid = table.eids()[3]
        assert table.row(eid).eid == eid
        with pytest.raises(KeyError):
            table.row(-1)
        with pytest.raises(IndexError):
            table.iter_sorted_by_key(table.key_count)

    def test_state_names_every_run(self, movies, tmp_path):
        tables, store, _ = spill_tables(movies, tmp_path)
        for table in tables.values():
            state = table.state()
            assert state["rows"] == len(table)
            for name in state["doc"]:
                assert store.validate_run(name, role="doc")
            for key_index, names in enumerate(state["keys"]):
                for name in names:
                    assert store.validate_run(name, role=f"key{key_index}")

    @pytest.mark.parametrize("config, document", [
        (dataset1_config, lambda: generate_dirty_movies(60, seed=1)),
        (lambda: dataset2_config(window=5),
         lambda: generate_dataset2(disc_count=40, seed=1)),
    ], ids=["movies", "discs-with-parent-groups"])
    def test_parent_grouped_windows_read_each_doc_run_once(
            self, monkeypatch, config, document):
        """Run reads grow linearly with the corpus: each find_pairs
        reads every document-order run at most once, and the pairs are
        those of the same engine over in-memory tables."""
        reads = []
        iter_run = SpillStore.iter_run

        def counted_iter_run(store, name, memo=None):
            reads.append(name)
            return iter_run(store, name, memo)

        strategy = ParentGroupedStrategy()
        find_pairs = strategy.find_pairs
        per_call = []

        def counted_find_pairs(ctx):
            reads.clear()
            outcome = find_pairs(ctx)
            per_call.append(Counter(reads))
            return outcome

        strategy.find_pairs = counted_find_pairs
        monkeypatch.setattr(SpillStore, "iter_run", counted_iter_run)
        text = serialize(document())
        spilled = DetectionEngine(
            config(), key_source=SpillingKeySource(max_rows=16),
            neighborhood=strategy, decision=OdOnlyPolicy()).run(text)
        monkeypatch.undo()
        in_memory = DetectionEngine(
            config(), neighborhood=ParentGroupedStrategy(),
            decision=OdOnlyPolicy()).run(text)
        assert len(per_call) == len(config().candidates)
        assert all(per_call)
        assert all(count == 1 for reads_in_call in per_call
                   for count in reads_in_call.values())
        for name in in_memory.outcomes:
            assert spilled.pairs(name) == in_memory.pairs(name)


class TestStreamKernels:
    def compare(self):
        # A deterministic stand-in verdict: duplicates share key[0][:2].
        class Verdict:
            def __init__(self, dup):
                self.is_duplicate = dup
        return lambda left, right: Verdict(
            bool(left.keys[0]) and left.keys[0][:2] == right.keys[0][:2])

    def test_stream_window_pass_matches_segment(self, movies, tmp_path):
        tables, _, config = spill_tables(movies, tmp_path, max_rows=5)
        reference = generate_gk(movies, config)
        for name, table in tables.items():
            for key_index in range(table.key_count):
                for window in (2, 4, 8):
                    expected_pairs: set = set()
                    expected = segment_window_pass(
                        reference[name].sorted_by_key(key_index), window,
                        self.compare(), expected_pairs)
                    streamed_pairs: set = set()
                    streamed = slide(
                        table.iter_sorted_by_key(key_index), window,
                        self.compare(), streamed_pairs)
                    assert streamed == expected
                    assert streamed_pairs == expected_pairs

    def test_stream_de_pass_matches_de_window_pass(self, movies, tmp_path):
        tables, _, config = spill_tables(movies, tmp_path, max_rows=5)
        reference = generate_gk(movies, config)
        for name, table in tables.items():
            for key_index in range(table.key_count):
                expected_pairs: set = set()
                expected = de_window_pass(reference[name], key_index, 4,
                                          self.compare(), expected_pairs)
                streamed_pairs: set = set()
                streamed = de_slide(
                    lambda: table.iter_sorted_by_key(key_index), key_index,
                    4, self.compare(), streamed_pairs)
                assert streamed == expected
                assert streamed_pairs == expected_pairs

    def test_skip_known_pairs_not_recompared(self):
        rows = [GkRow(i, ["xx"], [], {}) for i in range(4)]
        pairs = {(0, 1)}
        count = slide(iter(rows), 2, self.compare(), pairs)
        assert count == 2  # (1,2) and (2,3); (0,1) was known
        assert pairs == {(0, 1), (1, 2), (2, 3)}

    def test_window_too_small_rejected(self):
        with pytest.raises(ValueError):
            slide(iter(()), 1, self.compare(), set())
        with pytest.raises(ValueError):
            de_slide(lambda: iter(()), 0, 1, self.compare(), set())


class TestSourceEvents:
    def test_text_document_and_file_agree(self, movies, tmp_path):
        text = serialize(movies)
        path = tmp_path / "movies.xml"
        write_file(movies, str(path))
        from_text = list(source_events(text))
        from_document = list(source_events(movies))
        from_file = list(source_events(XmlFileSource(path)))
        assert from_text == from_document
        # The pretty-printed file adds indentation text events; the
        # start/end skeleton must still agree exactly.
        skeleton = [e for e in from_file if e.kind != "text"]
        assert skeleton == [e for e in from_text if e.kind != "text"]

    def test_unsupported_source_rejected(self):
        with pytest.raises(DetectionError, match="cannot stream"):
            source_events(42)


# ---------------------------------------------------------------------------
# Property: streaming (and spilling) key generation == the DOM generator


def _person(name: str) -> str:
    return f"<person><name>{name}</name></person>"


documents = st.lists(
    st.tuples(
        st.sampled_from(["Ada", "Bo&amp;b", "Cy<![CDATA[<raw>]]>d",
                         "Née", ""]),
        st.sampled_from(["", " ", "1999", "&#65;BC"])),
    min_size=0, max_size=12)


def _property_config() -> SxnmConfig:
    config = SxnmConfig()
    config.add(CandidateSpec.build(
        "person", "db/person",
        od=[("name/text()", 0.7), ("@ns:year", 0.3, "year")],
        keys=[[("name/text()", "K1-K3"), ("@ns:year", "D3,D4")]]))
    return config


class TestStreamingKeygenProperty:
    @given(entries=documents)
    @settings(max_examples=60, deadline=None)
    def test_streaming_equals_dom(self, entries):
        body = "".join(
            f'<person ns:year="{year}"><name>{name}</name></person>'
            if year else f"<person><name>{name}</name></person>"
            for name, year in entries)
        text = f"<db>{body}</db>"
        config = _property_config()
        dom = generate_gk(parse(text), config)
        streamed = generate_gk_streaming(iter_events(text), config)
        for name, table in dom.items():
            other = streamed[name]
            assert len(other) == len(table)
            assert all(rows_equal(a, b) for a, b in zip(other, table))

    @given(entries=documents)
    @settings(max_examples=30, deadline=None)
    def test_spilling_equals_streaming(self, entries, tmp_path_factory):
        body = "".join(
            f'<person ns:year="{year}"><name>{name}</name></person>'
            if year else f"<person><name>{name}</name></person>"
            for name, year in entries)
        text = f"<db>{body}</db>"
        config = _property_config()
        streamed = generate_gk_streaming(iter_events(text), config)
        store = SpillStore(str(tmp_path_factory.mktemp("spill")))
        spilled = spill_gk_streaming(iter_events(text), config,
                                     CandidateHierarchy(config), store,
                                     max_rows=2)
        for name, table in streamed.items():
            other = spilled[name]
            assert isinstance(other, SpilledGkTable)
            assert other.eids() == table.eids()
            assert all(rows_equal(a, b) for a, b in zip(other, table))
            for key_index in range(table.key_count):
                assert [row.eid
                        for row in other.iter_sorted_by_key(key_index)] \
                    == [row.eid for row in table.sorted_by_key(key_index)]


# ---------------------------------------------------------------------------
# Configuration knobs


class TestSpillConfig:
    def test_defaults(self):
        config = SxnmConfig()
        assert config.stream_parse is False
        assert config.spill_dir is None
        assert config.spill_max_rows == DEFAULT_SPILL_MAX_ROWS

    def test_round_trip(self):
        config = dataset1_config()
        config.stream_parse = True
        config.spill_dir = "/tmp/sxnm-spill"
        config.spill_max_rows = 128
        reloaded = load_config(dump_config(config))
        assert reloaded.stream_parse is True
        assert reloaded.spill_dir == "/tmp/sxnm-spill"
        assert reloaded.spill_max_rows == 128

    def test_defaults_omitted_from_dump(self):
        text = dump_config(dataset1_config())
        assert "streamParse" not in text
        assert "spillDir" not in text
        assert "spillMaxRows" not in text

    def test_validation_rejects_bad_values(self):
        from repro.config import validate_config
        config = dataset1_config()
        config.spill_dir = "   "
        assert any("spill dir" in problem
                   for problem in validate_config(config))
        config = dataset1_config()
        config.spill_max_rows = 0
        assert any("spill max rows" in problem
                   for problem in validate_config(config))
