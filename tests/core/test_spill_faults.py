"""Fault injection for spill run files: fail cold, never wrong.

The out-of-core layer's half of ``test_index_faults.py``: every test
damages a run file (or the index's saved spill state) in one specific
way, then asserts that the damage produces exactly one human-readable
warning and that detection still returns the correct result — a damaged
run degrades to regenerating keys from source, it never yields wrong
rows.  Damaged run framing is the shared battery's
(``tests/segment_faults.py``); the rest is the spill store's own:
damage after validation, resume over damaged runs, and saved state that
no longer fits the configuration.
"""

import os

from repro.core import SpillStore, SxnmDetector
from repro.core.gk import GkRow
from repro.core.spill import RUN_SEGMENTS, RUN_SUFFIX, SpillingKeySource
from repro.datagen import generate_dirty_movies
from repro.errors import DetectionError
from repro.experiments import dataset1_config
from repro.xmlmodel import serialize
from tests.segment_faults import FramingFaults


def seeded_spill(tmp_path):
    """An index directory whose spill/ holds one streamed run's files."""
    index_dir = tmp_path / "index"
    document = generate_dirty_movies(25, seed=3, profile="effectiveness")
    detector = SxnmDetector(dataset1_config(), index_dir=str(index_dir),
                            stream=True, spill_max_rows=6)
    result = detector.run(serialize(document), window=5)
    spill_dir = index_dir / "spill"
    assert spill_dir.is_dir() and run_paths(spill_dir)
    return index_dir, serialize(document), result


def run_paths(spill_dir):
    return sorted(os.path.join(spill_dir, name)
                  for name in os.listdir(spill_dir)
                  if name.endswith(RUN_SUFFIX))


def damage_payload(path):
    """Flip one byte safely inside the payload (never the meta line)."""
    blob = bytearray(open(path, "rb").read())
    blob[-5] ^= 0xFF  # the string pool line sits at the end
    open(path, "wb").write(bytes(blob))


class SpillOwner:
    """The spill store as an owner of the framing-fault battery."""

    segments = RUN_SEGMENTS
    consequence = "; regenerating keys from source"

    def __init__(self, directory):
        self.directory = directory

    def seed(self):
        rows = [GkRow(i, [f"k{(7 * i) % 20:03d}"], ["od"], {})
                for i in range(20)]
        store = SpillStore(self.directory)
        doc, _ = store.write_run("doc", iter(rows))
        key0, _ = store.write_run("key0", iter(
            sorted(rows, key=lambda row: (row.keys[0], row.eid))))
        self.runs = {store.path(doc): "doc", store.path(key0): "key0"}
        return list(self.runs)

    def load(self):
        warnings = []
        self.store = SpillStore(self.directory, warn=warnings.append)
        for _ in range(2):
            self.valid = {path: self.store.validate_run(
                os.path.basename(path), role) for path, role
                in self.runs.items()}
        return warnings

    def subject(self, name):
        return f"spill run {name!r} "

    def served(self, path):
        return self.valid[path] and len(list(
            self.store.iter_run(os.path.basename(path)))) == 20


class TestValidateFaults(FramingFaults):
    owner = SpillOwner

    def store(self, tmp_path):
        warnings = []
        store = SpillStore(str(tmp_path), warn=warnings.append)
        rows = [GkRow(i, [f"k{i:03d}"], ["od"], {}) for i in range(20)]
        name, _ = store.write_run("doc", iter(rows))
        return store, name, warnings

    def test_damage_after_validation_raises_not_wrong(self, tmp_path):
        # iter_run guards against damage racing in after validate_run:
        # wrong rows must never come back, so it raises instead.
        store, name, warnings = self.store(tmp_path)
        assert store.validate_run(name) is True
        header, _, rest = open(store.path(name), "rb").read().partition(b"\n")
        meta_line, _, payload = rest.partition(b"\n")
        open(store.path(name), "wb").write(
            header + b"\n" + meta_line + b"\n")  # payload gone
        try:
            list(store.iter_run(name))
        except DetectionError as exc:
            assert "became unreadable mid-run" in str(exc)
        else:
            raise AssertionError("iter_run returned rows from a gutted file")


class TestResumeFaults:
    """A streamed run resumed over damaged spill state runs cold, not wrong."""

    def check_cold_resume(self, index_dir, text, baseline, expected_warning):
        warnings = []
        detector = SxnmDetector(dataset1_config(), index_dir=str(index_dir),
                                stream=True, spill_max_rows=6)
        key_source = detector.engine.key_source
        assert isinstance(key_source, SpillingKeySource)
        original = key_source.attach_run_context

        def attach(index=None, warn=None):
            original(index=index, warn=warnings.append)

        key_source.attach_run_context = attach
        resumed = detector.run(text, window=5, resume=True)
        for name in baseline.outcomes:
            assert resumed.pairs(name) == baseline.pairs(name)
            assert ([sorted(c) for c in resumed.outcomes[name].cluster_set]
                    == [sorted(c) for c in baseline.outcomes[name].cluster_set])
        if expected_warning is not None:
            assert any(expected_warning in message for message in warnings), \
                warnings
        return resumed

    def test_intact_spill_state_resumes_identically(self, tmp_path):
        index_dir, text, baseline = seeded_spill(tmp_path)
        self.check_cold_resume(index_dir, text, baseline, None)

    def test_damaged_run_file_regenerates_cold(self, tmp_path):
        index_dir, text, baseline = seeded_spill(tmp_path)
        for path in run_paths(index_dir / "spill"):
            damage_payload(path)
        self.check_cold_resume(index_dir, text, baseline,
                               "regenerating keys from source")

    def test_deleted_run_file_regenerates_cold(self, tmp_path):
        index_dir, text, baseline = seeded_spill(tmp_path)
        os.unlink(run_paths(index_dir / "spill")[0])
        self.check_cold_resume(index_dir, text, baseline,
                               "regenerating keys from source")

    def test_truncated_run_file_regenerates_cold(self, tmp_path):
        index_dir, text, baseline = seeded_spill(tmp_path)
        path = run_paths(index_dir / "spill")[0]
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:len(blob) // 2])
        self.check_cold_resume(index_dir, text, baseline,
                               "regenerating keys from source")


class TestRestoreShapeFaults:
    """Saved spill state that no longer matches the configuration."""

    def restore(self, index_dir, state_mutator):
        from repro.core.index import DetectionIndex
        index = DetectionIndex(str(index_dir)).open()
        state = index.load_spill()
        assert isinstance(state, dict)
        state_mutator(state)
        index.save_spill(state)

        warnings = []
        config = dataset1_config()
        source = SpillingKeySource()
        source.attach_run_context(index=DetectionIndex(str(index_dir)).open(),
                                  warn=warnings.append)
        tables = source.restore_spilled(index, config, None)
        return tables, warnings

    def test_missing_candidate_rejected(self, tmp_path):
        index_dir, _, _ = seeded_spill(tmp_path)

        def mutate(state):
            state["ghost"] = state.pop("movie")

        tables, warnings = self.restore(index_dir, mutate)
        assert tables is None
        assert any("is missing candidate" in message for message in warnings)

    def test_empty_state_starts_cold_silently(self, tmp_path):
        index_dir, _, _ = seeded_spill(tmp_path)
        tables, warnings = self.restore(
            index_dir, lambda state: state.clear())
        assert tables is None
        assert warnings == []  # nothing saved is not damage

    def test_key_count_mismatch_rejected(self, tmp_path):
        index_dir, _, _ = seeded_spill(tmp_path)

        def mutate(state):
            state["movie"]["key_count"] = 99

        tables, warnings = self.restore(index_dir, mutate)
        assert tables is None
        assert any("does not match candidate" in message
                   for message in warnings)

    def test_row_count_mismatch_rejected(self, tmp_path):
        index_dir, _, _ = seeded_spill(tmp_path)

        def mutate(state):
            state["movie"]["rows"] += 1

        tables, warnings = self.restore(index_dir, mutate)
        assert tables is None
        assert any("row-count mismatch" in message for message in warnings)
