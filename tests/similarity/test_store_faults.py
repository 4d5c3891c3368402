"""Fault injection for the persistent φ cache: fail cold, never wrong.

Every test damages a cache directory in a specific way, then asserts
two things: the damage produces exactly one human-readable warning, and
a detection run over that directory still returns results bit-identical
to a cache-free run (a damaged cache degrades to a cold start — it can
never change a pair, a cluster, or a score).  Damaged segment framing
is the shared battery's (``tests/segment_faults.py``); the rest is the
φ store's own: fingerprint drift, unwritable directories, and whole
detections over a damaged cache.
"""

import os

import pytest

from repro.core import SxnmDetector
from repro.core.observer import CounterObserver
from repro.datagen import generate_dirty_movies
from repro.experiments import dataset1_config
from repro.similarity import (PhiTraits, register_similarity, reset_registry)
from repro.similarity.store import (PHI_SEGMENTS, PersistentPhiCache,
                                    SEGMENT_SUFFIX)
from tests.segment_faults import FramingFaults


def seeded_directory(tmp_path, name="cache"):
    """A cache directory holding one valid flushed segment."""
    directory = tmp_path / name
    store = PersistentPhiCache(str(directory)).open()
    store.record(("edit", "matrix", "matrlx"), 0.8333333333333334)
    store.record(("edit", "casablanca", "casablanka"), 0.9)
    store.record(("jaro", "alpha", "alpine"), 0.7)
    assert store.flush() == 3
    return directory


def segment_path(directory):
    names = [name for name in os.listdir(directory)
             if name.endswith(SEGMENT_SUFFIX)]
    assert len(names) == 1
    return os.path.join(directory, names[0])


def reopen(directory):
    warnings = []
    store = PersistentPhiCache(str(directory), warn=warnings.append).open()
    return store, warnings


class PhiOwner:
    """The φ store as an owner of the framing-fault battery."""

    segments = PHI_SEGMENTS
    consequence = "; ignoring it"
    batches = [{("edit", "matrix", "matrlx"): 0.8333333333333334,
                ("edit", "casablanca", "casablanka"): 0.9},
               {("jaro", "alpha", "alpine"): 0.7}]

    def __init__(self, directory):
        self.directory = directory
        self.entries = {}

    def seed(self):
        store = PersistentPhiCache(self.directory).open()
        for batch in self.batches:
            before = set(store.segment_files())
            for key, value in batch.items():
                store.record(key, value)
            store.flush()
            (name,) = set(store.segment_files()) - before
            self.entries[os.path.join(self.directory, name)] = batch
        return list(self.entries)

    def load(self):
        warnings = []
        self.store = PersistentPhiCache(self.directory,
                                        warn=warnings.append).open()
        self.store.refresh(os.listdir(self.directory))
        return warnings

    def subject(self, name):
        return f"phi cache: segment {name} "

    def served(self, path):
        return all(self.store.lookup(key) == value
                   for key, value in self.entries[path].items())


class TestSegmentFaults(FramingFaults):
    owner = PhiOwner


class TestFingerprintDrift:
    def teardown_method(self):
        reset_registry()

    def test_reimplemented_phi_drops_only_its_entries(self, tmp_path):
        directory = seeded_directory(tmp_path)
        # "edit" gets a new implementation after the segment was written:
        # its persisted scores no longer describe the current code.
        register_similarity("edit", lambda left, right: 0.0,
                            traits=PhiTraits(cost=3, symmetric=True),
                            overwrite=True)

        store, warnings = reopen(directory)
        assert len(warnings) == 1
        assert "different implementation" in warnings[0]
        assert "'edit'" in warnings[0]
        assert store.lookup(("edit", "matrix", "matrlx")) is None
        assert store.lookup(("jaro", "alpha", "alpine")) == 0.7  # kept

    def test_restored_phi_revalidates_entries(self, tmp_path):
        directory = seeded_directory(tmp_path)
        register_similarity("edit", lambda left, right: 0.0,
                            traits=PhiTraits(cost=3, symmetric=True),
                            overwrite=True)
        reset_registry()  # back to the built-in implementation

        store, warnings = reopen(directory)
        assert warnings == []
        assert store.lookup(("edit", "matrix", "matrlx")) \
            == 0.8333333333333334

    def test_unregistered_phi_entries_are_skipped(self, tmp_path):
        directory = tmp_path / "cache"
        register_similarity("ephemeral", lambda left, right: 0.5,
                            traits=PhiTraits(cost=1, symmetric=True))
        store = PersistentPhiCache(str(directory)).open()
        store.record(("ephemeral", "a", "b"), 0.5)
        store.record(("edit", "a", "b"), 1.0)
        store.flush()
        reset_registry()  # "ephemeral" no longer exists

        reloaded, warnings = reopen(directory)
        assert len(warnings) == 1
        assert "'ephemeral'" in warnings[0]
        assert reloaded.lookup(("ephemeral", "a", "b")) is None
        assert reloaded.lookup(("edit", "a", "b")) == 1.0


class TestUnwritableDirectories:
    def test_failed_flush_warns_and_keeps_entries(self, tmp_path,
                                                  monkeypatch):
        # The suite runs as root, where mode bits don't bind — simulate
        # the unwritable directory at the atomic-rename boundary instead.
        store = PersistentPhiCache(str(tmp_path)).open()
        store.record(("edit", "a", "b"), 0.5)
        import repro.similarity.store as store_module

        def denied(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr(store_module.os, "replace", denied)
        warnings = []
        store.warn = warnings.append
        assert store.flush() == 0
        assert len(warnings) == 1
        assert "cannot write" in warnings[0]
        assert store.pending == 1        # nothing was lost...
        assert store.lookup(("edit", "a", "b")) == 0.5
        monkeypatch.undo()
        assert store.flush() == 1        # ...and a later flush succeeds

    def test_directory_path_through_a_file(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        warnings = []
        store = PersistentPhiCache(str(blocker / "cache"),
                                   warn=warnings.append).open()
        assert len(warnings) == 1
        assert "running cold" in warnings[0]
        assert not store.usable
        assert store.record(("edit", "a", "b"), 0.5)  # memo still works
        assert store.flush() == 0                     # silently skipped
        assert len(warnings) == 1


class TestDetectionStaysColdNeverWrong:
    """Damaged caches through the full engine: warn once, same results."""

    @pytest.fixture(scope="class")
    def movies(self):
        return generate_dirty_movies(40, seed=7, profile="effectiveness")

    @pytest.fixture(scope="class")
    def baseline(self, movies):
        result = SxnmDetector(dataset1_config()).run(movies)
        return {name: outcome.pairs
                for name, outcome in result.outcomes.items()}

    def run_with_cache(self, movies, directory):
        counter = CounterObserver()
        result = SxnmDetector(dataset1_config(),
                              phi_cache_dir=str(directory),
                              observers=[counter]).run(movies)
        pairs = {name: outcome.pairs
                 for name, outcome in result.outcomes.items()}
        return pairs, counter

    def test_corrupted_cache_runs_cold_with_one_warning(self, tmp_path,
                                                        movies, baseline):
        directory = tmp_path / "cache"
        first, counter = self.run_with_cache(movies, directory)
        assert first == baseline
        assert counter.counts.get("cache_flushed") == 1

        path = segment_path(directory)
        blob = bytearray(open(path, "rb").read())
        blob[-7] ^= 0x01
        open(path, "wb").write(bytes(blob))

        second, counter = self.run_with_cache(movies, directory)
        assert second == baseline          # cold, not wrong
        assert len(counter.warnings) == 1
        assert "fails its checksum" in counter.warnings[0]
        # The cold run recomputed and re-flushed a valid replacement.
        assert counter.counts.get("cache_entries_loaded", 0) == 0
        assert counter.counts.get("cache_entries_flushed", 0) > 0

    def test_unusable_cache_dir_runs_cold_with_one_warning(self, tmp_path,
                                                           movies,
                                                           baseline):
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        pairs, counter = self.run_with_cache(movies, blocker / "cache")
        assert pairs == baseline
        assert len(counter.warnings) == 1
        assert "running cold" in counter.warnings[0]
