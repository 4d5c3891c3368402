"""Fault injection for the DetectionIndex: fail cold, never wrong.

Every test damages an index directory in one specific way, then
asserts that the damage produces exactly one human-readable warning and
that whatever still loads is correct — a damaged index degrades to a
cold start (the state is regenerated), it never resumes wrong state.
Damaged segment framing is the shared battery's
(``tests/segment_faults.py``); the rest is the index's own: role and
fingerprint checks, the manifest, writes, decoding, compaction and the
session chain.  For an incremental
session that holds for the whole chain: one damaged link, wherever it
sits, drops the session rather than restoring a prefix of it.
"""

import json
import os

import pytest

from repro.core import CounterObserver, SxnmDetector
from repro.core.index import (DetectionIndex, INDEX_MAGIC, INDEX_SEGMENTS,
                              MANIFEST_NAME, SEGMENT_SUFFIX,
                              SESSION_DELTA_ROLE)
from repro.datagen import generate_dirty_movies
from repro.experiments import dataset1_config
from repro.xmlmodel import serialize
from tests.core.conftest import (chain_links, disc_batches, open_session,
                                 run_session, session_state)
from tests.core.test_index import make_tables
from tests.segment_faults import FramingFaults


def seeded_directory(tmp_path, name="index"):
    """An index directory holding one committed detection run."""
    directory = tmp_path / name
    document = generate_dirty_movies(25, seed=3, profile="effectiveness")
    detector = SxnmDetector(dataset1_config(), index_dir=str(directory))
    result = detector.run(document, window=5)
    return directory, serialize(document), result


def segment_paths(directory):
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory)
                  if name.endswith(SEGMENT_SUFFIX))


def reopen(directory):
    warnings = []
    index = DetectionIndex(str(directory), warn=warnings.append).open()
    return index, warnings


def load_everything(index):
    """Touch every role so each fault has the chance to surface."""
    index.load_gk()
    for name in index.completed:
        index.load_candidate(name)
    index.load_session()


class IndexOwner:
    """The detection index as an owner of the framing-fault battery."""

    segments = INDEX_SEGMENTS
    consequence = "; ignoring it"

    def __init__(self, directory):
        self.directory = directory

    def seed(self):
        index = DetectionIndex(self.directory).open()
        index.manifest["config_fingerprint"] = "f" * 16
        assert index.save_gk(make_tables())
        assert index.commit_candidate("movie", {(3, 9)}, 4, 0, None)
        self.roles = {os.path.join(self.directory, name): role
                      for role, name in index.manifest["segments"].items()}
        return list(self.roles)

    def load(self):
        warnings = []
        self.index = DetectionIndex(self.directory,
                                    warn=warnings.append).open()
        for _ in range(2):
            self.index.load_gk()
            self.index.load_candidate("movie")
        return warnings

    def subject(self, name):
        return f"detection index: segment {name} "

    def served(self, path):
        if self.roles[path] == "gk":
            return self.index.load_gk() is not None
        return self.index.load_candidate("movie") is not None


class TestSegmentFaults(FramingFaults):
    owner = IndexOwner

    def test_stale_fingerprint_segment(self, tmp_path):
        directory, _, _ = seeded_directory(tmp_path)
        # Rewrite one segment's metadata to claim another fingerprint;
        # patch payload_bytes/sha256 so only the fingerprint check fires.
        path = segment_paths(directory)[0]
        header, _, rest = open(path, "rb").read().partition(b"\n")
        meta_line, _, payload = rest.partition(b"\n")
        meta = json.loads(meta_line)
        meta["config_fingerprint"] = "0" * 16
        open(path, "wb").write(header + b"\n"
                               + json.dumps(meta).encode() + b"\n" + payload)

        index, warnings = reopen(directory)
        load_everything(index)
        assert len(warnings) == 1
        assert "different configuration fingerprint" in warnings[0]

    def test_swapped_roles_detected(self, tmp_path):
        directory, _, _ = seeded_directory(tmp_path)
        index, _ = reopen(directory)
        segments = index.manifest["segments"]
        roles = sorted(segments)
        assert len(roles) >= 2
        # Point one role's manifest entry at another role's segment:
        # the checksum passes (the file is intact) but the role check
        # must still refuse to deliver the wrong state.
        segments[roles[0]] = segments[roles[1]]
        index._flush_manifest()

        reopened, warnings = reopen(directory)
        load_everything(reopened)
        assert len(warnings) == 1
        assert "holds" in warnings[0] and "not" in warnings[0]


class TestManifestFaults:
    def test_unreadable_manifest_starts_cold(self, tmp_path):
        directory, _, _ = seeded_directory(tmp_path)
        (directory / MANIFEST_NAME).write_text("{not json")

        index, warnings = reopen(directory)
        assert len(warnings) == 1
        assert "unreadable" in warnings[0]
        assert index.completed == []
        assert index.load_gk() is None

    def test_alien_manifest_starts_cold(self, tmp_path):
        directory, _, _ = seeded_directory(tmp_path)
        (directory / MANIFEST_NAME).write_text(
            json.dumps({"magic": "other-format", "version": 1}))

        index, warnings = reopen(directory)
        assert len(warnings) == 1
        assert "starting cold" in warnings[0]
        assert index.completed == []

    def test_unusable_directory_warns_and_runs_without(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the directory should be")
        index, warnings = reopen(blocker / "index")
        assert index.usable is False
        assert len(warnings) == 1
        assert "cannot use directory" in warnings[0]


class TestWriteFaults:
    def test_failed_segment_write_warns_and_keeps_state_in_memory(
            self, tmp_path, monkeypatch):
        index, warnings = reopen(tmp_path / "index")
        index.manifest["config_fingerprint"] = "f" * 16
        import tempfile

        def refuse(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(tempfile, "mkstemp", refuse)
        assert index.commit_candidate("movie", {(1, 2)}, 3, 0,
                                      None) is False
        assert len(warnings) == 1
        assert "cannot write" in warnings[0]
        assert index.completed == []

    def test_failed_manifest_write_warns(self, tmp_path, monkeypatch):
        index, warnings = reopen(tmp_path / "index")
        index.manifest["config_fingerprint"] = "f" * 16
        import os as os_module

        def refuse(*args, **kwargs):
            raise OSError("read-only filesystem")

        monkeypatch.setattr(os_module, "replace", refuse)
        assert index._flush_manifest() is False
        assert len(warnings) == 1
        assert "cannot write manifest" in warnings[0]

    def test_read_only_flush_is_a_silent_no_op(self, tmp_path):
        directory, _, _ = seeded_directory(tmp_path)
        index = DetectionIndex(str(directory), read_only=True).open()
        assert index._flush_manifest() is False
        assert index.warnings == []

    def test_open_is_idempotent(self, tmp_path):
        index, warnings = reopen(tmp_path / "index")
        assert index.open() is index
        assert warnings == []


class TestDecodeFaults:
    """Segments that pass every integrity check but do not decode."""

    def seeded_index(self, tmp_path):
        index, warnings = reopen(tmp_path / "index")
        index.manifest["config_fingerprint"] = "f" * 16
        index._flush_manifest()
        return index, warnings

    def test_gk_payload_with_dangling_pool_reference(self, tmp_path):
        index, _ = self.seeded_index(tmp_path)
        index._commit("gk", {"strings": [], "tables": {
            "movie": {"keys": 1, "ods": 1, "rows": [[0, [5], [0], []]]}}})

        reopened, warnings = reopen(index.directory)
        assert reopened.load_gk() is None
        assert reopened.load_gk() is None  # warn once, not per lookup
        assert len(warnings) == 1
        assert "GK segment does not decode" in warnings[0]

    def test_candidate_payload_missing_fields(self, tmp_path):
        index, _ = self.seeded_index(tmp_path)
        index._commit("run/movie", {"pairs": [[1, 2]]})
        index.manifest["completed"] = ["movie"]
        index._flush_manifest()

        reopened, warnings = reopen(index.directory)
        assert reopened.load_candidate("movie") is None
        assert reopened.load_candidate("movie") is None
        assert len(warnings) == 1
        assert "run state for 'movie' does not decode" in warnings[0]

    def test_session_payload_missing_fields(self, tmp_path):
        index, _ = self.seeded_index(tmp_path)
        index._commit("session", {"eid_offset": 3})

        reopened, warnings = reopen(index.directory)
        assert reopened.load_session() is None
        assert reopened.load_session() is None
        assert len(warnings) == 1
        assert "session state does not decode" in warnings[0]

    def test_unparsable_payload_behind_a_valid_checksum(self, tmp_path):
        import hashlib

        index, _ = self.seeded_index(tmp_path)
        payload = b"{not json at all"
        meta = json.dumps({
            "role": "gk", "payload_bytes": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "config_fingerprint": "f" * 16})
        name = f"segment-handmade{SEGMENT_SUFFIX}"
        with open(os.path.join(index.directory, name), "wb") as handle:
            handle.write(f"{INDEX_MAGIC} v1\n{meta}\n".encode() + payload)
        index.manifest["segments"]["gk"] = name
        index._flush_manifest()

        reopened, warnings = reopen(index.directory)
        assert reopened.load_gk() is None
        assert len(warnings) == 1
        assert "does not parse" in warnings[0]


class TestCompactFaults:
    def test_unlistable_directory_warns_and_removes_nothing(
            self, tmp_path, monkeypatch):
        directory, _, _ = seeded_directory(tmp_path)
        index, warnings = reopen(directory)
        import os as os_module

        def refuse(path):
            raise OSError("permission denied")

        monkeypatch.setattr(os_module, "listdir", refuse)
        assert index.compact() == 0
        assert len(warnings) == 1
        assert "nothing compacted" in warnings[0]

    def test_unremovable_orphan_warns_and_is_left(self, tmp_path,
                                                  monkeypatch):
        directory, _, _ = seeded_directory(tmp_path)
        (directory / f"orphan{SEGMENT_SUFFIX}").write_bytes(b"junk")
        index, warnings = reopen(directory)
        import os as os_module

        def refuse(path):
            raise OSError("permission denied")

        monkeypatch.setattr(os_module, "unlink", refuse)
        assert index.compact() == 0
        assert len(warnings) == 1
        assert "could not remove" in warnings[0]
        assert (directory / f"orphan{SEGMENT_SUFFIX}").exists()


class TestNeverWrong:
    def damage_all(self, directory):
        for path in segment_paths(directory):
            blob = bytearray(open(path, "rb").read())
            blob[-5] ^= 0xFF
            open(path, "wb").write(bytes(blob))

    def test_detection_over_damaged_index_matches_index_free_run(
            self, tmp_path):
        directory, text, baseline = seeded_directory(tmp_path)
        self.damage_all(directory)

        observer = CounterObserver()
        detector = SxnmDetector(dataset1_config(),
                                index_dir=str(directory),
                                observers=[observer])
        damaged = detector.run(text, window=5)
        clean = SxnmDetector(dataset1_config()).run(text, window=5)
        for name in clean.outcomes:
            assert damaged.pairs(name) == clean.pairs(name)
            assert ([sorted(c) for c in damaged.outcomes[name].cluster_set]
                    == [sorted(c) for c in clean.outcomes[name].cluster_set])
        # The fresh run recommitted healthy segments over the damage.
        index = DetectionIndex(str(directory)).open()
        load_everything(index)
        assert index.warnings == []

    def test_resume_over_damaged_index_recomputes_cold_not_wrong(
            self, tmp_path):
        directory, text, baseline = seeded_directory(tmp_path)
        self.damage_all(directory)

        observer = CounterObserver()
        detector = SxnmDetector(dataset1_config(),
                                index_dir=str(directory),
                                observers=[observer])
        resumed = detector.run(text, window=5, resume=True)
        assert observer.counts.get("pair_compared", 0) > 0  # really re-ran
        for name in baseline.outcomes:
            assert resumed.pairs(name) == baseline.pairs(name)


# ---------------------------------------------------------------------------
# The incremental session chain: a base snapshot plus delta links


#: One large batch for the base, then four one-disc deltas.
CHAIN_BATCHES = disc_batches([12, 1, 1, 1, 1])


def truncate(path):
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-15])


def flip_payload_byte(path):
    blob = bytearray(open(path, "rb").read())
    blob[-5] ^= 0xFF
    open(path, "wb").write(bytes(blob))


def rewrite_meta(path, change):
    """Apply ``change`` to the metadata line; the payload stays intact."""
    header, _, rest = open(path, "rb").read().partition(b"\n")
    meta_line, _, payload = rest.partition(b"\n")
    meta = json.loads(meta_line)
    change(meta)
    open(path, "wb").write(header + b"\n" + json.dumps(meta).encode()
                           + b"\n" + payload)


def wrong_role(path):
    # The other session role: a delta passed off as the base, or back.
    def swap(meta):
        meta["role"] = ("session" if meta["role"] == SESSION_DELTA_ROLE
                        else SESSION_DELTA_ROLE)
    rewrite_meta(path, swap)


def stale_fingerprint(path):
    rewrite_meta(path, lambda meta: meta.update(config_fingerprint="0" * 16))


class TestSessionChainFaults:
    """A damaged link warns once and drops the whole session, cold."""

    def chained_directory(self, tmp_path):
        directory = tmp_path / "session"
        session = run_session(CHAIN_BATCHES, str(directory))
        links = chain_links(session)
        assert len(links) == len(CHAIN_BATCHES)  # base + four deltas
        return directory, links

    @pytest.mark.parametrize("link", ["base", "middle", "last"])
    @pytest.mark.parametrize("damage, warning", [
        (truncate, "is truncated"),
        (flip_payload_byte, "fails its checksum"),
        (wrong_role, "state, not"),
        (stale_fingerprint, "different configuration fingerprint"),
    ], ids=["truncated", "flipped-byte", "wrong-role", "stale-fingerprint"])
    def test_damaged_link_starts_the_session_cold(self, tmp_path, link,
                                                  damage, warning):
        directory, links = self.chained_directory(tmp_path)
        position = {"base": 0, "middle": 2, "last": len(links) - 1}[link]
        damage(directory / links[position])

        index, warnings = reopen(directory)
        assert index.load_session() is None
        assert index.load_session() is None  # warn once, not per lookup
        assert len(warnings) == 1
        assert warning in warnings[0]

        counter = CounterObserver()
        cold = open_session(str(directory), observers=[counter])
        assert cold.restored is False
        assert len(counter.warnings) == 1
        cold.add_batch(CHAIN_BATCHES[0])
        assert session_state(cold) == session_state(
            run_session(CHAIN_BATCHES[:1]))

    def test_reordered_chain_is_refused(self, tmp_path):
        directory, links = self.chained_directory(tmp_path)
        index, _ = reopen(directory)
        deltas = index.manifest["session_deltas"]
        deltas[1], deltas[2] = deltas[2], deltas[1]
        index._flush_manifest()

        reopened, warnings = reopen(directory)
        assert reopened.load_session() is None
        assert len(warnings) == 1
        assert "does not follow" in warnings[0]

    def test_kill_between_delta_write_and_manifest_flip(self, tmp_path,
                                                        monkeypatch):
        directory = tmp_path / "session"
        session = run_session(CHAIN_BATCHES[:-1], str(directory))
        committed = session_state(session)
        links = chain_links(session)

        def killed(self):
            raise KeyboardInterrupt("killed before the manifest flip")

        monkeypatch.setattr(DetectionIndex, "_flush_manifest", killed)
        with pytest.raises(KeyboardInterrupt):
            session.add_batch(CHAIN_BATCHES[-1])
        monkeypatch.undo()
        index, _ = reopen(directory)
        # The delta reached the disk; the published manifest never
        # named it.
        assert len(index.status()["orphan_segments"]) == 1
        assert [index.manifest["segments"]["session"]] \
            + index.manifest["session_deltas"] == links

        restored = open_session(str(directory))
        assert restored.restored is True
        assert session_state(restored) == committed
        restored.add_batch(CHAIN_BATCHES[-1])
        assert session_state(restored) \
            == session_state(run_session(CHAIN_BATCHES))
