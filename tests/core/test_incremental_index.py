"""Incremental sessions persisted through the DetectionIndex.

A batch session with ``index_dir`` commits after every batch: one delta
segment with the batch's rows and pairs on a base snapshot, folded into
a new snapshot once the chain outweighs its base and on every delete.
A fresh :class:`IncrementalSxnm` over the same directory replays base
and chain and continues bit-identically to a session that never
restarted, wherever in the chain it stopped.  Delete/update deltas
re-window only perturbed neighborhoods and survive restarts the same
way.  A batch whose schema declares a candidate unknown to the
accumulated tables raises a clear ``DetectionError`` instead of
silently drifting eids.
"""

import json
import os

import pytest

from repro.cli import main
from repro.core import (ClusterSet, CounterObserver, IncrementalSxnm,
                        SxnmDetector)
from repro.core.index import DetectionIndex, SEGMENT_SUFFIX
from repro.core.observer import EngineObserver
from repro.datagen import generate_dataset2
from repro.errors import DetectionError
from repro.experiments import dataset1_config, dataset2_config
from repro.xmlmodel import serialize
from tests.core.conftest import (chain_links, disc_batches, open_session,
                                 run_session, session_state)

BATCH_1 = """
<freedb>
  <disc>
    <dtitle>The Blue Monkeys -- Symphony in C</dtitle>
    <cdid>x1</cdid>
    <tracks><title>Intro</title><title>Allegro ma non troppo</title></tracks>
  </disc>
  <disc>
    <dtitle>Iron Maiden -- Powerslave</dtitle>
    <cdid>x2</cdid>
    <tracks><title>Aces High</title><title>2 Minutes to Midnight</title></tracks>
  </disc>
</freedb>
"""

BATCH_2 = """
<freedb>
  <disc>
    <dtitle>The Blue Monkeys -- Symphony in C</dtitle>
    <cdid>y1</cdid>
    <tracks><title>Intro</title><title>Allegro ma non tropo</title></tracks>
  </disc>
  <disc>
    <dtitle>Judas Priest -- Painkiller</dtitle>
    <cdid>y2</cdid>
    <tracks><title>Painkiller</title><title>Hell Patrol</title></tracks>
  </disc>
</freedb>
"""

BATCH_3 = """
<freedb>
  <disc>
    <dtitle>The Blue Monkeyz -- Simphony in C</dtitle>
    <cdid>z1</cdid>
    <tracks><title>Intro</title><title>Allegro ma non troppo</title></tracks>
  </disc>
</freedb>
"""

CANDIDATES = ("disc", "title")


def session_view(session):
    return {name: (session.pairs(name),
                   [list(cluster)
                    for cluster in session.cluster_set(name)])
            for name in CANDIDATES}


class TestSessionRestore:
    def test_restarted_session_continues_bit_identically(self, tmp_path):
        continuous = IncrementalSxnm(dataset2_config(window=5))
        for batch in (BATCH_1, BATCH_2, BATCH_3):
            continuous.add_batch(batch)

        index_dir = str(tmp_path / "session")
        first = IncrementalSxnm(dataset2_config(window=5),
                                index_dir=index_dir)
        assert first.restored is False
        first.add_batch(BATCH_1)
        first.add_batch(BATCH_2)
        del first  # simulate the process dying between batches

        counter = CounterObserver()
        second = IncrementalSxnm(dataset2_config(window=5),
                                 index_dir=index_dir,
                                 observers=[counter])
        assert second.restored is True
        assert counter.counts.get("index_candidates_resumable") \
            == len(CANDIDATES)
        second.add_batch(BATCH_3)
        assert session_view(second) == session_view(continuous)

    def test_every_batch_commits_a_snapshot(self, tmp_path):
        index_dir = str(tmp_path / "session")
        counter = CounterObserver()
        session = IncrementalSxnm(dataset2_config(window=5),
                                  index_dir=index_dir,
                                  observers=[counter])
        session.add_batch(BATCH_1)
        session.add_batch(BATCH_2)
        assert counter.counts.get("index_committed") == 2
        index = DetectionIndex(index_dir, read_only=True).open()
        snapshot = index.load_session()
        assert snapshot is not None
        assert snapshot["batches"] == 2
        assert snapshot["pairs"]["disc"] == session.pairs("disc")

    def test_restore_after_delete_and_update(self, tmp_path):
        def eids(session, name):
            return sorted(session._states[name].table.eids())

        index_dir = str(tmp_path / "session")
        session = IncrementalSxnm(dataset2_config(window=5),
                                  index_dir=index_dir)
        session.add_batch(BATCH_1)
        session.add_batch(BATCH_2)
        session.delete([eids(session, "disc")[0]])
        session.update([eids(session, "disc")[0]], BATCH_3)

        reopened = IncrementalSxnm(dataset2_config(window=5),
                                   index_dir=index_dir)
        assert reopened.restored is True
        assert session_view(reopened) == session_view(session)
        for name in CANDIDATES:
            assert eids(reopened, name) == eids(session, name)

    def test_foreign_fingerprint_starts_fresh_with_warning(self, tmp_path):
        index_dir = str(tmp_path / "session")
        stale = IncrementalSxnm(dataset2_config(window=5),
                                index_dir=index_dir)
        stale.add_batch(BATCH_1)

        counter = CounterObserver()
        drifted_config = dataset2_config(window=5)
        drifted_config.od_threshold = 0.99
        fresh = IncrementalSxnm(drifted_config, index_dir=index_dir,
                                observers=[counter])
        assert fresh.restored is False
        assert any("different configuration fingerprint" in line
                   for line in counter.warnings)
        fresh.add_batch(BATCH_1)  # and the re-stamped index serves it
        again = dataset2_config(window=5)
        again.od_threshold = 0.99
        reopened = IncrementalSxnm(again, index_dir=index_dir)
        assert reopened.restored is True
        assert session_view(reopened) == session_view(fresh)

        # The session's window override and decision rule change pairs
        # as much as the config does, so a changed one starts fresh too.
        for label, changed in (("window", {"window": 8}),
                               ("decision", {"window": 3,
                                             "decision": "combined"})):
            directory = str(tmp_path / label)
            written = IncrementalSxnm(dataset2_config(window=5), window=3,
                                      decision="gates", index_dir=directory)
            written.add_batch(BATCH_1)
            counter = CounterObserver()
            drifted = IncrementalSxnm(dataset2_config(window=5),
                                      index_dir=directory,
                                      observers=[counter], **changed)
            assert drifted.restored is False, label
            assert any("different window or decision rule" in line
                       for line in counter.warnings), label
            drifted.add_batch(BATCH_1)
            same = IncrementalSxnm(dataset2_config(window=5),
                                   index_dir=directory, **changed)
            assert same.restored is True, label
            assert session_view(same) == session_view(drifted)

    def test_session_without_recorded_window_and_decision_starts_fresh(
            self, tmp_path):
        # A session committed before its window and decision rule were
        # recorded cannot show that they match, so it is not restored.
        index_dir = tmp_path / "session"
        IncrementalSxnm(dataset2_config(window=5),
                        index_dir=str(index_dir)).add_batch(BATCH_1)
        manifest_path = index_dir / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["session_params"]
        manifest_path.write_text(json.dumps(manifest))

        counter = CounterObserver()
        reopened = IncrementalSxnm(dataset2_config(window=5),
                                   index_dir=str(index_dir),
                                   observers=[counter])
        assert reopened.restored is False
        assert any("different window or decision rule" in line
                   for line in counter.warnings)
        assert reopened.instance_count("disc") == 0

    def test_detect_run_shares_the_directory(self, tmp_path):
        # A config with indexDir hands one directory to detect runs and
        # sessions alike.  A detect run keeps the session, its window
        # and decision rule included, and a session keeps the run
        # resumable.
        index_dir = str(tmp_path / "shared")
        text = serialize(generate_dataset2(disc_count=20, seed=5))
        session = IncrementalSxnm(dataset2_config(window=5), window=3,
                                  decision="combined", index_dir=index_dir)
        session.add_batch(BATCH_1)
        detected = SxnmDetector(dataset2_config(window=5),
                                index_dir=index_dir).run(text)

        counter = CounterObserver()
        reopened = IncrementalSxnm(dataset2_config(window=5), window=3,
                                   decision="combined", index_dir=index_dir,
                                   observers=[counter])
        assert reopened.restored is True
        assert counter.warnings == []
        assert session_view(reopened) == session_view(session)
        reopened.add_batch(BATCH_2)

        counter = CounterObserver()
        resumed = SxnmDetector(dataset2_config(window=5),
                               index_dir=index_dir,
                               observers=[counter]).run(text, resume=True)
        assert counter.counts.get("pair_compared", 0) == 0
        assert {name: outcome.pairs
                for name, outcome in resumed.outcomes.items()} \
            == {name: outcome.pairs
                for name, outcome in detected.outcomes.items()}

        again = IncrementalSxnm(dataset2_config(window=5), window=3,
                                decision="combined", index_dir=index_dir)
        assert again.restored is True
        assert session_view(again) == session_view(reopened)

    def test_damaged_session_segment_starts_fresh(self, tmp_path):
        import os
        index_dir = tmp_path / "session"
        session = IncrementalSxnm(dataset2_config(window=5),
                                  index_dir=str(index_dir))
        session.add_batch(BATCH_1)
        for name in os.listdir(index_dir):
            if name.endswith(".xidx"):
                path = index_dir / name
                blob = bytearray(path.read_bytes())
                blob[-4] ^= 0xFF
                path.write_bytes(bytes(blob))

        counter = CounterObserver()
        reopened = IncrementalSxnm(dataset2_config(window=5),
                                   index_dir=str(index_dir),
                                   observers=[counter])
        assert reopened.restored is False
        assert any("checksum" in line for line in counter.warnings)
        reopened.add_batch(BATCH_1)
        reference = IncrementalSxnm(dataset2_config(window=5))
        reference.add_batch(BATCH_1)
        assert session_view(reopened) == session_view(reference)


#: Fifteen small batches: the chain folds at batches 3, 7 and 14.
CHAIN_BATCHES = disc_batches([2] * 15)


def payload_bytes(directory, name):
    """The payload length a segment's metadata line records."""
    with open(os.path.join(directory, name), "rb") as handle:
        handle.readline()
        return json.loads(handle.readline())["payload_bytes"]


class TestChainRestart:
    @pytest.mark.parametrize("stop", ["mid-chain", "after-fold",
                                      "after-compact"])
    def test_restart_continues_bit_identically(self, tmp_path, stop):
        continuous = run_session(CHAIN_BATCHES)
        index_dir = str(tmp_path / "session")
        first = open_session(index_dir)
        for number, batch in enumerate(CHAIN_BATCHES, start=1):
            first.add_batch(batch)
            deltas = len(chain_links(first)) - 1
            if stop == "after-fold" and number > 1 and deltas == 0:
                break
            if stop != "after-fold" and deltas >= 2:
                break
        assert number < len(CHAIN_BATCHES)
        if stop == "after-compact":
            links = chain_links(first)
            assert main(["index", "compact", index_dir]) == 0
            on_disk = sorted(name for name in os.listdir(index_dir)
                             if name.endswith(SEGMENT_SUFFIX))
            assert on_disk == sorted(links)
        del first  # the process dies between batches

        second = open_session(index_dir)
        assert second.restored is True
        for batch in CHAIN_BATCHES[number:]:
            second.add_batch(batch)
        assert session_state(second) == session_state(continuous)

    def test_every_prefix_restores_the_committed_state(self, tmp_path):
        index_dir = str(tmp_path / "session")
        session = open_session(index_dir)
        for batch in CHAIN_BATCHES:
            session.add_batch(batch)
            assert session_state(open_session(index_dir)) \
                == session_state(session)

    def test_fold_rule_bounds_restore_and_bytes_written(self, tmp_path):
        index_dir = str(tmp_path / "session")
        session = open_session(index_dir)
        written = 0
        for batch in CHAIN_BATCHES:
            session.add_batch(batch)
            links = chain_links(session)
            sizes = [payload_bytes(index_dir, name) for name in links]
            written += sizes[-1]
            # A delta is appended only while the chain is lighter than
            # the base: a restore reads under two bases plus one delta.
            assert sum(sizes[1:-1]) < sizes[0]
        # Snapshot sizes at least double between folds, so everything
        # written stays within a small multiple of one full snapshot.
        session._index.commit_session(
            0, 0, {name: (state.table, state.pairs, state.comparisons)
                   for name, state in session._states.items()})
        full = payload_bytes(index_dir, chain_links(session)[0])
        assert written <= 4 * full

    def test_compact_keeps_every_chain_segment(self, tmp_path):
        index_dir = str(tmp_path / "session")
        session = run_session(CHAIN_BATCHES, index_dir)
        links = chain_links(session)
        assert len(links) >= 2
        index = DetectionIndex(index_dir).open()
        assert sorted(index.status()["orphan_segments"]) == sorted(
            name for name in os.listdir(index_dir)
            if name.endswith(SEGMENT_SUFFIX) and name not in links)
        assert index.compact() > 0
        assert sorted(name for name in os.listdir(index_dir)
                      if name.endswith(SEGMENT_SUFFIX)) == sorted(links)
        assert index.status()["orphan_segments"] == []
        assert session_state(open_session(index_dir)) \
            == session_state(session)

    def test_delete_and_update_fold(self, tmp_path):
        index_dir = str(tmp_path / "session")
        session = run_session(CHAIN_BATCHES[:5], index_dir)
        before = chain_links(session)
        assert len(before) >= 2
        disc_eids = sorted(session._states["disc"].table.eids())

        session.delete([disc_eids[0]])
        after_delete = chain_links(session)
        assert len(after_delete) == 1 and after_delete[0] != before[0]

        session.update([disc_eids[1]], CHAIN_BATCHES[5])
        after_update = chain_links(session)
        # The update's delete folds; its batch goes on as one delta.
        assert after_update[0] != after_delete[0]
        assert len(after_update) == 2
        assert session_state(open_session(index_dir)) \
            == session_state(session)

    def test_batch_that_raises_folds_the_next_commit(self, tmp_path):
        class StopAfterTitles(EngineObserver):
            def candidate_finished(self, candidate, outcome):
                if candidate == "title":
                    raise KeyboardInterrupt("stopped mid-batch")

        index_dir = str(tmp_path / "session")
        session = run_session(CHAIN_BATCHES[:4], index_dir)
        assert len(chain_links(session)) >= 2
        stopper = StopAfterTitles()
        session.engine.add_observer(stopper)
        with pytest.raises(KeyboardInterrupt):
            session.add_batch(CHAIN_BATCHES[4])
        session.engine.remove_observer(stopper)
        session.add_batch(CHAIN_BATCHES[5])

        # The stopped batch's rows ride on the next commit: a snapshot.
        assert len(chain_links(session)) == 1
        for name in ("disc", "title"):
            state = session._states[name]
            closed = ClusterSet.from_pairs(name, state.pairs,
                                           state.table.eids())
            assert ([list(c) for c in session.cluster_set(name)]
                    == [list(c) for c in closed])
        assert session_state(open_session(index_dir)) \
            == session_state(session)


class TestUnknownCandidateBatch:
    ALIEN_BATCH = (
        "<movies><movie><title>X</title><year>2001</year>"
        "<aka>x</aka><set><actor><firstname>A</firstname>"
        "<lastname>B</lastname></actor></set></movie></movies>")

    def alien_generate(self, session):
        # A movies-schema batch generates GK rows for candidates the
        # accumulated freedb tables never saw — drive the accumulated
        # key source with the alien schema's own config and hierarchy.
        from repro.core import CandidateHierarchy
        alien_config = dataset1_config()
        return lambda: session._key_source.generate(
            self.ALIEN_BATCH, alien_config,
            CandidateHierarchy(alien_config))

    def test_batch_with_alien_schema_raises(self):
        session = IncrementalSxnm(dataset2_config(window=5))
        session.add_batch(BATCH_1)
        with pytest.raises(DetectionError,
                           match="unknown to the accumulated tables"):
            self.alien_generate(session)()

    def test_error_names_the_alien_and_known_candidates(self):
        session = IncrementalSxnm(dataset2_config(window=5))
        session.add_batch(BATCH_1)
        with pytest.raises(DetectionError) as excinfo:
            self.alien_generate(session)()
        message = str(excinfo.value)
        assert "movie" in message
        assert "disc" in message and "title" in message

    def test_rejected_batch_leaves_state_untouched(self):
        session = IncrementalSxnm(dataset2_config(window=5))
        session.add_batch(BATCH_1)
        offset_before = session._key_source._eid_offset
        counts_before = {name: session.instance_count(name)
                         for name in CANDIDATES}
        with pytest.raises(DetectionError):
            self.alien_generate(session)()
        assert session._key_source._eid_offset == offset_before
        assert {name: session.instance_count(name)
                for name in CANDIDATES} == counts_before
        # The session is still healthy: the next well-formed batch lands.
        session.add_batch(BATCH_2)
        assert session.instance_count("disc") == 4
