"""The on-disk bytes of every segment kind, pinned across format changes.

``TestDeterministicSegments`` (``tests/core/test_index.py``) compares two
runs of the same code; these tests hold the writers to what the formats
have always written, so a directory written by an earlier version keeps
loading.  Index segments, ``MANIFEST.json`` and spill runs hold only
integers and strings, so their names and SHA-256 digests are recorded
here.  A φ segment's metadata carries
:func:`~repro.similarity.store.phi_fingerprint`, which hashes bytecode,
so it is held to the frozen writer in ``tests/reference_segments.py``.
"""

import hashlib

from repro.core import GkRow, GkTable, SpillStore
from repro.core.index import MANIFEST_NAME, DetectionIndex, run_signature
from repro.experiments import dataset1_config
from repro.similarity.store import PersistentPhiCache
from tests.reference_segments import phi_segment


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_tables():
    movie = GkTable("movie", key_count=2, od_count=3)
    movie.add(GkRow(3, ["MT99", "5MA"], ["Matrix", None, ""],
                    {"person": [5, 6]}))
    movie.add(GkRow(9, ["MT99", "5MA"], ["Matrix", "Zoë", "\n"],
                    {"person": [11]}))
    person = GkTable("person", key_count=1, od_count=1)
    person.add(GkRow(5, ["KEANU"], ["Keanu Reeves"]))
    person.add(GkRow(6, ["KEANU"], [None]))
    person.add(GkRow(11, ["LFISH"], ["Laurence Fishburne"]))
    return {"movie": movie, "person": person}


#: Role -> (segment name, SHA-256 of the file), as the index writes them.
INDEX_SEGMENTS = {
    "gk": ("segment-576c48323c02724a.xidx",
           "b57bc549f2f5e5132d1b089ace5ac1bd700063ca2400c1d83d0dc47169fb3526"),
    "run/movie": (
        "segment-d38b7caec4785c44.xidx",
        "8e19ad7f646913a511f5f18a23de4655bbb2909f83b0a15fcd1546a94b21c134"),
    "run/person": (
        "segment-a81c1126a70118c5.xidx",
        "ef503f4113e661da7c710235df0b1668630f6ac0c11178bbf1a6b8260315f3de"),
    "spill": (
        "segment-ce516adcebc73fdd.xidx",
        "55c660ba4d65312b541368b82d92f36a3905b4acffb9553c90ab63c34348e466"),
    "session": (
        "segment-806f7157efa896c0.xidx",
        "9b0f26c164e58ba80f5f1115cc59c9805796e0f35204893caabe8f706186e022"),
    "session-delta": (
        "segment-3ec74d34e522588b.xidx",
        "b26e1601ab6887cbdb25dee695e09dc3a5b48a89e14b7c276356039bd2badf22"),
}
MANIFEST_DIGEST = \
    "24911e4e39a64faa50568d4cbee4fe465dd16837dafd18c554cdd4261cc719cc"
#: Role -> (run name, SHA-256 of the file), as the spill store writes them.
SPILL_RUNS = {
    "doc": ("run-0c546cfe8860ac53.xrun",
            "184bec82c003364f42e610651041be7040ae5db537ae2934a49bb3eb16ea8304"),
    "key0": (
        "run-0de94ed4eda17c97.xrun",
        "7a31414866675fb169455ad257a3673d39a53af69f2204bdfe434b871d787908"),
}


def write_index(directory):
    """One of each index role, in the order a detection commits them."""
    index = DetectionIndex(str(directory)).open()
    index.begin_run(dataset1_config(), "c" * 16, run_signature(5, None))
    tables = make_tables()
    assert index.save_gk(tables)
    assert index.commit_candidate("movie", {(3, 9)}, 4, 1,
                                  {"confirmed": 1})
    assert index.commit_candidate("person", set(), 2, 0, None)
    assert index.save_spill({"movie": {"rows": 2, "doc": [], "keys": []}})
    states = {"movie": (tables["movie"], {(3, 9)}, 4),
              "person": (tables["person"], set(), 2)}
    assert index.commit_session(12, 1, states)
    added = GkRow(12, ["MT99", "6MA"], ["Matrix", "Zoë", "x"], {})
    tables["movie"].add(added)
    states["movie"] = (tables["movie"], {(3, 9), (9, 12)}, 6)
    assert index.commit_session(13, 2, states,
                                {"movie": ([added], [(9, 12)]),
                                 "person": ([], [])})
    return index


def spill_rows():
    return [GkRow(3, ["SM99", "AB"], ["smith", None], {"person": [4, 5]}),
            GkRow(7, ["SM99", "CD"], ["smith", "Zoë"], {}),
            GkRow(9, ["", "EF"], [None, None], {"person": []})]


class TestIndexBytes:
    def test_each_role_and_the_manifest_keep_their_bytes(self, tmp_path):
        directory = tmp_path / "index"
        index = write_index(directory)
        segments = dict(index.manifest["segments"])
        segments["session-delta"] = index.manifest["session_deltas"][0]
        written = {role: (name, digest(directory / name))
                   for role, name in segments.items()}
        assert written == INDEX_SEGMENTS
        assert digest(directory / MANIFEST_NAME) == MANIFEST_DIGEST


class TestSpillBytes:
    def test_doc_and_key_runs_keep_their_bytes(self, tmp_path):
        store = SpillStore(str(tmp_path / "spill"))
        rows = spill_rows()
        doc, _ = store.write_run("doc", iter(rows))
        key0, _ = store.write_run(
            "key0", iter(sorted(rows, key=lambda row: (row.keys[0],
                                                       row.eid))))
        written = {"doc": (doc, digest(tmp_path / "spill" / doc)),
                   "key0": (key0, digest(tmp_path / "spill" / key0))}
        assert written == SPILL_RUNS


PHI_ENTRIES = {("edit", "matrix", "matrlx"): 0.8333333333333334,
               ("edit", "casablanca", "casablanka"): 0.9,
               ("jaro", "Zoë", "Zoe"): 0.8222222222222223}


class TestPhiBytes:
    def test_a_flush_writes_the_frozen_writers_bytes(self, tmp_path):
        store = PersistentPhiCache(str(tmp_path / "cache")).open()
        for key, value in PHI_ENTRIES.items():
            assert store.record(key, value)
        assert store.flush() == len(PHI_ENTRIES)
        name, blob = phi_segment(PHI_ENTRIES)
        assert store.segment_files() == (name,)
        assert (tmp_path / "cache" / name).read_bytes() == blob

    def test_a_frozen_segment_loads_without_warning(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        name, blob = phi_segment(PHI_ENTRIES)
        (directory / name).write_bytes(blob)
        warnings = []
        store = PersistentPhiCache(str(directory),
                                   warn=warnings.append).open()
        assert warnings == []
        assert {key: store.lookup(key) for key in PHI_ENTRIES} \
            == PHI_ENTRIES
