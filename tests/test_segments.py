"""Unit tests for the segment codec (``repro.segments``).

Damaged files are the framing-fault battery's (``tests/segment_faults.py``,
run by each owner's fault file); the bytes each owner writes are pinned
in ``tests/test_segment_bytes.py``.  These tests cover the codec's own
contract: framing, the two write paths, atomic publication and orphan
removal.
"""

import hashlib
import os

import pytest

from repro.segments import SegmentError, SegmentFormat, replace_file

DEMO = SegmentFormat("sxnm-demo", 3, "blob", ".demo")


def temp_files(directory):
    return [name for name in os.listdir(directory) if name.endswith(".tmp")]


class TestFraming:
    def test_write_then_read_round_trips(self, tmp_path):
        payload = b'{"x": 1}\n'
        name = DEMO.write(str(tmp_path), payload, {"role": "demo"})
        checksum = hashlib.sha256(payload).hexdigest()
        assert name == f"blob-{checksum[:16]}.demo"
        raw = (tmp_path / name).read_bytes()
        assert raw == (b'sxnm-demo v3\n{"payload_bytes": 9, "role": "demo", '
                       b'"sha256": "' + checksum.encode() + b'"}\n' + payload)
        meta, read = DEMO.read(str(tmp_path / name))
        assert read == payload
        assert meta == {"payload_bytes": 9, "role": "demo",
                        "sha256": checksum}
        assert DEMO.verify(str(tmp_path / name)) == meta

    def test_streamed_write_frames_like_a_bytes_write(self, tmp_path):
        chunks = [b"first line\n", b"", b"second line\n"]
        meta = {"role": "demo"}

        def produce():
            yield from chunks
            meta["rows"] = 2  # filled in after the last chunk

        os.makedirs(tmp_path / "a")
        os.makedirs(tmp_path / "b")
        streamed = DEMO.write_stream(str(tmp_path / "a"), produce(), meta)
        written = DEMO.write(str(tmp_path / "b"), b"".join(chunks),
                             {"role": "demo", "rows": 2})
        assert streamed == written
        assert (tmp_path / "a" / streamed).read_bytes() \
            == (tmp_path / "b" / written).read_bytes()
        assert temp_files(tmp_path / "a") == []

    def test_open_payload_stops_at_the_payload(self, tmp_path):
        name = DEMO.write(str(tmp_path), b"payload\n", {})
        meta, handle = DEMO.open_payload(str(tmp_path / name))
        with handle:
            assert handle.read() == b"payload\n"
        assert meta["payload_bytes"] == 8

    def test_another_format_is_refused(self, tmp_path):
        name = DEMO.write(str(tmp_path), b"payload\n", {})
        other = SegmentFormat("sxnm-demo", 4, "blob", ".demo")
        with pytest.raises(SegmentError, match="not a v4 sxnm-demo file"):
            other.read(str(tmp_path / name))
        with pytest.raises(SegmentError, match="unrecognized header"):
            other.verify(str(tmp_path / name))


class TestPublication:
    @pytest.mark.parametrize("write", [
        lambda directory: DEMO.write(directory, b"x\n", {}),
        lambda directory: DEMO.write_stream(directory, iter([b"x\n"]), {}),
        lambda directory: replace_file(os.path.join(directory, "M.json"),
                                       b"{}"),
    ], ids=["bytes", "stream", "replace"])
    def test_failed_publication_leaves_nothing(self, tmp_path, monkeypatch,
                                               write):
        def refuse(source, target):
            raise OSError("read-only filesystem")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="read-only"):
            write(str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_a_failing_stream_leaves_nothing(self, tmp_path):
        def broken():
            yield b"first\n"
            raise ValueError("encoder failed")

        with pytest.raises(ValueError):
            DEMO.write_stream(str(tmp_path), broken(), {})
        assert os.listdir(tmp_path) == []

    def test_replace_file_overwrites_atomically(self, tmp_path):
        target = tmp_path / "MANIFEST.json"
        replace_file(str(target), b"old")
        replace_file(str(target), b"new")
        assert target.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["MANIFEST.json"]


class TestOrphans:
    def test_removes_only_unkept_files_of_the_format(self, tmp_path):
        keep = DEMO.write(str(tmp_path), b"keep\n", {})
        drop = DEMO.write(str(tmp_path), b"drop\n", {})
        (tmp_path / "notes.txt").write_text("not a segment")
        assert DEMO.remove_orphans(str(tmp_path), {keep}) == (1, [])
        assert sorted(os.listdir(tmp_path)) == sorted([keep, "notes.txt"])
        assert drop not in os.listdir(tmp_path)

    def test_reports_what_it_could_not_remove(self, tmp_path, monkeypatch):
        name = DEMO.write(str(tmp_path), b"stuck\n", {})

        def refuse(path):
            raise OSError("busy")

        monkeypatch.setattr(os, "unlink", refuse)
        removed, failed = DEMO.remove_orphans(str(tmp_path), set())
        assert removed == 0
        assert [(failed_name, str(error)) for failed_name, error in failed] \
            == [(name, "busy")]

    def test_an_unlistable_directory_raises(self, tmp_path):
        with pytest.raises(OSError):
            DEMO.remove_orphans(str(tmp_path / "missing"), set())
