"""One framing-fault battery for every segment format.

The φ store, the detection index and the spill store frame, publish and
verify their files through one codec (:mod:`repro.segments`), so one
battery damages that framing for all three: a flipped payload byte, a
truncated tail, a future or alien header, a corrupt metadata line, and
a file that cannot be read.  Each fault file runs it by subclassing
:class:`FramingFaults` with an *owner*: an adapter that seeds a
directory with two segments, loads it the way its format does, and
tells whether a segment's state was served.

Every case checks the codec's reason, the owner's warning around it
(its subject, and its consequence: ``ignoring it`` or ``regenerating
keys from source``), that the damaged segment's state is lost — φ
entries skipped, the index role loaded cold, the spill run rejected —
and that the other segment is still served.  Each damaged file warns
once, however often its owner looks at it.
"""

from __future__ import annotations

import json
import os


def flip_payload_byte(path, segments):
    blob = bytearray(open(path, "rb").read())
    blob[-5] ^= 0xFF
    open(path, "wb").write(bytes(blob))


def truncate_tail(path, segments):
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-15])


def future_header(path, segments):
    _, _, rest = open(path, "rb").read().partition(b"\n")
    open(path, "wb").write(f"{segments.magic} v99\n".encode() + rest)


def alien_file(path, segments):
    open(path, "wb").write(b"not a segment at all\n")


def corrupt_metadata_line(path, segments):
    header, _, rest = open(path, "rb").read().partition(b"\n")
    _, _, payload = rest.partition(b"\n")
    open(path, "wb").write(header + b"\n{broken json\n" + payload)


def metadata_without_checksum(path, segments):
    header, _, rest = open(path, "rb").read().partition(b"\n")
    meta_line, _, payload = rest.partition(b"\n")
    meta = json.loads(meta_line)
    del meta["sha256"]
    open(path, "wb").write(header + b"\n" + json.dumps(meta).encode()
                           + b"\n" + payload)


def unreadable_file(path, segments):
    os.unlink(path)
    os.mkdir(path)  # opening a directory raises an OSError


class FramingFaults:
    """Subclass as ``Test…`` and set ``owner`` to the format's adapter.

    An owner is built from a directory path and offers ``segments``
    (its :class:`~repro.segments.SegmentFormat`), ``consequence``,
    ``seed()`` (returns the paths of two segments), ``load()`` (loads
    everything twice; returns the warnings), ``subject(name)`` and
    ``served(path)``.
    """

    owner: type

    def damaged(self, tmp_path, damage):
        owner = self.owner(str(tmp_path / "store"))
        first, second = owner.seed()
        damage(first, owner.segments)
        warnings = owner.load()
        assert len(warnings) == 1, warnings
        name = os.path.basename(first)
        assert warnings[0].startswith(owner.subject(name)), warnings
        assert warnings[0].endswith(owner.consequence), warnings
        assert not owner.served(first)
        assert owner.served(second)
        return warnings[0][len(owner.subject(name)):]

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        reason = self.damaged(tmp_path, flip_payload_byte)
        assert reason.startswith("fails its checksum")

    def test_truncated_tail(self, tmp_path):
        reason = self.damaged(tmp_path, truncate_tail)
        assert reason.startswith("is truncated (")
        assert "payload bytes)" in reason

    def test_alien_version_header(self, tmp_path):
        reason = self.damaged(tmp_path, future_header)
        segments = self.owner.segments
        assert reason.startswith(
            f"has an unrecognized header (not a v{segments.version} "
            f"{segments.magic} file)")

    def test_alien_file_with_segment_suffix(self, tmp_path):
        reason = self.damaged(tmp_path, alien_file)
        assert reason.startswith("has an unrecognized header")

    def test_corrupt_metadata_line(self, tmp_path):
        reason = self.damaged(tmp_path, corrupt_metadata_line)
        assert reason.startswith("has a corrupt metadata line (")

    def test_metadata_line_without_checksum(self, tmp_path):
        reason = self.damaged(tmp_path, metadata_without_checksum)
        assert reason.startswith("has a corrupt metadata line (")
        assert "sha256" in reason

    def test_unreadable_segment_file_warns(self, tmp_path):
        reason = self.damaged(tmp_path, unreadable_file)
        assert reason.startswith("cannot be read (")

    def test_each_damaged_segment_warns_once(self, tmp_path):
        owner = self.owner(str(tmp_path / "store"))
        first, second = owner.seed()
        flip_payload_byte(first, owner.segments)
        alien_file(second, owner.segments)
        warnings = owner.load()
        assert len(warnings) == 2, warnings
        assert not owner.served(first) and not owner.served(second)
