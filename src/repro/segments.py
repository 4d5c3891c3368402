"""One on-disk segment codec for every file SXNM persists.

The φ store (:mod:`repro.similarity.store`), the detection index
(:mod:`repro.core.index`) and the spill store (:mod:`repro.core.spill`)
each declare one :class:`SegmentFormat` and keep their payload encoding,
their extra metadata keys and what a fault means to them.  This module
owns the rest: the framing (a ``<magic> v<version>`` line, a sorted-key
JSON metadata line carrying ``payload_bytes`` and ``sha256``, the
payload), content-addressed names (``<prefix>-<sha256[:16]><suffix>``),
atomic publication (:func:`replace_file`, a temporary file renamed over
the final name), verified reads that raise :class:`SegmentError` with
the reason, and orphan removal.

Only streamed writes (spill runs) are fsynced before their rename.  No
write needs the sync to stay correct, since a file that a power loss
leaves short fails its verified read and its owner starts cold; but
spill runs are the only segments whose total size grows with the
corpus, and out-of-core mode keeps the corpus out of memory, dirty page
cache included.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import BinaryIO

from .errors import ReproError

#: Verification reads payloads in chunks of this size.
CHUNK_BYTES = 1 << 16


class SegmentError(ReproError):
    """A segment that cannot be trusted; the message says why."""


def replace_file(path: str, *parts: bytes | BinaryIO,
                 sync: bool = False) -> None:
    """Atomically publish ``parts`` (bytes, or files to copy) at ``path``.

    With ``sync``, the file is fsynced before its rename.  A failure
    raises ``OSError`` and leaves no temporary file behind.
    """
    directory, name = os.path.split(path)
    fd, temp_path = tempfile.mkstemp(dir=directory or ".",
                                     prefix=f".{name}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                if isinstance(part, bytes):
                    handle.write(part)
                else:
                    shutil.copyfileobj(part, handle)
            if sync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class SegmentFormat:
    """One on-disk segment format: ``<prefix>-<sha16><suffix>`` files."""

    magic: str
    version: int
    prefix: str
    suffix: str

    def _frame(self, meta: dict, size: int,
               checksum: str) -> tuple[str, bytes]:
        """The segment's name, and its header and metadata lines."""
        line = json.dumps(dict(meta, payload_bytes=size, sha256=checksum),
                          sort_keys=True)
        return (f"{self.prefix}-{checksum[:16]}{self.suffix}",
                f"{self.magic} v{self.version}\n{line}\n".encode("utf-8"))

    def write(self, directory: str, payload: bytes, meta: dict) -> str:
        """Publish ``payload`` with the format's own ``meta`` keys under
        ``directory``; returns the segment's name.  Raises ``OSError``."""
        name, head = self._frame(meta, len(payload),
                                 hashlib.sha256(payload).hexdigest())
        replace_file(os.path.join(directory, name), head + payload)
        return name

    def write_stream(self, directory: str, chunks: Iterable[bytes],
                     meta: dict) -> str:
        """:meth:`write` for a payload that arrives as byte chunks.

        The chunks are hashed while they are spooled to a temporary
        file, so the payload is never in memory at once; ``meta`` is read
        after the last chunk, so their encoder may still fill it in.
        """
        with tempfile.TemporaryFile(dir=directory) as spool:
            digest = hashlib.sha256()
            for chunk in chunks:
                digest.update(chunk)
                spool.write(chunk)
            name, head = self._frame(meta, spool.tell(), digest.hexdigest())
            spool.seek(0)
            replace_file(os.path.join(directory, name), head, spool,
                         sync=True)
        return name

    def remove_orphans(self, directory: str, keep,
                       ) -> tuple[int, list[tuple[str, OSError]]]:
        """Delete this format's files in ``directory`` not named in ``keep``.

        Returns how many were removed and the ``(name, error)`` of each
        that could not be; an unlistable directory raises ``OSError``.
        """
        removed, failed = 0, []
        for name in os.listdir(directory):
            if not name.endswith(self.suffix) or name in keep:
                continue
            try:
                os.unlink(os.path.join(directory, name))
                removed += 1
            except OSError as error:
                failed.append((name, error))
        return removed, failed

    def open_payload(self, path: str) -> tuple[dict, BinaryIO]:
        """The metadata, and the file positioned at its payload's start.

        Header and metadata line are checked, the payload is not: a
        caller that streams it must :meth:`verify` the file first.
        Raises ``OSError`` or :class:`SegmentError`.
        """
        handle = open(path, "rb")
        try:
            if handle.readline(256).decode("utf-8", "replace").split() \
                    != [self.magic, f"v{self.version}"]:
                raise SegmentError(f"has an unrecognized header (not a "
                                   f"v{self.version} {self.magic} file)")
            try:
                meta = json.loads(handle.readline().decode("utf-8"))
                meta["payload_bytes"] = int(meta["payload_bytes"])
                meta["sha256"] = str(meta["sha256"])
            except (ValueError, KeyError, TypeError) as error:
                raise SegmentError(
                    f"has a corrupt metadata line ({error})") from None
        except BaseException:
            handle.close()
            raise
        return meta, handle

    def verify(self, path: str,
               keep: Callable[[bytes], object] | None = None) -> dict:
        """Check the segment at ``path`` in one streaming pass.

        Returns the metadata; each payload chunk of :data:`CHUNK_BYTES`
        also goes to ``keep``, if given.
        """
        digest = hashlib.sha256()
        size = 0
        try:
            meta, handle = self.open_payload(path)
            with handle:
                while chunk := handle.read(CHUNK_BYTES):
                    digest.update(chunk)
                    size += len(chunk)
                    if keep is not None:
                        keep(chunk)
        except OSError as error:
            raise SegmentError(f"cannot be read ({error})") from None
        if size != meta["payload_bytes"]:
            raise SegmentError(f"is truncated ({size} of "
                               f"{meta['payload_bytes']} payload bytes)")
        if digest.hexdigest() != meta["sha256"]:
            raise SegmentError("fails its checksum")
        return meta

    def read(self, path: str) -> tuple[dict, bytes]:
        """The verified metadata and payload of the segment at ``path``."""
        chunks: list[bytes] = []
        meta = self.verify(path, chunks.append)
        return meta, b"".join(chunks)
