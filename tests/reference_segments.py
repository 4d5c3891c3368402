"""Frozen copy of the φ-store segment writer, kept as a byte oracle.

``PersistentPhiCache._write_segment`` as it stood before the φ store,
the detection index and the spill store moved onto one segment codec
(:mod:`repro.segments`): the payload lines, the metadata line and the
header are built here by hand.  A φ segment's metadata carries
:func:`~repro.similarity.store.phi_fingerprint`, which hashes bytecode,
so its bytes differ between Python versions and cannot be pinned by a
recorded digest; ``tests/test_segment_bytes.py`` holds the live writer
to this copy instead.  The other segment kinds are pinned by digest.

Self-contained on purpose.  Do not edit it to follow the codec.
"""

from __future__ import annotations

import hashlib
import json

from repro.similarity.store import phi_fingerprint


def phi_segment(entries: dict[tuple, float]) -> tuple[str, bytes]:
    """The file name and bytes a flush of ``entries`` writes."""
    lines = [json.dumps([phi, left, right, value], ensure_ascii=True)
             for (phi, left, right), value in sorted(entries.items())]
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    checksum = hashlib.sha256(payload).hexdigest()
    fingerprints = {phi: phi_fingerprint(phi)
                    for phi in sorted({key[0] for key in entries})}
    meta = json.dumps({
        "entries": len(entries),
        "payload_bytes": len(payload),
        "sha256": checksum,
        "fingerprints": fingerprints,
    }, sort_keys=True)
    blob = f"sxnm-phi-cache v1\n{meta}\n".encode("utf-8") + payload
    return f"segment-{checksum[:16]}.phiseg", blob
