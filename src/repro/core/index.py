"""The DetectionIndex: one persistent, versioned home for run state.

:class:`DetectionIndex` keeps what a run resumes from — GK tables,
spilled-run state, per-candidate results and the incremental session —
in one directory holding

* ``MANIFEST.json`` — the run manifest: format magic and version, the
  *config fingerprint* (a digest of every result-affecting parameter),
  the *corpus checksum* of the detected document, the run parameters
  (window override, key selection, and the detector's result-affecting
  settings outside the config), per-phase counters, the set of
  candidates whose detection state is committed, the role → segment
  mapping, and the incremental session's delta chain.  Replaced
  atomically once per commit, after the commit's segment, so a killed
  process always leaves a manifest that references only fully written
  segments.
* *segment files* of the shared codec (:mod:`repro.segments`:
  ``segment-<checksum16>.xidx``) — one per role (``gk``, ``spill``,
  ``run/<candidate>``, ``session``), plus one per link of the session's
  delta chain (``session-delta``), each recording its role and the
  config fingerprint it was recorded under.  GK rows are stored with an
  **interned string pool**: every distinct key/OD string appears once
  and rows reference it by position, so loading yields rows whose equal
  strings are one object — as key generation produces them, and as the
  shared-memory execution plane publishes them.

An incremental session is a *base snapshot* (role ``session``) followed
by a chain of *delta* segments, each holding only the rows and pairs
one commit added and naming the link before it.  A commit writes one
delta unless the chain's payload bytes have reached the base's, or the
caller asks for a full snapshot (deletes do); then one full snapshot
replaces base and chain.  Bytes written per commit are therefore
amortized O(delta), and a restore reads at most about two snapshots'
worth.

Fault discipline: **fail cold, never wrong**.  Segments the codec
refuses, segments of another role or config fingerprint, and unreadable
or corrupt manifests warn once each through the observer callback and
contribute nothing; a damaged index degrades to a cold start, it never
resumes wrong state.  A damaged link anywhere in the session chain
drops the whole session: a prefix of the chain is never restored.

Determinism: committed candidate state is ``(pairs, comparisons,
filtered, stats)``.  Clusters are *not* stored —
:class:`~repro.core.clusters.ClusterSet` canonicalizes its order, so
rebuilding the closure from the persisted pairs over the persisted GK
universe reproduces clusters (and the cluster ids feeding descendant
evidence) bit-identically, regardless of union order.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable

from ..segments import SegmentError, SegmentFormat, replace_file
from .gk import GkRow, GkTable

#: First line of every segment file: format magic plus version.
INDEX_MAGIC = "sxnm-index"
INDEX_VERSION = 1
SEGMENT_SUFFIX = ".xidx"
MANIFEST_NAME = "MANIFEST.json"
INDEX_SEGMENTS = SegmentFormat(INDEX_MAGIC, INDEX_VERSION, "segment",
                               SEGMENT_SUFFIX)
#: Role of every link after the base snapshot in the session chain.
SESSION_DELTA_ROLE = "session-delta"

WarnCallback = Callable[[str], None]


# ---------------------------------------------------------------------------
# Fingerprints


def config_fingerprint(config) -> str:
    """A short stable digest of every result-affecting config parameter.

    Covers the candidate relations (PATH/OD/KEY), per-candidate and
    global detection parameters (window, thresholds, descendant usage
    and weights, φ names), the neighborhood strategies with their
    params, and the decision mode — every config field that can change
    detected pairs.  Options outside the config (a detector's decision
    rule, DE passes, calibration, theories) are run parameters; see
    :meth:`DetectionIndex.resume_mismatch`.  Performance knobs
    (workers, caches, filters, spilling) are deliberately excluded:
    they change work, never results, so flipping them must not retire
    a resumable run.
    """
    candidates = []
    for spec in sorted(config.candidates, key=lambda spec: spec.name):
        candidates.append({
            "name": spec.name,
            "xpath": spec.xpath,
            "paths": sorted((entry.pid, entry.rel_path)
                            for entry in spec.paths),
            "ods": [(od.pid, repr(od.relevance), od.phi)
                    for od in spec.ods],
            "keys": [[(entry.pid, entry.order, entry.pattern)
                      for entry in sorted(key, key=lambda e: e.order)]
                     for key in spec.keys],
            "window": spec.window_size,
            "od_threshold": repr(spec.od_threshold),
            "desc_threshold": repr(spec.desc_threshold),
            "duplicate_threshold": repr(spec.duplicate_threshold),
            "use_descendants": spec.use_descendants,
            "desc_phi": spec.desc_phi,
            "desc_weights": sorted((name, repr(value)) for name, value
                                   in spec.desc_weights.items()),
        })
    shape = {
        "candidates": candidates,
        "window": config.window_size,
        "od_threshold": repr(config.od_threshold),
        "desc_threshold": repr(config.desc_threshold),
        "duplicate_threshold": repr(config.duplicate_threshold),
        "neighborhood_strategies": [
            [strategy.name, sorted((key, str(value)) for key, value
                                   in strategy.params.items())]
            for strategy in config.neighborhood_strategies],
        "decision_mode": config.decision_mode,
    }
    blob = json.dumps(shape, sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def corpus_checksum(source) -> str:
    """A short digest identifying the detected corpus.

    XML text hashes directly; a file-backed source (anything with a
    ``path`` attribute, e.g. a streaming ``XmlFileSource``) hashes the
    file bytes in bounded chunks; a parsed document hashes its canonical
    (non-pretty) serialization, which is deterministic for equal trees.
    """
    if not isinstance(source, str):
        path = getattr(source, "path", None)
        if path is not None:
            digest = hashlib.sha256()
            with open(path, "rb") as handle:
                while True:
                    chunk = handle.read(1 << 16)
                    if not chunk:
                        break
                    digest.update(chunk)
            return digest.hexdigest()[:16]
        from ..xmlmodel import serialize
        source = serialize(source, pretty=False)
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def run_signature(window, key_selection) -> dict:
    """Canonical form of the run-level overrides that affect results."""
    if key_selection is None:
        selection = None
    elif isinstance(key_selection, int):
        selection = [key_selection]
    else:
        selection = list(key_selection)
    return {"window": window, "key_selection": selection}


# ---------------------------------------------------------------------------
# GK encoding with an interned string pool


def _encode_tables(tables: dict[str, GkTable],
                   rows: dict[str, list[GkRow]] | None = None) -> dict:
    """Serialize GK tables with every distinct string pooled once.

    With ``rows``, each table contributes only ``rows[name]`` (a session
    delta) instead of all its rows.
    """
    pool: dict[str, int] = {}
    strings: list[str] = []

    def ref(value: str | None) -> int:
        if value is None:
            return -1
        position = pool.get(value)
        if position is None:
            position = pool[value] = len(strings)
            strings.append(value)
        return position

    encoded = {}
    for name, table in tables.items():
        encoded[name] = {
            "keys": table.key_count,
            "ods": table.od_count,
            "rows": [[row.eid,
                      [ref(key) for key in row.keys],
                      [ref(od) for od in row.ods],
                      [[child, list(eids)]
                       for child, eids in row.children.items()]]
                     for row in (table if rows is None else rows[name])],
        }
    return {"strings": strings, "tables": encoded}


def _decode_tables(payload: dict) -> dict[str, GkTable]:
    """Rebuild GK tables; equal strings come back as one shared object."""
    strings = payload["strings"]

    def deref(position: int) -> str | None:
        return None if position < 0 else strings[position]

    tables: dict[str, GkTable] = {}
    for name, data in payload["tables"].items():
        table = GkTable(name, key_count=int(data["keys"]),
                        od_count=int(data["ods"]))
        for eid, keys, ods, children in data["rows"]:
            row = GkRow(int(eid), [deref(k) for k in keys],
                        [deref(o) for o in ods],
                        {child: [int(e) for e in eids]
                         for child, eids in children})
            table.add(row)
        tables[name] = table
    return tables


def _encode_pairs(pairs) -> list[list[int]]:
    return [[left, right] for left, right in sorted(pairs)]


def _decode_pairs(encoded) -> set[tuple[int, int]]:
    return {(int(left), int(right)) for left, right in encoded}


def _replay_session(session: dict | None, payload: dict) -> dict:
    """Apply one session chain link; ``session`` is ``None`` for the base.

    A delta's rows append to their tables and its pairs join the
    confirmed sets; the offset, batch count and comparison counters are
    absolute in every link, so the last link's values stand.
    """
    tables = _decode_tables(payload["gk"])
    pairs = {name: _decode_pairs(encoded)
             for name, encoded in payload["pairs"].items()}
    if session is None:
        session = {"tables": tables, "pairs": pairs}
    else:
        for name, table in tables.items():
            for row in table:
                session["tables"][name].add(row)
        for name, found in pairs.items():
            session["pairs"][name].update(found)
    session["eid_offset"] = int(payload["eid_offset"])
    session["batches"] = int(payload["batches"])
    session["comparisons"] = {name: int(count) for name, count
                              in payload["comparisons"].items()}
    return session


class DetectionIndex:
    """A versioned on-disk directory of resumable detection state.

    Parameters
    ----------
    directory:
        The index directory.  Created on open unless ``read_only``.
    read_only:
        Never write; commits and :meth:`compact` become no-ops (the
        ``sxnm index status`` path).
    warn:
        Callback receiving one human-readable line per recoverable
        problem (damaged manifest or segment, unwritable directory).
        All warnings are also collected in :attr:`warnings`.
    """

    def __init__(self, directory: str, read_only: bool = False,
                 warn: WarnCallback | None = None):
        self.directory = os.fspath(directory)
        self.read_only = read_only
        self.warn = warn
        self.manifest: dict = self._empty_manifest()
        self.warnings: list[str] = []
        self.usable = False
        self.segments_loaded = 0
        self.segments_written = 0
        self._opened = False
        #: Per-role payload cache — load_gk/load_candidate hit disk once.
        self._payloads: dict[str, dict] = {}
        #: Roles whose segment already failed to load — warn once, not
        #: once per lookup.
        self._failed: set[str] = set()
        #: Tables decoded from the on-disk pool (interned rows).
        self._tables: dict[str, GkTable] | None = None
        #: Payload bytes ``[base, chain]`` of the session chain this
        #: index last replayed or wrote; ``None`` until then, and after a
        #: failed write, so that the next commit is a full snapshot.
        self._session_bytes: list[int] | None = None

    # ------------------------------------------------------------------
    # Lifecycle

    @staticmethod
    def _empty_manifest() -> dict:
        return {
            "magic": INDEX_MAGIC,
            "version": INDEX_VERSION,
            "config_fingerprint": None,
            "corpus_checksum": None,
            "run_params": None,
            "counters": {},
            "completed": [],
            "segments": {},
            "session_deltas": [],
        }

    def _emit(self, message: str) -> None:
        self.warnings.append(message)
        if self.warn is not None:
            self.warn(message)

    def open(self) -> "DetectionIndex":
        """Create/inspect the directory and load the manifest."""
        if self._opened:
            return self
        self._opened = True
        try:
            if not os.path.isdir(self.directory):
                if self.read_only:
                    self.usable = False
                    return self
                os.makedirs(self.directory, exist_ok=True)
        except OSError as error:
            self._emit(f"detection index: cannot use directory "
                       f"{self.directory!r} ({error}); running without it")
            self.usable = False
            return self
        self.usable = True
        self._load_manifest()
        return self

    def _load_manifest(self) -> None:
        path = os.path.join(self.directory, MANIFEST_NAME)
        if not os.path.isfile(path):
            return  # a fresh index: the empty manifest stands
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as error:
            self._emit(f"detection index: manifest in {self.directory!r} "
                       f"is unreadable ({error}); starting cold")
            return
        if (not isinstance(manifest, dict)
                or manifest.get("magic") != INDEX_MAGIC
                or manifest.get("version") != INDEX_VERSION):
            self._emit(f"detection index: manifest in {self.directory!r} "
                       f"is not a v{INDEX_VERSION} {INDEX_MAGIC} manifest; "
                       f"starting cold")
            return
        base = self._empty_manifest()
        base.update(manifest)
        base["segments"] = dict(manifest.get("segments") or {})
        base["completed"] = list(manifest.get("completed") or [])
        base["counters"] = dict(manifest.get("counters") or {})
        base["session_deltas"] = list(manifest.get("session_deltas") or [])
        self.manifest = base

    def _flush_manifest(self) -> bool:
        """Atomically publish the manifest; a failed write warns once."""
        if self.read_only or not self.usable:
            return False
        blob = json.dumps(self.manifest, sort_keys=True, indent=1)
        try:
            replace_file(os.path.join(self.directory, MANIFEST_NAME),
                         blob.encode("utf-8"))
        except OSError as error:
            self._emit(f"detection index: cannot write manifest in "
                       f"{self.directory!r} ({error}); state stays in "
                       f"memory only")
            return False
        return True

    # ------------------------------------------------------------------
    # Run identity

    @property
    def fingerprint(self) -> str | None:
        return self.manifest.get("config_fingerprint")

    @property
    def completed(self) -> list[str]:
        return list(self.manifest.get("completed") or [])

    def counters(self) -> dict:
        return dict(self.manifest.get("counters") or {})

    def bump(self, counter: str, delta: int = 1) -> None:
        counters = self.manifest.setdefault("counters", {})
        counters[counter] = counters.get(counter, 0) + delta

    def resume_mismatch(self, config, corpus: str | None,
                        params: dict | None) -> list[str]:
        """Why this index cannot resume the described run (empty = can).

        Checks the config fingerprint, the corpus checksum, and the run
        parameters (window override, key selection, the detector's
        settings) recorded in the manifest; an index that never
        committed anything cannot resume either.
        """
        problems = []
        recorded = self.manifest.get("config_fingerprint")
        if recorded is None:
            problems.append("the index has no committed run to resume")
            return problems
        if recorded != config_fingerprint(config):
            problems.append(
                f"config fingerprint mismatch (index {recorded}, "
                f"run {config_fingerprint(config)})")
        if corpus is not None \
                and self.manifest.get("corpus_checksum") != corpus:
            problems.append(
                f"corpus checksum mismatch (index "
                f"{self.manifest.get('corpus_checksum')}, run {corpus})")
        if params is not None:
            recorded_params = self.manifest.get("run_params") or {}
            drifted = [f"{name} (index {recorded_params.get(name)!r}, "
                       f"run {params.get(name)!r})"
                       for name in sorted(set(recorded_params) | set(params))
                       if recorded_params.get(name) != params.get(name)]
            if drifted:
                problems.append("run parameter mismatch: "
                                + "; ".join(drifted))
        return problems

    def begin_run(self, config, corpus: str | None,
                  params: dict | None) -> None:
        """Start a fresh run: stamp identity, clear committed state.

        Cumulative counters survive (they audit the directory's life),
        and so does an incremental session sharing the directory (its
        chain and ``session_params``); the completed set and run
        segments do not — a non-resume run re-detects everything.
        """
        counters = self.counters()
        counters["runs"] = counters.get("runs", 0) + 1
        segments = {role: name
                    for role, name in self.manifest["segments"].items()
                    if not role.startswith("run/")}
        session = {key: value for key, value in self.manifest.items()
                   if key.startswith("session_")}
        self.manifest = self._empty_manifest()
        self.manifest["config_fingerprint"] = config_fingerprint(config)
        self.manifest["corpus_checksum"] = corpus
        self.manifest["run_params"] = params
        self.manifest["counters"] = counters
        self.manifest["segments"] = segments
        self.manifest.update(session)
        self._payloads = {key: value for key, value in self._payloads.items()
                          if not key.startswith("run/")}
        self._flush_manifest()

    def initialize(self, config) -> None:
        """``sxnm index init``: stamp an empty index with the config."""
        self.manifest = self._empty_manifest()
        self.manifest["config_fingerprint"] = config_fingerprint(config)
        self._payloads.clear()
        self._tables = None
        self._session_bytes = None
        self._flush_manifest()

    # ------------------------------------------------------------------
    # Segments

    def _write_segment(self, role: str,
                       payload_obj) -> tuple[str, int] | None:
        """Write one role's payload; returns the name and payload bytes."""
        if self.read_only or not self.usable:
            return None
        payload = json.dumps(payload_obj, ensure_ascii=True,
                             sort_keys=True).encode("utf-8")
        try:
            name = INDEX_SEGMENTS.write(self.directory, payload, {
                "role": role, "config_fingerprint": self.fingerprint})
        except OSError as error:
            self._emit(f"detection index: cannot write to "
                       f"{self.directory!r} ({error}); {role!r} state "
                       f"stays in memory only")
            return None
        self.segments_written += 1
        return name, len(payload)

    def _load_segment(self, role: str) -> dict | None:
        """Load the manifest's segment for ``role``; faults warn and skip."""
        cached = self._payloads.get(role)
        if cached is not None:
            return cached
        if role in self._failed:
            return None
        name = self.manifest.get("segments", {}).get(role)
        if not name:
            return None
        self._failed.add(role)  # cleared below on a successful load
        loaded = self._read_segment(name, role)
        if loaded is None:
            return None
        self._failed.discard(role)
        self._payloads[role] = loaded[0]
        return loaded[0]

    def _read_segment(self, name: str, role: str) -> tuple[object, int] | None:
        """Read and verify segment ``name`` as ``role`` state.

        Returns the decoded payload and its byte count; every fault
        warns once and returns ``None``.
        """
        try:
            meta, payload = INDEX_SEGMENTS.read(
                os.path.join(self.directory, os.path.basename(name)))
            if meta.get("role") != role:
                raise SegmentError(f"holds {meta.get('role')!r} state, "
                                   f"not {role!r}")
            if meta.get("config_fingerprint", "") != self.fingerprint:
                raise SegmentError("was recorded under a different "
                                   "configuration fingerprint")
            try:
                payload_obj = json.loads(payload.decode("utf-8"))
            except ValueError:  # unreachable behind the checksum
                raise SegmentError("payload does not parse") from None
        except SegmentError as error:
            self._emit(f"detection index: segment {name} {error}; "
                       f"ignoring it")
            return None
        self.segments_loaded += 1
        return payload_obj, len(payload)

    def _commit(self, role: str, payload_obj,
                counters: dict[str, int] | None = None) -> bool:
        """Write the segment, then publish it in one manifest write.

        That write also bumps ``counters`` and, for a ``run/<name>``
        segment, lists ``name`` as completed.
        """
        written = self._write_segment(role, payload_obj)
        if written is None:
            return False
        self.manifest.setdefault("segments", {})[role] = written[0]
        self._payloads[role] = payload_obj
        self._failed.discard(role)
        if role.startswith("run/") \
                and role[4:] not in self.manifest["completed"]:
            self.manifest["completed"].append(role[4:])
        for counter, delta in (counters or {}).items():
            self.bump(counter, delta)
        return self._flush_manifest()

    # ------------------------------------------------------------------
    # GK tables

    def save_gk(self, tables: dict[str, GkTable]) -> bool:
        """Persist the run's GK tables (one pooled segment)."""
        committed = self._commit("gk", _encode_tables(tables), {
            "gk_rows": sum(len(table) for table in tables.values())})
        self._tables = None
        return committed

    def load_gk(self) -> dict[str, GkTable] | None:
        """The persisted GK tables with interned strings, if readable."""
        if self._tables is not None:
            return self._tables
        payload = self._load_segment("gk")
        if payload is None:
            return None
        try:
            self._tables = _decode_tables(payload)
        except (KeyError, TypeError, ValueError, IndexError) as error:
            self._emit(f"detection index: GK segment does not decode "
                       f"({error}); ignoring it")
            self._failed.add("gk")
            self._payloads.pop("gk", None)
            return None
        return self._tables

    # ------------------------------------------------------------------
    # Spilled (out-of-core) GK run state

    def save_spill(self, state: dict) -> bool:
        """Persist out-of-core run-file state (names, shapes, row counts).

        ``state`` maps candidate name to the
        :meth:`~repro.core.spill.SpilledGkTable.state` manifest entry;
        the run files themselves are the spill store's, which verifies
        them on restore and deletes the ones this state no longer names.
        """
        return self._commit("spill", state, {
            "spill_rows": sum(entry.get("rows", 0)
                              for entry in state.values())})

    def load_spill(self) -> dict | None:
        """The persisted spill state, if its segment is readable.

        Only the manifest-level state is validated here; callers must
        re-validate every referenced run file's checksum before trusting
        its rows (``SpillingKeySource.restore_spilled`` does).
        """
        payload = self._load_segment("spill")
        if not isinstance(payload, dict):
            return None
        return payload

    # ------------------------------------------------------------------
    # Per-candidate run state

    def commit_candidate(self, name: str, pairs, comparisons: int,
                         filtered: int, stats: dict | None) -> bool:
        """Commit one candidate's completed detection state.

        The payload holds results only, never timings, so one detection
        always writes the same bytes under the same content-addressed
        name.
        """
        payload = {
            "pairs": _encode_pairs(pairs),
            "comparisons": comparisons,
            "filtered": filtered,
            "stats": stats,
        }
        return self._commit(f"run/{name}", payload, {
            "candidates_committed": 1,
            "window_comparisons": comparisons,
            "pairs_confirmed": len(payload["pairs"])})

    def load_candidate(self, name: str) -> dict | None:
        """The committed state for ``name`` (decoded), if readable."""
        if name not in self.manifest.get("completed", []):
            return None
        payload = self._load_segment(f"run/{name}")
        if payload is None:
            return None
        try:
            return {
                "pairs": _decode_pairs(payload["pairs"]),
                "comparisons": int(payload["comparisons"]),
                "filtered": int(payload["filtered"]),
                "stats": payload.get("stats"),
            }
        except (KeyError, TypeError, ValueError) as error:
            self._emit(f"detection index: run state for {name!r} does "
                       f"not decode ({error}); ignoring it")
            self._failed.add(f"run/{name}")
            self._payloads.pop(f"run/{name}", None)
            return None

    # ------------------------------------------------------------------
    # Incremental session state

    def commit_session(self, eid_offset: int, batches: int, states: dict,
                       delta: dict | None = None) -> bool:
        """Commit an incremental session: one delta link or a snapshot.

        ``states`` maps candidate name to ``(table, pairs, comparisons)``
        — the :class:`~repro.core.incremental._CandidateState` essence —
        and ``delta`` maps it to ``(rows, pairs)``, what the session
        added since its previous commit.  Those are appended to the
        chain as one delta segment naming the link before it.  A full
        snapshot of ``states`` replaces base and chain instead when
        ``delta`` is ``None``, when this index has not replayed or
        written the chain it would extend, or once the chain's payload
        bytes have reached the base's.  Sorted key lists are *not*
        stored: they are provably ``sorted((key, eid))`` of the table
        (bisect-maintained), so the restore rebuilds them
        bit-identically by sorting.
        """
        sizes = self._session_bytes
        fold = delta is None or sizes is None or sizes[1] >= sizes[0]
        tables = {name: table for name, (table, _, _) in states.items()}
        if fold:
            rows = None
            pairs = {name: found for name, (_, found, _) in states.items()}
        else:
            rows = {name: added for name, (added, _) in delta.items()}
            pairs = {name: found for name, (_, found) in delta.items()}
        payload = {
            "eid_offset": eid_offset,
            "batches": batches,
            "gk": _encode_tables(tables, rows),
            "pairs": {name: _encode_pairs(found)
                      for name, found in pairs.items()},
            "comparisons": {name: comparisons
                            for name, (_, _, comparisons)
                            in states.items()},
        }
        chain = self.manifest["session_deltas"]
        if not fold:
            payload["parent"] = (chain[-1] if chain
                                 else self.manifest["segments"]["session"])
        written = self._write_segment(
            "session" if fold else SESSION_DELTA_ROLE, payload)
        if written is None:
            self._session_bytes = None
            return False
        name, payload_bytes = written
        if fold:
            self.manifest["segments"]["session"] = name
            self.manifest["session_deltas"] = []
            self._session_bytes = [payload_bytes, 0]
        else:
            chain.append(name)
            sizes[1] += payload_bytes
        self._failed.discard("session")
        self.bump("batches_committed")
        return self._flush_manifest()

    def drop_session(self) -> None:
        """Forget the committed session, base and chain; run state stays.

        The next :meth:`commit_session` writes a full snapshot, and
        ``compact`` removes the dropped segment files.
        """
        self.manifest["segments"].pop("session", None)
        self.manifest["session_deltas"] = []
        self._session_bytes = None

    def load_session(self) -> dict | None:
        """Replay the committed session: the base, then each delta.

        A damaged, undecodable or out-of-order link anywhere in the
        chain warns once and returns ``None`` for the whole session (a
        cold start); a prefix of the chain is never restored.
        """
        self._session_bytes = None
        if "session" in self._failed:
            return None
        base = self.manifest.get("segments", {}).get("session")
        if not base:
            return None
        self._failed.add("session")  # cleared below after a full replay
        session = None
        sizes = [0, 0]
        parent = None
        for name in [base] + self.manifest["session_deltas"]:
            loaded = self._read_segment(
                name, "session" if parent is None else SESSION_DELTA_ROLE)
            if loaded is None:
                return None
            payload, payload_bytes = loaded
            if parent is not None and (not isinstance(payload, dict)
                                       or payload.get("parent") != parent):
                self._emit(f"detection index: session delta {name} does "
                           f"not follow {parent}; ignoring the session")
                return None
            try:
                session = _replay_session(session, payload)
            except (AttributeError, KeyError, TypeError, ValueError,
                    IndexError) as error:
                self._emit(f"detection index: session state does not "
                           f"decode ({error}); ignoring it")
                return None
            sizes[parent is not None] += payload_bytes
            parent = name
        self._failed.discard("session")
        self._session_bytes = sizes
        return session

    # ------------------------------------------------------------------
    # Operations (sxnm index …)

    def status(self) -> dict:
        """A human-reportable summary of the index directory."""
        segments = self.manifest.get("segments", {})
        on_disk = []
        if os.path.isdir(self.directory):
            on_disk = [name for name in os.listdir(self.directory)
                       if name.endswith(SEGMENT_SUFFIX)]
        return {
            "directory": self.directory,
            "usable": self.usable,
            "config_fingerprint": self.manifest.get("config_fingerprint"),
            "corpus_checksum": self.manifest.get("corpus_checksum"),
            "run_params": self.manifest.get("run_params"),
            "completed": self.completed,
            "counters": self.counters(),
            "segments": dict(segments),
            "session_deltas": list(self.manifest["session_deltas"]),
            "segment_files": len(on_disk),
            "orphan_segments": sorted(set(on_disk) - self._referenced()),
        }

    def _referenced(self) -> set[str]:
        """Every segment the manifest names, session chain included."""
        return (set(self.manifest.get("segments", {}).values())
                | set(self.manifest["session_deltas"]))

    def compact(self) -> int:
        """Remove segment files the manifest no longer references.

        Content-addressed writes leave earlier generations behind (every
        commit publishes a new file, and a session fold orphans the
        chain it replaces); compaction deletes the orphans and keeps
        every link of the live session chain.  Returns the number of
        files removed.
        """
        if self.read_only or not self.usable:
            return 0
        try:
            removed, failed = INDEX_SEGMENTS.remove_orphans(
                self.directory, self._referenced())
        except OSError as error:
            self._emit(f"detection index: cannot list {self.directory!r} "
                       f"({error}); nothing compacted")
            return 0
        for name, error in failed:
            self._emit(f"detection index: compaction could not remove "
                       f"{name} ({error}); leaving it")
        return removed
