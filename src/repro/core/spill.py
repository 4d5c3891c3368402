"""Out-of-core detection: spilled GK runs, external merge, streamed windows.

The in-memory pipeline holds the parsed tree, the full GK tables, and
every sorted key list in RAM, so corpus size is the scaling ceiling.
This module removes it: the SAX-style event stream feeds key generation
directly (no :class:`~repro.xmlmodel.XmlDocument`), GK rows spill to
bounded sorted *runs* on disk, a k-way heap merge replays each run set
in exact ``(key, eid)`` order, and the window pass slides over the
merged stream holding only ``window`` rows.

Provable equivalence is the design constraint, not an afterthought:

* Run formation sorts each bounded buffer by ``(keys[k], eid)`` — the
  same total order as :meth:`~repro.core.gk.GkTable.sorted_by_key`
  (eids are unique, so the order has no ties) — and ``heapq.merge``
  over sorted runs reproduces that order exactly.
* The window kernels of :mod:`repro.core.window` take any iterable:
  :func:`~repro.core.window.slide` reads the merged stream once, and
  :func:`~repro.core.window.de_slide` replays it twice (equal-key runs
  first, then the representatives) — the same loops an in-memory pass
  runs over the sorted list.

Run files are segments of the shared codec (:mod:`repro.segments`),
written as a stream, and read warn-once and fail-cold — a damaged run
is never trusted, the engine regenerates from source instead.  Within a
run, repeated key/OD strings are interned into a per-run string pool
(the DAG-compression idea applied at spill time), so a million
identical ``"smith"`` values cost one pool record.
"""

from __future__ import annotations

import heapq
import json
import os
import tempfile
from collections.abc import Callable, Iterable, Iterator
from json.encoder import encode_basestring_ascii

from ..config import CandidateSpec, SxnmConfig
from ..config.model import DEFAULT_SPILL_MAX_ROWS
from ..errors import DetectionError
from ..segments import SegmentError, SegmentFormat
from ..xmlmodel import XmlDocument, XmlElement, XmlEvent, iter_events
from ..xmlmodel.parser import DEFAULT_CHUNK_SIZE, iter_events_file
from .candidates import CandidateHierarchy
from .gk import GkRow
from .keygen import stream_rows
from .stages import BOTTOM_UP, CandidateContext, NeighborhoodOutcome
from .window import key_pass

SPILL_MAGIC = "sxnm-spill"
SPILL_VERSION = 1
RUN_SUFFIX = ".xrun"
RUN_SEGMENTS = SegmentFormat(SPILL_MAGIC, SPILL_VERSION, "run", RUN_SUFFIX)

#: Maximum runs merged at once.  More runs than this are first reduced
#: into intermediate runs, bounding merge memory (each open run holds
#: its string pool) regardless of corpus size.
DEFAULT_MERGE_FAN_IN = 16


class XmlFileSource:
    """A path-backed detection source consumed as an event stream.

    Passing one of these to a streaming detector (instead of XML text or
    a parsed document) keeps even the raw bytes out of memory: key
    generation reads the file through the parser's chunked tokenizer.
    """

    def __init__(self, path, chunk_size: int = DEFAULT_CHUNK_SIZE):
        self.path = os.fspath(path)
        self.chunk_size = chunk_size


def document_events(document: XmlDocument) -> Iterator[XmlEvent]:
    """Replay a parsed document as its equivalent event stream.

    Start events come in pre-order — the same order ``assign_eids``
    numbers elements — so streaming key generation over these events
    assigns identical eids.
    """
    def walk(element: XmlElement) -> Iterator[XmlEvent]:
        yield XmlEvent("start", (element.tag, dict(element.attributes)))
        if element.text:
            yield XmlEvent("text", element.text)
        for child in element.children:
            yield from walk(child)
            if child.tail:
                yield XmlEvent("text", child.tail)
        yield XmlEvent("end", element.tag)
    return walk(document.root)


def source_events(source, chunk_size: int = DEFAULT_CHUNK_SIZE,
                  ) -> Iterator[XmlEvent]:
    """The event stream of any supported detection source."""
    if isinstance(source, str):
        return iter_events(source)
    path = getattr(source, "path", None)
    if path is not None:
        return iter_events_file(
            path, getattr(source, "chunk_size", None) or chunk_size)
    if isinstance(source, XmlDocument):
        return document_events(source)
    raise DetectionError(
        f"cannot stream a source of type {type(source).__name__}; "
        f"pass XML text, an XmlFileSource, or a parsed document")


# ---------------------------------------------------------------------------
# Run files


def _encode_row(row: GkRow, pool: dict[str, int]) -> str:
    """One run-file line for ``row``, interning strings into ``pool``.

    The line is the compact ASCII JSON array ``[eid, key refs, OD refs,
    {child candidate: eids}]``, with ``-1`` for a missing OD.  Every
    value but the child names is an integer, so it is written out
    directly rather than through ``json.dumps``, byte for byte alike.
    """
    refs = []
    for value in row.keys + row.ods:
        if value is None:
            refs.append("-1")
            continue
        index = pool.get(value)
        if index is None:
            index = pool[value] = len(pool)
        refs.append(str(index))
    split = len(row.keys)
    children = ",".join([
        f"{encode_basestring_ascii(name)}:[{','.join(map(str, eids))}]"
        for name, eids in row.children.items()])
    return (f"[{row.eid},[{','.join(refs[:split])}],"
            f"[{','.join(refs[split:])}],{{{children}}}]")


class SpillStore:
    """A directory of GK run files (``run-<sha16>.xrun`` segments).

    A run the codec refuses, or one of another role, is reported once
    via ``warn`` and treated as absent — callers regenerate from source
    rather than trust damaged rows.

    The payload is row lines first, string pool last (``pool_offset`` in
    the meta line marks the boundary), so a run can be *written* in one
    streaming pass — the pool is only complete after the last row — and
    *read* in one streaming pass after a single seek to load the pool.
    """

    def __init__(self, directory, warn: Callable[[str], None] | None = None):
        self.directory = os.fspath(directory)
        self.warn = warn
        self._warned: set[str] = set()

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    # -- writing ------------------------------------------------------

    def write_run(self, role: str, rows: Iterable[GkRow]) -> tuple[str, int]:
        """Spill ``rows`` as one run file; returns ``(name, row count)``.

        Streams: only one encoded line plus the growing string pool are
        in memory at a time.  A write failure raises
        :class:`~repro.errors.DetectionError` — out-of-core mode cannot
        fall back to RAM without breaking its memory contract.
        """
        meta = {"role": role}

        def lines() -> Iterator[bytes]:
            pool: dict[str, int] = {}
            size = count = 0
            for row in rows:
                line = (_encode_row(row, pool) + "\n").encode("ascii")
                size += len(line)
                count += 1
                yield line
            meta.update(pool_offset=size, rows=count)
            yield (json.dumps(list(pool), ensure_ascii=True)
                   + "\n").encode("ascii")

        try:
            os.makedirs(self.directory, exist_ok=True)
            name = RUN_SEGMENTS.write_stream(self.directory, lines(), meta)
        except OSError as exc:
            raise DetectionError(
                f"cannot write spill run under {self.directory!r}: {exc}"
            ) from exc
        return name, meta["rows"]

    def remove_unreferenced(self, referenced: set[str]) -> None:
        """Best-effort deletion of run files no live state points at."""
        try:
            RUN_SEGMENTS.remove_orphans(self.directory, referenced)
        except OSError:
            pass

    # -- reading ------------------------------------------------------

    def validate_run(self, name: str, role: str | None = None) -> bool:
        """One streaming integrity pass; a failing run warns once."""
        try:
            meta = RUN_SEGMENTS.verify(self.path(name))
            if role is not None and meta.get("role") != role:
                raise SegmentError(f"has role {meta.get('role')!r}, "
                                   f"expected {role!r}")
        except SegmentError as error:
            if name not in self._warned and self.warn is not None:
                self.warn(f"spill run {name!r} {error}; "
                          f"regenerating keys from source")
            self._warned.add(name)
            return False
        return True

    def iter_run(self, name: str,
                 memo: dict[str, str] | None = None) -> Iterator[GkRow]:
        """Lazily yield a validated run's rows in their stored order.

        Within a run, equal strings are one object (the run's pool).
        ``memo`` extends that across runs: each pool string is replaced
        by the first equal string the memo has seen.

        Damage racing in *after* validation raises
        :class:`~repro.errors.DetectionError` — failing is always
        preferred to yielding wrong rows.
        """
        try:
            meta, handle = RUN_SEGMENTS.open_payload(self.path(name))
            with handle:
                payload_start = handle.tell()
                pool_offset = int(meta["pool_offset"])
                handle.seek(payload_start + pool_offset)
                pool = json.loads(handle.readline().decode("ascii"))
                if memo is not None:
                    pool = [memo.setdefault(value, value) for value in pool]
                handle.seek(payload_start)
                remaining = pool_offset
                while remaining > 0:
                    line = handle.readline()
                    if not line:
                        raise ValueError("payload ended early")
                    remaining -= len(line)
                    eid, keys, ods, children = json.loads(line)
                    yield GkRow(
                        int(eid),
                        [pool[ref] for ref in keys],
                        [None if ref < 0 else pool[ref] for ref in ods],
                        {child: list(eids)
                         for child, eids in children.items()})
        except (OSError, SegmentError, ValueError, KeyError, IndexError,
                TypeError) as exc:
            raise DetectionError(
                f"spill run {name!r} became unreadable mid-run: {exc}"
            ) from exc


def merge_runs(store: SpillStore, names: list[str],
               key_index: int) -> Iterator[GkRow]:
    """K-way heap merge of per-key runs, yielding ``(key, eid)`` order.

    Each run is already sorted by ``(keys[key_index], eid)`` and eids
    are globally unique, so the merged stream equals
    ``GkTable.sorted_by_key(key_index)`` exactly (no tie ambiguity).
    """
    iterators = [store.iter_run(name) for name in names]
    if not iterators:
        return iter(())
    if len(iterators) == 1:
        return iterators[0]
    return heapq.merge(
        *iterators, key=lambda row: (row.keys[key_index], row.eid))


# ---------------------------------------------------------------------------
# Spilled tables


class SpilledGkTable:
    """A :class:`~repro.core.gk.GkTable` facade over disk-resident runs.

    Carries the same surface the planes and strategies consume —
    ``candidate_name`` / ``key_count`` / ``od_count``, ``__len__``,
    ``__iter__`` (document order), ``eids()``, ``sorted_by_key()`` —
    so the parallel execution planes shard a spilled candidate without
    modification (``sorted_by_key`` materializes; the constant-memory
    path uses :meth:`iter_sorted_by_key` instead).  Only the eid list
    stays in memory: O(rows) integers, already required by closure.
    """

    spilled = True

    def __init__(self, store: SpillStore, candidate_name: str,
                 key_count: int, od_count: int,
                 doc_runs: list[str], key_runs: list[list[str]],
                 eids: list[int], fan_in: int = DEFAULT_MERGE_FAN_IN):
        self.store = store
        self.candidate_name = candidate_name
        self.key_count = key_count
        self.od_count = od_count
        self.doc_runs = list(doc_runs)
        self.key_runs = [list(names) for names in key_runs]
        self._eids = list(eids)
        self.fan_in = max(2, fan_in)
        self.keeper = None  # holds a TemporaryDirectory alive, when used

    def __len__(self) -> int:
        return len(self._eids)

    def eids(self) -> list[int]:
        return list(self._eids)

    def __iter__(self) -> Iterator[GkRow]:
        """Rows in document order; equal strings are one object across
        runs, as they are in a table generated in memory."""
        memo: dict[str, str] = {}
        for name in self.doc_runs:
            yield from self.store.iter_run(name, memo)

    def row(self, eid: int) -> GkRow:
        for row in self:
            if row.eid == eid:
                return row
        raise KeyError(f"no row with eid {eid}")

    def run_count(self, key_index: int | None = None) -> int:
        if key_index is None:
            return len(self.doc_runs) + sum(len(n) for n in self.key_runs)
        return len(self.key_runs[key_index])

    def _reduced(self, key_index: int) -> list[str]:
        """The key's run list, merged down to at most ``fan_in`` runs.

        Reduction writes intermediate runs to the store and replaces the
        run list in place, so repeated passes (and any saved state) reuse
        them.  This bounds merge memory: at most ``fan_in`` string pools
        are ever open at once.
        """
        names = self.key_runs[key_index]
        while len(names) > self.fan_in:
            merged: list[str] = []
            for low in range(0, len(names), self.fan_in):
                group = names[low:low + self.fan_in]
                if len(group) == 1:
                    merged.append(group[0])
                    continue
                name, _ = self.store.write_run(
                    f"key{key_index}", merge_runs(self.store, group, key_index))
                merged.append(name)
            names = merged
        self.key_runs[key_index] = names
        return names

    def iter_sorted_by_key(self, key_index: int) -> Iterator[GkRow]:
        """Lazy merged stream in exact ``sorted_by_key`` order."""
        if not 0 <= key_index < self.key_count:
            raise IndexError(f"key index {key_index} out of range "
                             f"for {self.key_count} keys")
        return merge_runs(self.store, self._reduced(key_index), key_index)

    def sorted_by_key(self, key_index: int) -> list[GkRow]:
        return list(self.iter_sorted_by_key(key_index))

    def state(self) -> dict:
        """The JSON-safe manifest entry an index persists for resume."""
        return {"rows": len(self._eids), "key_count": self.key_count,
                "od_count": self.od_count, "doc": list(self.doc_runs),
                "keys": [list(names) for names in self.key_runs]}


class _CandidateSpiller:
    """Bounded-memory run formation for one candidate.

    Buffers rows in close (document) order; every ``max_rows`` rows it
    flushes one document-order run plus one ``(keys[k], eid)``-sorted
    run per key, then drops the buffer.
    """

    def __init__(self, store: SpillStore, spec: CandidateSpec, max_rows: int):
        self.store = store
        self.spec = spec
        self.key_count = len(spec.keys)
        self.od_count = len(spec.ods)
        self.max_rows = max(1, max_rows)
        self.buffer: list[GkRow] = []
        self.eids: list[int] = []
        self.doc_runs: list[str] = []
        self.key_runs: list[list[str]] = [[] for _ in range(self.key_count)]

    def add(self, row: GkRow) -> None:
        self.buffer.append(row)
        self.eids.append(row.eid)
        if len(self.buffer) >= self.max_rows:
            self.flush()

    def flush(self) -> None:
        if not self.buffer:
            return
        name, _ = self.store.write_run("doc", iter(self.buffer))
        self.doc_runs.append(name)
        for key_index in range(self.key_count):
            ordered = sorted(
                self.buffer,
                key=lambda row: (row.keys[key_index], row.eid))
            name, _ = self.store.write_run(f"key{key_index}", iter(ordered))
            self.key_runs[key_index].append(name)
        self.buffer.clear()

    def finish(self, fan_in: int = DEFAULT_MERGE_FAN_IN) -> SpilledGkTable:
        self.flush()
        return SpilledGkTable(self.store, self.spec.name, self.key_count,
                              self.od_count, self.doc_runs, self.key_runs,
                              self.eids, fan_in=fan_in)


def spill_gk_streaming(events: Iterable[XmlEvent], config: SxnmConfig,
                       hierarchy: CandidateHierarchy | None,
                       store: SpillStore,
                       max_rows: int = DEFAULT_SPILL_MAX_ROWS,
                       fan_in: int = DEFAULT_MERGE_FAN_IN,
                       ) -> dict[str, SpilledGkTable]:
    """Single-pass streaming key generation that spills rows to runs.

    Runs the one streaming key generator,
    :func:`~repro.core.keygen.stream_rows`, with a spilling buffer per
    candidate as its row sink.  Peak memory is the open candidate
    subtree plus one ``max_rows`` buffer per candidate.
    """
    spillers = {spec.name: _CandidateSpiller(store, spec, max_rows)
                for spec in config.candidates}
    stream_rows(events, hierarchy or CandidateHierarchy(config), spillers)
    return {name: spiller.finish(fan_in)
            for name, spiller in spillers.items()}


def save_spilled(index, tables: dict) -> None:
    """Commit the spilled ``tables``' run state to ``index``.

    Once the state is committed, run files under ``<index dir>/spill``
    that it no longer names (an earlier run's) are deleted best-effort.
    """
    state = {name: table.state() for name, table in tables.items()
             if getattr(table, "spilled", False)}
    if index.save_spill(state):
        referenced = {name for entry in state.values()
                      for names in [entry["doc"], *entry["keys"]]
                      for name in names}
        SpillStore(os.path.join(index.directory, "spill")) \
            .remove_unreferenced(referenced)


# ---------------------------------------------------------------------------
# Engine stages


class SpillingKeySource:
    """KeySource that spills GK rows to disk instead of holding tables.

    The spill directory resolves, in order: the constructor argument,
    ``config.spill_dir``, ``<index dir>/spill`` when an index is
    attached, else a temporary directory kept alive exactly as long as
    the returned tables (so results stay readable, and the files vanish
    with them).
    """

    def __init__(self, spill_dir=None, max_rows: int | None = None,
                 fan_in: int = DEFAULT_MERGE_FAN_IN,
                 chunk_size: int = DEFAULT_CHUNK_SIZE):
        self.spill_dir = spill_dir
        self.max_rows = max_rows
        self.fan_in = fan_in
        self.chunk_size = chunk_size
        self._index = None
        self._warn: Callable[[str], None] | None = None

    def attach_run_context(self, index=None,
                           warn: Callable[[str], None] | None = None) -> None:
        """Engine hook: the run's index and warning sink, pre-generate."""
        self._index = index
        self._warn = warn

    def _directory(self, config: SxnmConfig):
        explicit = self.spill_dir or getattr(config, "spill_dir", None)
        if explicit:
            return os.fspath(explicit), None
        index = self._index
        if index is not None and getattr(index, "usable", False):
            return os.path.join(index.directory, "spill"), None
        keeper = tempfile.TemporaryDirectory(prefix="sxnm-spill-")
        return keeper.name, keeper

    def generate(self, source, config: SxnmConfig,
                 hierarchy: CandidateHierarchy | None,
                 ) -> dict[str, SpilledGkTable]:
        directory, keeper = self._directory(config)
        store = SpillStore(directory, warn=self._warn)
        max_rows = self.max_rows or getattr(config, "spill_max_rows",
                                            DEFAULT_SPILL_MAX_ROWS)
        tables = spill_gk_streaming(
            source_events(source, self.chunk_size), config, hierarchy,
            store, max_rows=max_rows, fan_in=self.fan_in)
        if keeper is not None:
            for table in tables.values():
                table.keeper = keeper
        return tables

    def restore_spilled(self, index, config: SxnmConfig,
                        hierarchy: CandidateHierarchy | None,
                        ) -> dict[str, SpilledGkTable] | None:
        """Rebuild spilled tables from an index's saved run state.

        Every referenced run file is re-validated (checksum and all)
        before anything is trusted; any damage or shape mismatch warns
        once and returns ``None`` so the engine regenerates from source
        — cold, never wrong.
        """
        loader = getattr(index, "load_spill", None)
        state = loader() if loader is not None else None
        if not isinstance(state, dict) or not state:
            return None
        directory = (self.spill_dir or getattr(config, "spill_dir", None)
                     or os.path.join(index.directory, "spill"))
        store = SpillStore(directory, warn=self._warn)

        def reject(reason: str) -> None:
            if self._warn is not None:
                self._warn(f"spill state in index {index.directory!r} "
                           f"{reason}; regenerating keys from source")

        tables: dict[str, SpilledGkTable] = {}
        for spec in config.candidates:
            entry = state.get(spec.name)
            if not isinstance(entry, dict):
                reject(f"is missing candidate {spec.name!r}")
                return None
            doc = entry.get("doc")
            keys = entry.get("keys")
            if (entry.get("key_count") != len(spec.keys)
                    or entry.get("od_count") != len(spec.ods)
                    or not isinstance(doc, list)
                    or not isinstance(keys, list)
                    or len(keys) != len(spec.keys)):
                reject(f"does not match candidate {spec.name!r}")
                return None
            for name in list(doc) + [n for group in keys for n in group]:
                if not isinstance(name, str) or not store.validate_run(name):
                    return None
            eids: list[int] = []
            try:
                for name in doc:
                    for row in store.iter_run(name):
                        eids.append(row.eid)
            except DetectionError:
                reject(f"has an unreadable run for {spec.name!r}")
                return None
            if len(eids) != entry.get("rows"):
                reject(f"has a row-count mismatch for {spec.name!r}")
                return None
            tables[spec.name] = SpilledGkTable(
                store, spec.name, len(spec.keys), len(spec.ods), doc,
                [list(group) for group in keys], eids, fan_in=self.fan_in)
        return tables


class SpilledWindowStrategy:
    """Fixed multi-pass windows over disk-resident merged key order.

    For in-memory tables it defers to the execution plane unchanged.
    For spilled tables it still hands large candidates to a parallel
    plane (the facade materializes; shards reuse the same
    ``window_start`` overlap arithmetic, so results stay bit-identical)
    and otherwise runs the window kernel over the merged run streams in
    constant memory, emitting a ``run_merged`` event per pass.
    """

    traversal = BOTTOM_UP

    def __init__(self, duplicate_elimination: bool = False):
        self.duplicate_elimination = duplicate_elimination

    def _plane_worthwhile(self, ctx: CandidateContext, plane) -> bool:
        if not plane.parallel or plane.workers <= 1 or not ctx.key_indices:
            return False
        return len(ctx.table) >= plane._resolved_min_rows(ctx.config)

    def find_pairs(self, ctx: CandidateContext) -> NeighborhoodOutcome:
        plane = ctx.execution_plane()
        table = ctx.table
        if not getattr(table, "spilled", False) \
                or self._plane_worthwhile(ctx, plane):
            return plane.multipass(
                ctx, duplicate_elimination=self.duplicate_elimination)
        total = 0
        for key_index in ctx.key_indices:
            ctx.pass_started(key_index)
            comparisons = key_pass(
                lambda: table.iter_sorted_by_key(key_index), key_index,
                ctx.window, ctx.compare, ctx.pairs,
                self.duplicate_elimination)
            if ctx.emit is not None:
                hook = getattr(ctx.emit, "run_merged", None)
                if hook is not None:
                    hook(ctx.spec.name, key_index,
                         table.run_count(key_index))
            ctx.pass_finished(key_index, comparisons)
            total += comparisons
        return NeighborhoodOutcome(total)
