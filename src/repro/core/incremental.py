"""Incremental SXNM: deduplicating repeatedly updated XML data.

The paper recalls that the relational SNM has "an incremental version
… dealing with how to combine data that have already been deduplicated
with new data packets" (Sec. 2.2).  :class:`IncrementalSxnm` transplants
that to XML as an engine configuration built from three stateful stages:

* :class:`AccumulatingKeySource` — batches are documents with the
  familiar schema; their GK rows are eid-offset and appended to
  persistent per-candidate tables.
* :class:`IncrementalNeighborhood` — per candidate and per key a sorted
  key list persists across batches, and each new batch visits only the
  sort positions within ``window − 1`` after a *new* instance.
* :class:`BatchClosure` — cluster labels that survive across batches
  (:class:`~repro.core.clusters.ClusterLabels`: each instance mapped to
  the smallest eid of its cluster) supply the live cluster state for
  descendant evidence; each batch registers only its new instances and
  unions only the pairs it confirmed.

So the Python-level work of one batch is in proportion to the batch,
not to the session.  Two C-level copies remain in proportion to the
session: the cluster snapshot each batch hands to descendant similarity
is a ``dict.copy()`` of the label map, and each batch's ``engine.run``
outcome reports the session's pairs through a copy of every one of them
(``ctx.pairs.update(state.pairs)``).

One documented trade-off of incrementality: a parent pair compared in
an earlier batch is not re-examined when a later batch merges
descendant clusters that would now push the pair over the threshold.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace

from ..config import SxnmConfig
from ..errors import DetectionError
from ..xmlmodel import XmlDocument, parse
from .clusters import ClusterSet
from .engine import DetectionEngine
from .gk import GkRow, GkTable
from .keygen import generate_gk
from .observer import EngineObserver, ObserverGroup
from .results import SxnmResult  # noqa: F401  (re-exported concept)
from .simmeasure import Decision
from .stages import (BOTTOM_UP, CandidateContext, LiveClosure,
                     NeighborhoodOutcome, ThresholdPolicy)
from .window import Compare, slide, window_start


@dataclass
class _CandidateState:
    """Persistent per-candidate state shared by the incremental stages."""

    table: GkTable
    sorted_keys: list[list[tuple[str, int]]]
    pairs: set[tuple[int, int]] = field(default_factory=set)
    comparisons: int = 0
    #: What the current batch added: the closure folds these in and the
    #: session commits them as the index's next delta.
    new_rows: list[GkRow] = field(default_factory=list)
    new_pairs: list[tuple[int, int]] = field(default_factory=list)


class AccumulatingKeySource:
    """Key source that appends eid-offset batch rows to persistent tables.

    Each ``generate`` call treats ``source`` as one batch: its element
    ids are offset so they never collide with earlier batches, the
    shifted rows are appended to the persistent GK tables, and the new
    rows are recorded for :class:`IncrementalNeighborhood`.
    """

    def __init__(self, config: SxnmConfig):
        self._eid_offset = 0
        self.states: dict[str, _CandidateState] = {}
        for spec in config.candidates:
            self.states[spec.name] = _CandidateState(
                table=GkTable(spec.name, key_count=len(spec.keys),
                              od_count=len(spec.ods)),
                sorted_keys=[[] for _ in spec.keys])

    def generate(self, source, config, hierarchy):
        document = parse(source) if isinstance(source, str) else source
        batch_gk = generate_gk(document, config, hierarchy)
        # Validate before ANY state mutation: a batch whose schema
        # declares a candidate these tables never accumulated must not
        # silently shift the eid offset (every later batch would then
        # drift) — it is a configuration mismatch, reported as such.
        unknown = sorted(set(batch_gk) - set(self.states))
        if unknown:
            raise DetectionError(
                "incremental batch declares candidate(s) unknown to the "
                "accumulated tables: "
                + ", ".join(repr(name) for name in unknown)
                + " (known: "
                + ", ".join(repr(name) for name in sorted(self.states))
                + ")")
        offset = self._eid_offset
        self._eid_offset += document.element_count()

        for name, table in batch_gk.items():
            state = self.states[name]
            state.new_rows = []
            state.new_pairs = []
            for row in table:
                children = {child_name: [eid + offset for eid in eids]
                            for child_name, eids in row.children.items()}
                shifted = GkRow(row.eid + offset, list(row.keys),
                                list(row.ods), children)
                state.table.add(shifted)
                state.new_rows.append(shifted)
        return {name: state.table for name, state in self.states.items()}


def _recording(compare: Compare,
               confirmed: list[tuple[int, int]]) -> Compare:
    """``compare``, appending each confirmed pair to ``confirmed``.

    Incremental passes compare only unknown pairs, lower eid first, so
    the duplicates are exactly the pairs the kernel adds, in its order.
    """
    def recorded(left, right):
        verdict = compare(left, right)
        if verdict.is_duplicate:
            confirmed.append((left.eid, right.eid))
        return verdict
    return recorded


def _visited_ranges(positions: list[int], window: int,
                    length: int) -> list[tuple[int, int]]:
    """Merged ``[low, high)`` anchor ranges within ``window − 1`` after
    each of ``positions`` (sorted), clipped to ``length``."""
    ranges: list[list[int]] = []
    for position in positions:
        high = min(position + window, length)
        if ranges and position <= ranges[-1][1]:
            ranges[-1][1] = max(ranges[-1][1], high)
        else:
            ranges.append([position, high])
    return [(low, high) for low, high in ranges]


class IncrementalNeighborhood:
    """Window only the neighborhoods touched by the current batch.

    New rows are merged into the persistent per-key sorted lists.  Only
    a sort position at or within ``window − 1`` after a new entry can
    close a window holding that entry, so only those anchor ranges are
    slid over, in ascending order: the compare calls come in exactly the
    order a walk over the whole list makes them.  A pair whose two
    members both predate the batch is skipped — those neighborhoods
    were already examined.
    """

    traversal = BOTTOM_UP

    def __init__(self, states: dict[str, _CandidateState]):
        self.states = states

    def find_pairs(self, ctx: CandidateContext) -> NeighborhoodOutcome:
        state = self.states[ctx.spec.name]
        new_eids = {row.eid for row in state.new_rows}
        compare = _recording(ctx.compare, state.new_pairs)
        row = state.table.row
        batch_comparisons = 0
        for key_index, order in enumerate(state.sorted_keys):
            ctx.pass_started(key_index)
            pass_comparisons = 0
            entries = [(new.keys[key_index], new.eid)
                       for new in state.new_rows]
            for entry in entries:
                order.insert(bisect.bisect_left(order, entry), entry)
            positions = sorted(bisect.bisect_left(order, entry)
                               for entry in entries)
            for low, high in _visited_ranges(positions, ctx.window,
                                             len(order)):
                first = window_start(low, ctx.window)
                pass_comparisons += slide(
                    [row(eid) for _, eid in order[first:high]], ctx.window,
                    compare, state.pairs, start=low - first,
                    fresh=new_eids)
            ctx.pass_finished(key_index, pass_comparisons)
            batch_comparisons += pass_comparisons
        state.comparisons += batch_comparisons
        ctx.pairs.update(state.pairs)
        return NeighborhoodOutcome(batch_comparisons)


class BatchClosure(LiveClosure):
    """Live closure that folds in only what the current batch added.

    The engine hands ``close`` the session's whole pair set and a
    universe over the whole table, but the labels already hold every
    earlier instance and pair: only the batch's new rows and newly
    confirmed pairs, recorded on the candidate states, are registered
    and unioned, and the universe is never listed.  The snapshot
    ``close`` returns is one copy of the label map.
    """

    def __init__(self, states: dict[str, _CandidateState]):
        super().__init__()
        self.states = states

    def close(self, candidate_name, pairs, universe):
        state = self.states[candidate_name]
        return super().close(candidate_name, state.new_pairs,
                             [row.eid for row in state.new_rows])


class IncrementalSxnm:
    """Stateful SXNM accepting document batches over time.

    With an ``index_dir`` (argument or ``config.index_dir``), the
    session state — accumulated GK tables, confirmed pairs, comparison
    counters, the eid offset — is committed to a
    :class:`~repro.core.index.DetectionIndex` after every batch and
    delete: a batch commits only the rows and pairs it added, as one
    delta segment, and a delete commits a full snapshot.  A new
    :class:`IncrementalSxnm` over the same directory (and the same
    configuration fingerprint, ``window`` and ``decision``) restores
    it: batches continue bit-identically to a session that never
    restarted.  Sorted key lists and cluster labels are *rebuilt* from
    the restored tables and pairs — both reconstructions are canonical,
    so no ordering state needs to persist.
    """

    def __init__(self, config: SxnmConfig, window: int | None = None,
                 decision: Decision = "gates",
                 observers: list[EngineObserver] | tuple = (),
                 index_dir: str | None = None):
        self.window = window
        self.decision: Decision = decision
        if index_dir is not None:
            config = replace(config, index_dir=index_dir)
        self._key_source = AccumulatingKeySource(config)
        self._closure = BatchClosure(self._key_source.states)
        # use_index=False: the session owns the index (one session
        # commit per batch), the engine must not also claim it for
        # per-run state.
        self.engine = DetectionEngine(
            config,
            key_source=self._key_source,
            neighborhood=IncrementalNeighborhood(self._key_source.states),
            decision=ThresholdPolicy(decision),
            closure=self._closure,
            observers=observers,
            use_index=False)
        self.config = self.engine.config
        self.hierarchy = self.engine.hierarchy
        self._states = self._key_source.states
        self._batches = 0
        #: Set when memory ran ahead of the committed chain by more than
        #: the last batch (a batch that raised): the next commit folds.
        self._fold_next = False
        self.restored = False
        self._index = self._open_index()

    # ------------------------------------------------------------------
    # Index plumbing

    def _emit(self) -> ObserverGroup | None:
        if self.engine.observers:
            return ObserverGroup(self.engine.observers)
        return None

    def _warn(self, message: str) -> None:
        emit = self._emit()
        if emit is not None:
            emit.warning(message)

    def _open_index(self):
        directory = getattr(self.config, "index_dir", None)
        if not directory or not getattr(self.config, "index_persist", True):
            return None
        from .index import DetectionIndex, config_fingerprint
        index = DetectionIndex(directory, warn=self._warn)
        index.open()
        if not index.usable:
            return None
        fingerprint = config_fingerprint(self.config)
        # The session's own result-affecting arguments sit beside the
        # config fingerprint, which a detect run over the same
        # directory stamps too.
        params = {"window": self.window, "decision": self.decision}
        restored_candidates = 0
        if index.fingerprint not in (None, fingerprint):
            self._warn(
                f"detection index: session in {directory!r} was recorded "
                f"under a different configuration fingerprint; starting "
                f"a fresh session")
            index.initialize(self.config)
        elif ("session" in index.manifest["segments"]
              and index.manifest.get("session_params") != params):
            self._warn(
                f"detection index: session in {directory!r} was recorded "
                f"with a different window or decision rule; starting a "
                f"fresh session")
            index.drop_session()
        else:
            restored_candidates = self._restore_session(index)
        if (index.fingerprint, index.manifest.get("session_params")) \
                != (fingerprint, params):
            # Stamp what this session runs under, so that its segments
            # carry the fingerprint from the first commit on and its
            # next open can compare.
            index.manifest["config_fingerprint"] = fingerprint
            index.manifest["session_params"] = params
            index._flush_manifest()
        emit = self._emit()
        if emit is not None:
            emit.index_opened(index.directory, restored_candidates,
                              len(index.manifest.get("segments", {})))
        return index

    def _restore_session(self, index) -> int:
        session = index.load_session()
        if session is None:
            return 0
        self._key_source._eid_offset = session["eid_offset"]
        self._batches = session["batches"]
        restored = 0
        for name, state in self._states.items():
            table = session["tables"].get(name)
            if table is None:
                continue
            restored += 1
            state.table = table
            # Bisect-maintained lists are exactly the sorted projection
            # of the table, so sorting reconstructs them bit-identically.
            state.sorted_keys = [
                sorted((row.keys[key_index], row.eid) for row in table)
                for key_index in range(table.key_count)]
            state.pairs = session["pairs"].get(name, set())
            state.comparisons = session["comparisons"].get(name, 0)
            state.new_rows = []
            state.new_pairs = []
            self._rebuild_labels(name, state)
        self.restored = restored > 0
        return restored

    def _rebuild_labels(self, name: str, state: _CandidateState) -> None:
        """Replace ``name``'s cluster labels with the closure of its state."""
        self._closure.rebuild(name, state.table.eids(), state.pairs)

    def _commit_session(self, fold: bool = False) -> None:
        if self._index is None:
            return
        states = {name: (state.table, state.pairs, state.comparisons)
                  for name, state in self._states.items()}
        delta = None
        if not (fold or self._fold_next):
            delta = {name: (state.new_rows, state.new_pairs)
                     for name, state in self._states.items()}
        self._fold_next = False
        committed = self._index.commit_session(
            self._key_source._eid_offset, self._batches, states, delta)
        if committed:
            emit = self._emit()
            if emit is not None:
                emit.index_committed(
                    self._index.directory, None,
                    sum(len(state.pairs)
                        for state in self._states.values()))

    # ------------------------------------------------------------------
    def add_batch(self, source: str | XmlDocument) -> dict[str, int]:
        """Ingest one document batch; returns new-pair counts per candidate.

        The batch must use the same schema (root structure) as previous
        batches; its element ids are offset so they never collide.
        """
        before = {name: len(state.pairs)
                  for name, state in self._states.items()}
        try:
            self.engine.run(source, window=self.window)
        except BaseException:
            # A batch that stops part-way may leave rows and pairs that
            # no closure folded in and no delta will carry: close over
            # the states again and make the next commit a snapshot.
            for name, state in self._states.items():
                self._rebuild_labels(name, state)
            self._fold_next = True
            raise
        self._batches += 1
        self._commit_session()
        return {name: len(state.pairs) - before[name]
                for name, state in self._states.items()}

    # ------------------------------------------------------------------
    def delete(self, eids) -> dict[str, int]:
        """Remove ingested instances; re-window perturbed neighborhoods.

        Every candidate row whose eid is in ``eids`` leaves its table,
        sorted key lists, confirmed pairs, and the live cluster labels
        (child references to deleted descendants are dropped too).
        Survivors that sat within ``window − 1`` sort positions of a
        removed entry form new neighborhoods, so exactly those are
        re-windowed — candidates bottom-up, with live descendant
        evidence — and newly confirmed pairs union into the labels.
        Returns the per-candidate count of pairs confirmed by the
        re-windowing.
        """
        doomed = set(eids)
        confirmed: dict[str, int] = {}
        cluster_snapshot: dict[str, ClusterSet] = {}
        for node in self.hierarchy.order:  # bottom-up, like detection
            spec = node.spec
            state = self._states[spec.name]
            removed_eids = {row.eid for row in state.table
                            if row.eid in doomed}
            window = (self.window if self.window is not None
                      else self.config.effective_window(spec))
            perturbed: set[int] = set()
            if removed_eids:
                for key_index, order in enumerate(state.sorted_keys):
                    for position, (_, eid) in enumerate(order):
                        if eid not in removed_eids:
                            continue
                        hi = min(len(order), position + window)
                        for neighbor in range(window_start(position, window),
                                              hi):
                            neighbor_eid = order[neighbor][1]
                            if neighbor_eid not in removed_eids:
                                perturbed.add(neighbor_eid)
                    state.sorted_keys[key_index] = [
                        entry for entry in order
                        if entry[1] not in removed_eids]
                state.pairs = {pair for pair in state.pairs
                               if pair[0] not in removed_eids
                               and pair[1] not in removed_eids}
            if removed_eids or doomed:
                state.table = self._strip_table(spec.name, state.table,
                                                removed_eids, doomed)
            if removed_eids:
                self._rebuild_labels(spec.name, state)
            state.new_rows = []
            state.new_pairs = []
            confirmed[spec.name] = self._rewindow(spec, state, window,
                                                  perturbed,
                                                  cluster_snapshot)
            cluster_snapshot[spec.name] = self.cluster_set(spec.name)
        self._commit_session(fold=True)
        return confirmed

    @staticmethod
    def _strip_table(name: str, table: GkTable, removed_eids: set[int],
                     doomed: set[int]) -> GkTable:
        """The table without the removed rows and dangling child refs."""
        if not removed_eids and not any(
                eid in doomed
                for row in table
                for child_eids in row.children.values()
                for eid in child_eids):
            return table
        rebuilt = GkTable(name, key_count=table.key_count,
                          od_count=table.od_count)
        for row in table:
            if row.eid in removed_eids:
                continue
            children = {child: [eid for eid in child_eids
                                if eid not in doomed]
                        for child, child_eids in row.children.items()}
            rebuilt.add(GkRow(row.eid, list(row.keys), list(row.ods),
                              children))
        return rebuilt

    def _rewindow(self, spec, state: _CandidateState, window: int,
                  perturbed: set[int],
                  cluster_sets: dict[str, ClusterSet]) -> int:
        """Window pairs with ≥1 perturbed member; union new confirms."""
        if not perturbed:
            return 0
        decider = self.engine.decision.decider(spec, self.config,
                                               cluster_sets, None)
        confirmed: list[tuple[int, int]] = []
        compare = _recording(decider.compare, confirmed)
        for order in state.sorted_keys:
            state.comparisons += slide(
                (state.table.row(eid) for _, eid in order), window,
                compare, state.pairs, fresh=perturbed)
        labels = self._closure.labels(spec.name)
        for left, right in confirmed:
            labels.union(left, right)
        return len(confirmed)

    def update(self, eids, source: str | XmlDocument) -> dict[str, int]:
        """Replace instances: delete ``eids``, then ingest ``source``.

        The replacement rows arrive as a normal batch (fresh eids);
        returns the per-candidate total of pairs confirmed by either
        half of the delta.
        """
        removed = self.delete(eids)
        added = self.add_batch(source)
        return {name: removed.get(name, 0) + added.get(name, 0)
                for name in added}

    # ------------------------------------------------------------------
    def pairs(self, candidate_name: str) -> set[tuple[int, int]]:
        """All confirmed duplicate pairs for ``candidate_name`` so far."""
        return set(self._states[candidate_name].pairs)

    def comparisons(self, candidate_name: str) -> int:
        """Total comparisons spent on ``candidate_name`` so far."""
        return self._states[candidate_name].comparisons

    def cluster_set(self, candidate_name: str) -> ClusterSet:
        """Snapshot of the current clusters (cids are smallest eids)."""
        return self._closure.labels(candidate_name).snapshot(candidate_name)

    def instance_count(self, candidate_name: str) -> int:
        """Number of ingested instances of ``candidate_name``."""
        return len(self._states[candidate_name].table)
