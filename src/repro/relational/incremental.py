"""Incremental SNM.

The paper notes that "for large amounts of data as well as for repeatedly
updated data there exists an incremental version of the method dealing
with how to combine data that have already been deduplicated with new
data packets".  :class:`IncrementalSnm` maintains one sorted key list per
key definition; a new batch is merged into each list and only windows
that contain at least one *new* record are compared, so previously
deduplicated data is not re-compared against itself.
"""

from __future__ import annotations

import bisect

from ..clustering import UnionFind
from ..core.execution import match_classifier
from ..core.window import slide
from .matchers import Matcher
from .record import Record, Relation
from .snm import RelationalKey


class IncrementalSnm:
    """Stateful multi-pass SNM accepting record batches over time."""

    def __init__(self, attributes: list[str], keys: list[RelationalKey],
                 matcher: Matcher, window: int = 5):
        if not keys:
            raise ValueError("at least one key is required")
        if window < 2:
            raise ValueError("window size must be >= 2")
        self.relation = Relation(attributes, name="incremental")
        self.keys = list(keys)
        self.matcher = matcher
        self.window = window
        self.pairs: set[tuple[int, int]] = set()
        self.comparisons = 0
        # One sorted (key_string, rid) list per key definition.
        self._sorted: list[list[tuple[str, int]]] = [[] for _ in keys]
        self._forest = UnionFind()

    def __len__(self) -> int:
        return len(self.relation)

    def add_batch(self, rows: list[dict[str, str]]) -> list[Record]:
        """Insert ``rows``, compare only neighborhoods of new records.

        Returns the inserted records.  Duplicate pairs accumulate in
        ``pairs`` and the evolving clusters are available via
        :meth:`clusters`.
        """
        new_records = [self.relation.insert(row) for row in rows]
        if not new_records:
            return []

        for key_index, key in enumerate(self.keys):
            order = self._sorted[key_index]
            for record in new_records:
                bisect.insort(order, (key.generate(record), record.rid))
            # Pairs of two old records were compared in a past batch.
            self.comparisons += slide(
                [self.relation[rid] for _, rid in order], self.window,
                match_classifier(self.matcher), self.pairs,
                fresh={record.rid for record in new_records})

        for record in new_records:
            self._forest.add(record.rid)
        for left, right in list(self.pairs):
            self._forest.union(left, right)
        return new_records

    def clusters(self) -> list[list[int]]:
        """Current duplicate clusters (every inserted record appears)."""
        for record in self.relation:
            self._forest.add(record.rid)
        for left, right in self.pairs:
            self._forest.union(left, right)
        return self._forest.groups()
