"""Flat records and relations for the classical (relational) SNM.

The original sorted neighborhood method [Hernández & Stolfo] operates on
a single relation of tuples.  :class:`Record` is one tuple with a stable
``rid``; :class:`Relation` is an ordered collection with schema checking.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Record:
    """One tuple: a record id plus a field mapping (all values strings)."""

    rid: int
    fields: dict[str, str] = field(default_factory=dict)

    @property
    def eid(self) -> int:
        """The record id under the name the window kernel reads."""
        return self.rid

    def get(self, name: str, default: str = "") -> str:
        """Field value or ``default`` when the field is absent/None."""
        value = self.fields.get(name)
        return default if value is None else value

    def __getitem__(self, name: str) -> str:
        return self.fields[name]


class Relation:
    """An ordered collection of :class:`Record` with a fixed attribute set."""

    def __init__(self, attributes: list[str], name: str = "relation"):
        if not attributes:
            raise ValueError("a relation needs at least one attribute")
        self.attributes = list(attributes)
        self.name = name
        self._records: list[Record] = []

    def insert(self, values: dict[str, str]) -> Record:
        """Append a record; unknown attributes are rejected."""
        unknown = set(values) - set(self.attributes)
        if unknown:
            raise ValueError(f"unknown attributes {sorted(unknown)} "
                             f"for relation {self.name!r}")
        record = Record(len(self._records), dict(values))
        self._records.append(record)
        return record

    def extend(self, rows: Iterable[dict[str, str]]) -> None:
        """Insert every row of ``rows`` in order."""
        for row in rows:
            self.insert(row)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __getitem__(self, rid: int) -> Record:
        return self._records[rid]

    def records(self) -> list[Record]:
        """All records in insertion order (a copy of the list)."""
        return list(self._records)
