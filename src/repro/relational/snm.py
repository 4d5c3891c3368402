"""The classical Sorted Neighborhood Method (Hernández & Stolfo).

Three steps (paper Sec. 2.2): key generation, lexicographic sorting, and
a fixed-size window sliding over the sorted keys, comparing only records
inside the window.  The multi-pass variant repeats the process with
several keys and unions the pairs before transitive closure.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from ..clustering import transitive_closure
from ..core.execution import SerialPlane
from ..keys import compile_pattern, parse_pattern
from .matchers import Matcher
from .record import Record, Relation


@dataclass(frozen=True)
class RelationalKeyPart:
    """One key component: a field name and an extraction pattern.

    The pattern is parsed and compiled on construction, so a malformed
    one raises :class:`~repro.errors.PatternSyntaxError` here rather
    than at the first record.
    """

    field: str
    pattern: str
    extract: Callable[[str], str] = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        object.__setattr__(self, "extract",
                           compile_pattern(parse_pattern(self.pattern)))

    def __reduce__(self):
        return RelationalKeyPart, (self.field, self.pattern)


@dataclass(frozen=True)
class RelationalKey:
    """An ordered list of parts building one sort key for a record."""

    parts: tuple[RelationalKeyPart, ...]
    name: str = "key"

    @classmethod
    def create(cls, parts: list[tuple[str, str]], name: str = "key") -> RelationalKey:
        """Build from ``[(field, pattern), ...]``."""
        if not parts:
            raise ValueError("a key needs at least one part")
        return cls(tuple(RelationalKeyPart(f, p) for f, p in parts), name=name)

    def generate(self, record: Record) -> str:
        """Uppercased key string for ``record`` (missing fields skipped)."""
        return "".join([part.extract(record.get(part.field))
                        for part in self.parts]).upper()


@dataclass
class SnmResult:
    """Outcome of an SNM run.

    ``pairs`` are the matcher-confirmed duplicate pairs (rid tuples,
    smaller first); ``clusters`` the transitive closure over all records;
    ``comparisons`` the number of matcher invocations; timing fields are
    seconds per phase (KG = key generation + sort, SW = sliding window,
    TC = transitive closure).
    """

    pairs: set[tuple[int, int]] = field(default_factory=set)
    clusters: list[list[int]] = field(default_factory=list)
    comparisons: int = 0
    key_generation_seconds: float = 0.0
    window_seconds: float = 0.0
    closure_seconds: float = 0.0

    @property
    def duplicate_detection_seconds(self) -> float:
        """The paper's DD time: sliding window plus transitive closure."""
        return self.window_seconds + self.closure_seconds


def sorted_neighborhood(relation: Relation, keys: list[RelationalKey],
                        matcher: Matcher, window: int = 5,
                        closure: bool = True,
                        plane=None) -> SnmResult:
    """Run (multi-pass) SNM over ``relation``.

    One sliding-window pass per key in ``keys``; pairs are unioned across
    passes and closed transitively (the multi-pass method, which the
    paper reports "significantly increases recall").

    Parameters
    ----------
    relation:
        The records to deduplicate.
    keys:
        Key definitions; one pass each.  Must be non-empty.
    matcher:
        Equational theory / similarity decision ``(Record, Record) -> bool``.
    window:
        Window size ``w >= 2``; each record is compared to its ``w - 1``
        predecessors in key order.
    closure:
        When false, skip transitive closure (``clusters`` stays empty) —
        useful for measuring phase costs separately.
    plane:
        An :class:`~repro.core.execution.ExecutionPlane` to run the
        passes on.  A parallel plane shards each pass into overlapping
        anchor ranges across its worker pool; the relational window has
        no ``skip_known`` optimization, so even comparison counts match
        the serial run exactly.  ``None`` runs in-process.
    """
    if not keys:
        raise ValueError("at least one key is required")
    if window < 2:
        raise ValueError("window size must be >= 2")
    if plane is None:
        plane = SerialPlane()

    result = SnmResult()
    all_rids = [record.rid for record in relation]

    for key in keys:
        start = time.perf_counter()
        keyed = sorted(all_rids, key=lambda rid: (key.generate(relation[rid]), rid))
        result.key_generation_seconds += time.perf_counter() - start

        start = time.perf_counter()
        result.comparisons += plane.relational_pass(
            [relation[rid] for rid in keyed], window, matcher, result.pairs)
        result.window_seconds += time.perf_counter() - start

    if closure:
        start = time.perf_counter()
        result.clusters = transitive_closure(result.pairs, all_rids)
        result.closure_seconds = time.perf_counter() - start
    return result
