"""The key-pattern mini-language.

Table 1 and Table 3 of the paper define key parts with patterns such as
``K1,K2`` (first and second consonant), ``K1-K5`` (first five consonants),
``C1-C4`` (first four characters), and ``D3,D4`` (third and fourth digit).
The letters select a *character class* of the source text and the numbers
select 1-based positions within that class:

===========  ============================================================
``K``        consonants (alphabetic, not a vowel)
``C``        characters (any non-whitespace character)
``D``        digits
``V``        vowels (extension)
``A``        alphabetic characters (extension)
``W``        word initials (extension; first character of each word)
``S``        Soundex code positions (extension; position into the code)
===========  ============================================================

A pattern is a comma-separated list of items, each either ``<class><pos>``
or a range ``<class><lo>-<class><hi>`` / ``<class><lo>-<hi>`` over a single
class.  Positions that do not exist in the source text are skipped — the
paper's experiments rely on short/missing values simply yielding shorter
keys that sort early.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from ..errors import PatternSyntaxError
from ..similarity import soundex

_VOWELS = set("aeiouAEIOU")

_ITEM_RE = re.compile(
    r"^(?P<cls>[A-Z])(?P<lo>\d+)(?:-(?:(?P<cls2>[A-Z])?(?P<hi>\d+)))?$")

_KNOWN_CLASSES = set("KCDVAWS")


class _ClassTable(dict):
    """A ``str.translate`` table that keeps one character class.

    Filled lazily, one code point at a time, from the class's
    per-character predicate: a kept character maps to itself, any other
    to ``None`` (deleted).  Translating is therefore exact per code point
    for any input.  The table holds at most ``limit`` code points; past
    that, unseen ones are answered without being stored.
    """

    limit = 1 << 14

    def __init__(self, keep: Callable[[str], bool]):
        super().__init__()
        self.keep = keep

    def __missing__(self, code: int) -> str | None:
        char = chr(code)
        kept = char if self.keep(char) else None
        if len(self) < self.limit:
            self[code] = kept
        return kept


#: Classes that select characters one by one, extracted by translation.
_TABLES = {
    "K": _ClassTable(lambda c: c.isalpha() and c not in _VOWELS),
    "C": _ClassTable(lambda c: not c.isspace()),
    "D": _ClassTable(str.isdigit),
    "V": _ClassTable(_VOWELS.__contains__),
    "A": _ClassTable(str.isalpha),
}


def _word_initials(text: str) -> str:
    return "".join([word[0] for word in text.split()])


#: Classes computed from the whole text.
_FUNCTIONS = {"W": _word_initials, "S": soundex}


def _item_extractor(char_class: str, lo: int, hi: int) -> Callable[[str], str]:
    """Positions ``lo``..``hi`` of ``char_class`` as a function of the text."""
    start = lo - 1
    table = _TABLES.get(char_class)
    if table is not None:
        return lambda text: text.translate(table)[start:hi]
    whole = _FUNCTIONS.get(char_class)
    if whole is None:
        raise PatternSyntaxError(f"unknown character class {char_class!r}")
    return lambda text: whole(text)[start:hi]


@dataclass(frozen=True)
class PatternItem:
    """One selection: positions ``lo``..``hi`` (1-based, inclusive) of a class."""

    char_class: str
    lo: int
    hi: int

    def extract(self, text: str) -> str:
        """Characters this item selects from ``text`` (missing → shorter)."""
        return _item_extractor(self.char_class, self.lo, self.hi)(text)


@dataclass(frozen=True)
class Pattern:
    """A parsed key pattern: an ordered tuple of :class:`PatternItem`."""

    items: tuple[PatternItem, ...]
    source: str

    def extract(self, text: str) -> str:
        """Apply every item to ``text`` and concatenate the selections."""
        return compile_pattern(self)(text)

    def __str__(self) -> str:
        return self.source


@lru_cache(maxsize=1024)
def compile_pattern(pattern: Pattern) -> Callable[[str], str]:
    """``pattern`` as one function of the text, built once per pattern.

    Each item's class extractor and slice bounds are bound here, so
    applying the pattern is one translation (or word/Soundex pass) and
    one slice per item.  Adjacent items of one class that continue each
    other (``D3,D4``) become one slice: the joined slices are the same
    characters.
    """
    spans: list[list] = []
    for item in pattern.items:
        if spans and spans[-1][0] == item.char_class \
                and spans[-1][2] + 1 == item.lo:
            spans[-1][2] = item.hi
        else:
            spans.append([item.char_class, item.lo, item.hi])
    extractors = [_item_extractor(*span) for span in spans]
    if len(extractors) == 1:
        return extractors[0]
    return lambda text: "".join([extract(text) for extract in extractors])


def parse_pattern(source: str) -> Pattern:
    """Parse a pattern string like ``"K1-K5"`` or ``"D3,D4"``.

    Raises :class:`~repro.errors.PatternSyntaxError` on malformed input.
    """
    if not isinstance(source, str) or not source.strip():
        raise PatternSyntaxError("pattern must be a non-empty string")
    items: list[PatternItem] = []
    for raw_item in source.split(","):
        token = raw_item.strip()
        if not token:
            raise PatternSyntaxError(f"empty item in pattern {source!r}")
        match = _ITEM_RE.match(token)
        if not match:
            raise PatternSyntaxError(f"malformed pattern item {token!r} in {source!r}")
        char_class = match.group("cls")
        if char_class not in _KNOWN_CLASSES:
            raise PatternSyntaxError(
                f"unknown character class {char_class!r} in {source!r}")
        second_class = match.group("cls2")
        if second_class is not None and second_class != char_class:
            raise PatternSyntaxError(
                f"range classes differ ({char_class} vs {second_class}) in {source!r}")
        lo = int(match.group("lo"))
        hi_text = match.group("hi")
        hi = int(hi_text) if hi_text is not None else lo
        if lo < 1 or hi < lo:
            raise PatternSyntaxError(
                f"positions must satisfy 1 <= lo <= hi in {token!r}")
        items.append(PatternItem(char_class, lo, hi))
    return Pattern(tuple(items), source=source.strip())
