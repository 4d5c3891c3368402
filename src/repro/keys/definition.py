"""Key definitions: ordered pattern parts over relative paths.

A key for an XML element is built from one or more *parts* (the paper's
``KEY_{s,i}`` relation rows): each part names a relative path into the
element and a character pattern to extract from the text found there.
Parts are concatenated in ``order``.  Generated keys are uppercased, as
in the paper's examples (``Mask of Zorro, 1998`` → ``MSKF98``;
``Matrix``/1999 → ``MT99``).

Missing data produces a shorter key rather than an error: a movie without
a year contributes nothing for a ``D3,D4`` part, which is precisely the
"poorly sorted keys when the year is missing" effect the paper discusses
for its Key 2.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from ..xmlmodel import XmlElement
from ..xpath import Path, compile_path, parse_path
from .pattern import Pattern, compile_pattern, parse_pattern


@dataclass(frozen=True)
class KeyPart:
    """One component of a key: a relative path plus extraction pattern."""

    path: Path
    pattern: Pattern

    @classmethod
    def create(cls, rel_path: str, pattern: str) -> KeyPart:
        """Parse ``rel_path`` and ``pattern`` into a :class:`KeyPart`."""
        return cls(parse_path(rel_path), parse_pattern(pattern))

    def extract(self, element: XmlElement) -> str:
        """Extract this part's characters from ``element`` ("" if missing)."""
        value = compile_path(self.path).first(element)
        if value is None:
            return ""
        return compile_pattern(self.pattern)(value)


@dataclass(frozen=True)
class KeyDefinition:
    """An ordered sequence of :class:`KeyPart` forming one sort key.

    ``name`` labels the key in experiment reports ("Key 1", "Key 2", …).
    """

    parts: tuple[KeyPart, ...]
    name: str = "key"

    @classmethod
    def create(cls, parts: list[tuple[str, str]], name: str = "key") -> KeyDefinition:
        """Build from ``[(rel_path, pattern), ...]`` in key order."""
        if not parts:
            raise ValueError("a key definition needs at least one part")
        return cls(tuple(KeyPart.create(path, pattern) for path, pattern in parts),
                   name=name)

    def generate(self, element: XmlElement) -> str:
        """Generate the (uppercased) key string for ``element``."""
        return compile_key(self)(element)


@lru_cache(maxsize=1024)
def compile_key(definition: KeyDefinition) -> Callable[[XmlElement], str]:
    """``definition`` as one function of the element, built once per key.

    Each part's path and pattern are compiled here; the generated
    function reads each part's first value, extracts its pattern, and
    uppercases the joined parts.  Uppercasing comes after extraction,
    so ``ß`` selected by ``K1`` still gives ``SS``.
    """
    parts = [(compile_path(part.path).first, compile_pattern(part.pattern))
             for part in definition.parts]
    if len(parts) == 1:
        [(first, extract)] = parts

        def generate_one(element: XmlElement) -> str:
            value = first(element)
            return "" if value is None else extract(value).upper()
        return generate_one

    def generate(element: XmlElement) -> str:
        chunks = []
        for first, extract in parts:
            value = first(element)
            if value is not None:
                chunks.append(extract(value))
        return "".join(chunks).upper()
    return generate


def generate_keys(element: XmlElement, definitions: list[KeyDefinition]) -> list[str]:
    """Generate one key per definition for ``element``."""
    return [definition.generate(element) for definition in definitions]
