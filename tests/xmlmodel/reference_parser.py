"""Frozen reference: the character-at-a-time in-memory XML scanner.

This is the parser's historical in-memory path (``_Scanner`` +
``_scan_events``), kept as an independent oracle for the regex tokenizer
in :mod:`repro.xmlmodel.parser`.  Two XML 1.0 rules were added since it
was frozen: only ``&#[0-9]+;`` and ``&#x[0-9a-fA-F]+;`` naming a legal
``Char`` are accepted as character references, and every raw code point
the scanner reads as character data, an attribute value, a comment, a PI
or CDATA must be a ``Char``.  Do not optimise or refactor it: the
differential tests in ``test_parser_differential.py`` are only as strong
as this code is independent.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from repro.errors import XmlParseError
from repro.xmlmodel import XmlEvent

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = "_:"
_NAME_EXTRA = "_:.-"

_CHARACTER_REFERENCE = re.compile(r"#([0-9]+)|#x([0-9a-fA-F]+)")


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRA


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in _NAME_EXTRA


def _is_xml_char(code: int) -> bool:
    return (code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF
            or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF)


class _Scanner:
    """Character scanner with line/column tracking."""

    def __init__(self, data: str):
        self.data = data
        self.pos = 0
        self.length = len(data)

    def location(self) -> tuple[int, int]:
        """1-based (line, column) of the current position."""
        line = self.data.count("\n", 0, self.pos) + 1
        last_newline = self.data.rfind("\n", 0, self.pos)
        column = self.pos - last_newline
        return line, column

    def error(self, message: str) -> XmlParseError:
        line, column = self.location()
        return XmlParseError(message, line=line, column=column)

    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.data[index] if index < self.length else ""

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def match(self, literal: str) -> bool:
        """Consume ``literal`` if it appears at the current position."""
        if self.data.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.match(literal):
            raise self.error(f"expected {literal!r}")

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.data[self.pos] in " \t\r\n":
            self.pos += 1

    def check_chars(self, end: int) -> None:
        """Raise at the first code point in ``data[pos:end]`` that is not
        an XML 1.0 ``Char``."""
        for index in range(self.pos, end):
            code = ord(self.data[index])
            if not _is_xml_char(code):
                self.pos = index
                raise self.error(f"illegal XML character U+{code:04X}")

    def read_until(self, terminator: str) -> str:
        """Read up to (not including) ``terminator``; consume the terminator."""
        index = self.data.find(terminator, self.pos)
        self.check_chars(index if index >= 0 else self.length)
        if index < 0:
            raise self.error(f"unterminated construct, expected {terminator!r}")
        chunk = self.data[self.pos:index]
        self.pos = index + len(terminator)
        return chunk

    def read_name(self) -> str:
        start = self.pos
        if self.at_end() or not _is_name_start(self.data[self.pos]):
            raise self.error("expected an XML name")
        self.pos += 1
        while self.pos < self.length and _is_name_char(self.data[self.pos]):
            self.pos += 1
        return self.data[start:self.pos]

    def read_text(self) -> str:
        """Read raw character data up to (not including) the next ``<``.

        Stops at end of input if no markup follows; the ``<`` itself is
        left unconsumed.
        """
        index = self.data.find("<", self.pos)
        self.check_chars(index if index >= 0 else self.length)
        if index < 0:
            chunk = self.data[self.pos:]
            self.pos = self.length
        else:
            chunk = self.data[self.pos:index]
            self.pos = index
        return chunk


def _decode_entities(raw: str, scanner) -> str:
    """Replace entity and character references in ``raw``."""
    if "&" not in raw:
        return raw
    parts: list[str] = []
    index = 0
    while True:
        amp = raw.find("&", index)
        if amp < 0:
            parts.append(raw[index:])
            break
        parts.append(raw[index:amp])
        semi = raw.find(";", amp + 1)
        if semi < 0:
            raise scanner.error("unterminated entity reference")
        entity = raw[amp + 1:semi]
        if entity.startswith("#"):
            match = _CHARACTER_REFERENCE.fullmatch(entity)
            code = -1
            if match is not None:
                decimal, hexadecimal = match.groups()
                digits = (decimal or hexadecimal).lstrip("0") or "0"
                if len(digits) <= 7:
                    code = int(digits, 10 if decimal else 16)
            if not _is_xml_char(code):
                raise scanner.error(f"bad character reference &{entity};")
            parts.append(chr(code))
        elif entity in _PREDEFINED_ENTITIES:
            parts.append(_PREDEFINED_ENTITIES[entity])
        else:
            raise scanner.error(f"unknown entity &{entity};")
        index = semi + 1
    return "".join(parts)


def _read_attributes(scanner) -> dict[str, str]:
    attributes: dict[str, str] = {}
    while True:
        scanner.skip_whitespace()
        char = scanner.peek()
        if char in (">", "/", "?", ""):
            return attributes
        name = scanner.read_name()
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        scanner.advance()
        value = scanner.read_until(quote)
        if name in attributes:
            raise scanner.error(f"duplicate attribute {name!r}")
        attributes[name] = _decode_entities(value, scanner)


def _skip_prolog_and_misc(scanner) -> None:
    """Skip the XML declaration, DOCTYPE, comments, and PIs before the root."""
    while True:
        scanner.skip_whitespace()
        if scanner.match("<?"):
            scanner.read_until("?>")
        elif scanner.match("<!--"):
            scanner.read_until("-->")
        elif scanner.match("<!DOCTYPE"):
            # Consume until the matching '>' (internal subsets use brackets).
            depth = 1
            while depth:
                if scanner.at_end():
                    raise scanner.error("unterminated DOCTYPE")
                char = scanner.peek()
                if char == "<":
                    depth += 1
                elif char == ">":
                    depth -= 1
                scanner.advance()
        else:
            return


def reference_events(data: str) -> Iterator[XmlEvent]:
    """Yield ``start``/``text``/``end`` events for ``data``."""
    return _scan_events(_Scanner(data))


def _scan_events(scanner) -> Iterator[XmlEvent]:
    _skip_prolog_and_misc(scanner)
    if scanner.at_end():
        raise scanner.error("document has no root element")

    open_tags: list[str] = []
    started = False
    while True:
        if scanner.at_end():
            if open_tags:
                raise scanner.error(f"unexpected end of input inside <{open_tags[-1]}>")
            if not started:
                raise scanner.error("document has no root element")
            return

        if scanner.peek() != "<":
            raw = scanner.read_text()
            if open_tags:
                yield XmlEvent("text", _decode_entities(raw, scanner))
            elif raw.strip():
                raise scanner.error("character data outside the root element")
            continue

        if scanner.match("<!--"):
            scanner.read_until("-->")
            continue
        if scanner.match("<![CDATA["):
            if not open_tags:
                raise scanner.error("CDATA outside the root element")
            yield XmlEvent("text", scanner.read_until("]]>"))
            continue
        if scanner.match("<?"):
            scanner.read_until("?>")
            continue
        if scanner.match("</"):
            name = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect(">")
            if not open_tags:
                raise scanner.error(f"closing tag </{name}> with no open element")
            expected = open_tags.pop()
            if name != expected:
                raise scanner.error(f"mismatched closing tag </{name}>, expected </{expected}>")
            yield XmlEvent("end", name)
            if not open_tags:
                # After the root closes, only misc content may follow.
                _skip_prolog_and_misc(scanner)
                scanner.skip_whitespace()
                if not scanner.at_end():
                    raise scanner.error("content after the root element")
                return
            continue

        # Start tag.
        scanner.expect("<")
        if not started and open_tags:
            raise scanner.error("internal parser state error")  # pragma: no cover
        name = scanner.read_name()
        attributes = _read_attributes(scanner)
        scanner.skip_whitespace()
        if scanner.match("/>"):
            yield XmlEvent("start", (name, attributes))
            yield XmlEvent("end", name)
            started = True
            if not open_tags:
                _skip_prolog_and_misc(scanner)
                scanner.skip_whitespace()
                if not scanner.at_end():
                    raise scanner.error("content after the root element")
                return
            continue
        scanner.expect(">")
        open_tags.append(name)
        started = True
        yield XmlEvent("start", (name, attributes))
