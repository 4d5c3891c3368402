"""A from-scratch XML parser.

Two entry points are provided:

* :func:`parse` / :func:`parse_file` build an :class:`~repro.xmlmodel.node.XmlDocument`
  tree (DOM style).
* :func:`iter_events` yields SAX-style events (``start``, ``end``, ``text``)
  without building a tree.  The SXNM key-generation phase is specified as a
  *single pass* over the data source; the streaming API is what makes that
  single pass literal.

The grammar covered is the subset needed for data-centric XML: elements,
attributes (single- or double-quoted), character data, comments, CDATA
sections, processing instructions, an optional XML declaration and DOCTYPE
(both skipped), and the five predefined entities plus XML 1.0 decimal and
hexadecimal character references.  Character data, attribute values,
comments, processing instructions and CDATA sections hold only XML 1.0
``Char`` code points: a raw control character other than tab, newline or
carriage return, a lone surrogate, U+FFFE or U+FFFF is an error naming the
code point.  Namespace prefixes are kept verbatim as part of tag names.
Errors raise :class:`~repro.errors.XmlParseError` with line/column
information.

Every entry point runs one tokenizer: a compiled master pattern (character
data | start tag with its attributes | end tag | CDATA | comment | PI)
matched against a buffer.  :func:`parse` and :func:`iter_events` hand it the
whole text as one chunk; :func:`parse_file`, :func:`iter_events_file` and
:func:`iter_events_stream` refill it through ``read(chunk_size)``.  A token
that may continue past the end of the buffer is matched again after a
refill, and a refill first drops the consumed prefix and then appends at
least as much input as is still unconsumed, so a construct longer than a
chunk is re-scanned O(log n) times.  Memory therefore stays proportional to
the chunk size plus the largest single construct (one text node, comment,
or tag).  Line and column are computed from the absolute offset only when
an error is raised, so every read path reports the same location.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from functools import partial
from typing import NamedTuple

from ..errors import XmlParseError
from .node import XmlDocument, XmlElement

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

# ``[\w.:-]`` is exactly ``str.isalnum()`` plus ``_:.-``.  ``\w`` also
# admits name-start characters that ``_is_name_start`` rejects (``1``,
# ``²``, ``½``), so every name's first character is checked separately.
# XML whitespace is ``[ \t\r\n]``: ``\s`` would also admit ``\xa0``.
_NAME = re.compile(r"[\w.:-]+")
_SPACES = re.compile(r"[ \t\r\n]*")

# The code points outside XML 1.0's ``Char`` production.  Every class
# of the master pattern that spans character data, an attribute value, a
# comment, a PI or CDATA leaves them out, so a token stops in front of
# one and the error path names it.
_NOT_CHAR = r"\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"

# A run of attributes without captures (the master pattern's start-tag
# group), and one attribute with its name and value captured: it only
# reads runs the master pattern or the run pattern already matched.
# The error path compiles the run pattern where it uses it, through re's
# own cache: a class that leaves out the non-Char code points takes a
# large table to compile, which import time does not pay.
_ATTRIBUTES = (r"(?:[ \t\r\n]*[\w.:-]+[ \t\r\n]*=[ \t\r\n]*"
               f"(?:\"[^\"{_NOT_CHAR}]*\"|'[^'{_NOT_CHAR}]*'))*")
_ATTRIBUTE = re.compile(
    r"""[ \t\r\n]*([\w.:-]+)[ \t\r\n]*=[ \t\r\n]*(?:"([^"]*)"|'([^']*)')""")

# Group 1: character data.  Start tag: 2 name, 3 attributes, 4 the "/"
# of an empty element.  5: end-tag name.  6: CDATA content.  A comment
# or processing instruction matches with no group (``lastindex`` None).
# The look-ahead stops a start-tag name giving characters to an attribute.
_TOKEN = re.compile(
    f"([^<{_NOT_CHAR}]+)"
    r"|<([\w.:-]+)(?![\w.:-])(" + _ATTRIBUTES + r")[ \t\r\n]*(/?)>"
    r"|</([\w.:-]+)[ \t\r\n]*>"
    f"|<!\\[CDATA\\[([^{_NOT_CHAR}]*?)\\]\\]>"
    f"|<!--[^{_NOT_CHAR}]*?-->"
    f"|<\\?[^{_NOT_CHAR}]*?\\?>")

_REFERENCE = re.compile(r"&([^;]*);")
_CHARACTER_REFERENCE = re.compile(r"#([0-9]+)|#x([0-9a-fA-F]+)")
_BRACKETS = re.compile(r"[<>]")

# Where the tokenizer stands while no element is open.
_PROLOG, _BEFORE_ROOT, _AFTER_ROOT = range(3)


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in "_:"


def is_xml_name(text: str) -> bool:
    """True iff ``text`` is a name this parser would accept — including
    namespace-prefixed names like ``db:movie``."""
    return (_NAME.fullmatch(text) is not None
            and _is_name_start(text[0]))


def _character(entity: str) -> str | None:
    """The character ``&entity;`` refers to, or None unless ``entity`` is
    ``#[0-9]+`` or ``#x[0-9a-fA-F]+`` naming an XML 1.0 ``Char``."""
    reference = _CHARACTER_REFERENCE.fullmatch(entity)
    if reference is None:
        return None
    decimal, hexadecimal = reference.groups()
    digits = (decimal or hexadecimal).lstrip("0") or "0"
    if len(digits) > 7:  # past U+10FFFF in either base
        return None
    code = int(digits, 10 if decimal else 16)
    if (code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF
            or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF):
        return chr(code)
    return None


class XmlEvent(NamedTuple):
    """One streaming parse event.

    ``kind`` is ``"start"`` (value = ``(tag, attributes)``), ``"text"``
    (value = character data), or ``"end"`` (value = tag).
    """

    kind: str
    value: object


DEFAULT_CHUNK_SIZE = 64 * 1024

# ``XmlEvent(kind, value)`` without the Python-level ``__new__`` frame.
_event = partial(tuple.__new__, XmlEvent)


class _Tokenizer:
    """The parser: a master pattern matched against a refillable buffer.

    With ``read`` None the whole input is ``text`` and nothing is read;
    otherwise ``read(chunk_size)`` supplies the input, and an empty
    string marks its end.
    """

    def __init__(self, text: str = "", read=None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE):
        self.buffer = text
        self.read = read
        self.chunk_size = max(1, chunk_size)
        self.eof = read is None
        self.offset = 0              # absolute index of buffer[0]
        self._newlines_before = 0    # newlines in the discarded prefix
        self._last_newline_abs = -1  # absolute index of the last one

    def refill(self, pos: int) -> None:
        """Drop ``buffer[:pos]``, then read until at least as much input
        as is left unconsumed has been appended (one read at least), or
        the input ends."""
        buffer = self.buffer
        dropped = buffer.count("\n", 0, pos)
        if dropped:
            self._newlines_before += dropped
            self._last_newline_abs = self.offset + buffer.rfind("\n", 0, pos)
        self.offset += pos
        parts = [buffer[pos:]]
        wanted = max(1, len(parts[0]))
        while wanted > 0:
            chunk = self.read(self.chunk_size)
            if not chunk:
                self.eof = True
                break
            parts.append(chunk)
            wanted -= len(chunk)
        self.buffer = "".join(parts)

    def error(self, message: str, index: int) -> XmlParseError:
        """An error located at ``buffer[index]`` (1-based line/column)."""
        buffer = self.buffer
        line = self._newlines_before + buffer.count("\n", 0, index) + 1
        last = buffer.rfind("\n", 0, index)
        if last < 0:
            last = self._last_newline_abs - self.offset
        return XmlParseError(message, line=line, column=index - last)

    def illegal(self, index: int) -> XmlParseError:
        """The error for the non-``Char`` code point at ``buffer[index]``."""
        return self.error(f"illegal XML character U+"
                          f"{ord(self.buffer[index]):04X}", index)

    def decode(self, raw: str, at: int) -> str:
        """Replace the references in ``raw``; errors are located at ``at``."""
        def replace(reference: re.Match) -> str:
            entity = reference.group(1)
            char = _PREDEFINED_ENTITIES.get(entity)
            if char is None:
                if not entity.startswith("#"):
                    raise self.error(f"unknown entity &{entity};", at)
                char = _character(entity)
                if char is None:
                    raise self.error(f"bad character reference &{entity};", at)
            return char

        decoded = _REFERENCE.sub(replace, raw)
        if "&" in raw[raw.rfind(";") + 1:]:
            raise self.error("unterminated entity reference", at)
        return decoded

    def attributes(self, start: int, end: int) -> dict[str, str]:
        """The attributes spelt by ``buffer[start:end]``, checked in order."""
        attributes: dict[str, str] = {}
        for attribute in _ATTRIBUTE.finditer(self.buffer, start, end):
            name, value, single = attribute.groups()
            if not _is_name_start(name[0]):
                raise self.error("expected an XML name", attribute.start(1))
            if name in attributes:
                raise self.error(f"duplicate attribute {name!r}", attribute.end())
            if value is None:
                value = single
            attributes[name] = (self.decode(value, attribute.end())
                                if "&" in value else value)
        return attributes

    def events(self) -> Iterator[XmlEvent]:
        """Yield the events of the input, raising at its first error."""
        buffer, pos, eof = self.buffer, 0, self.eof
        size = len(buffer)
        match = _TOKEN.match
        stack: list[str] = []
        stage = _PROLOG
        while True:
            token = match(buffer, pos)
            if token is None:
                if pos < size:
                    skipped = self.unmatched(pos, stage, bool(stack))
                    if skipped is not None:
                        pos = skipped
                        continue
                elif eof:
                    if stack:
                        raise self.error(
                            f"unexpected end of input inside <{stack[-1]}>", pos)
                    if stage != _AFTER_ROOT:
                        raise self.error("document has no root element", pos)
                    return
                self.refill(pos)
                buffer, pos, eof = self.buffer, 0, self.eof
                size = len(buffer)
                continue
            kind = token.lastindex
            end = token.end()

            if kind == 1:  # character data
                if end == size and not eof:
                    self.refill(pos)  # it may go on past the buffer
                    buffer, pos, eof = self.buffer, 0, self.eof
                    size = len(buffer)
                    continue
                text = token.group(1)
                # A run that stops short of "<" and of the input's end
                # stops at a non-Char, which is reported before anything
                # the run itself holds.
                if stack:
                    if "&" in text:
                        if end < size and buffer[end] != "<":
                            raise self.illegal(end)
                        text = self.decode(text, end)
                    yield _event(("text", text))
                elif stage == _AFTER_ROOT:
                    stray = len(text) - len(text.lstrip(" \t\r\n"))
                    if stray < len(text):
                        raise self.error("content after the root element",
                                         pos + stray)
                elif end < size and buffer[end] != "<":
                    raise self.illegal(end)
                elif text.strip():
                    raise self.error("character data outside the root element", end)
                elif text.strip(" \t\r\n"):
                    stage = _BEFORE_ROOT  # other whitespace ends the prolog

            elif kind == 4:  # start tag
                name, attributes, empty = token.group(2, 3, 4)
                if stage == _AFTER_ROOT:
                    raise self.error("content after the root element", pos)
                if not _is_name_start(name[0]):
                    raise self.error("expected an XML name", pos + 1)
                attributes = (self.attributes(token.start(3), token.end(3))
                              if attributes else {})
                yield _event(("start", (name, attributes)))
                if empty:
                    yield _event(("end", name))
                    if not stack:
                        stage = _AFTER_ROOT
                else:
                    stack.append(name)

            elif kind == 5:  # end tag
                name = token.group(5)
                if not stack or name != stack[-1]:
                    if stage == _AFTER_ROOT:
                        raise self.error("content after the root element", pos)
                    if not _is_name_start(name[0]):
                        raise self.error("expected an XML name", pos + 2)
                    if not stack:
                        raise self.error(
                            f"closing tag </{name}> with no open element", end)
                    raise self.error(f"mismatched closing tag </{name}>, "
                                     f"expected </{stack[-1]}>", end)
                stack.pop()
                yield _event(("end", name))
                if not stack:
                    stage = _AFTER_ROOT

            elif kind == 6:  # CDATA
                if not stack:
                    if stage == _AFTER_ROOT:
                        raise self.error("content after the root element", pos)
                    raise self.error("CDATA outside the root element",
                                     pos + len("<![CDATA["))
                yield _event(("text", token.group(6)))

            pos = end  # comments and processing instructions are skipped

    def unmatched(self, pos: int, stage: int, inside: bool) -> int | None:
        """Deal with the ``<`` or non-``Char`` at ``pos`` that no token
        matched.

        Returns the position after a skipped DOCTYPE, or None when more
        input may still complete the construct; otherwise raises the
        error the construct holds, located where reading it would fail.
        """
        buffer, eof = self.buffer, self.eof
        size = len(buffer)
        if buffer[pos] != "<":
            if stage == _AFTER_ROOT:
                raise self.error("content after the root element", pos)
            raise self.illegal(pos)
        if not eof and size - pos < len("<![CDATA["):
            return None  # it could still open any construct
        misc = not inside and stage != _BEFORE_ROOT  # DOCTYPE allowed here
        if buffer.startswith("<!--", pos):
            terminator, opener = "-->", 4
        elif buffer.startswith("<?", pos):
            terminator, opener = "?>", 2
        elif misc and buffer.startswith("<!DOCTYPE", pos):
            # Skip to the matching '>' (internal subsets nest brackets).
            depth = 1
            for bracket in _BRACKETS.finditer(buffer, pos + len("<!DOCTYPE")):
                depth += 1 if bracket.group() == "<" else -1
                if not depth:
                    return bracket.end()
            if not eof:
                return None
            raise self.error("unterminated DOCTYPE", size)
        elif stage == _AFTER_ROOT:
            raise self.error("content after the root element", pos)
        elif buffer.startswith("<![CDATA[", pos):
            if not inside:
                raise self.error("CDATA outside the root element",
                                 pos + len("<![CDATA["))
            terminator, opener = "]]>", len("<![CDATA[")
        elif buffer.startswith("</", pos):
            name = _NAME.match(buffer, pos + 2)
            if name is None or not _is_name_start(buffer[pos + 2]):
                raise self.error("expected an XML name", pos + 2)
            close = _SPACES.match(buffer, name.end()).end()
            if close == size and not eof:
                return None
            raise self.error("expected '>'", close)
        else:
            return self.unmatched_start_tag(pos)
        self.check_chars(pos + opener, buffer.find(terminator, pos + opener))
        if not eof:
            return None
        raise self.error(f"unterminated construct, expected {terminator!r}",
                         pos + opener)

    def check_chars(self, start: int, end: int) -> None:
        """Raise at the first non-``Char`` in ``buffer[start:end]``, or up
        to the buffer's end when ``end`` is -1."""
        illegal = re.compile(f"[{_NOT_CHAR}]")
        bad = illegal.search(self.buffer, start,
                             end if end >= 0 else len(self.buffer))
        if bad is not None:
            raise self.illegal(bad.start())

    def unmatched_start_tag(self, pos: int) -> None:
        """Raise the error of the start tag at ``pos``, or return None
        when more input may still complete it."""
        buffer, eof = self.buffer, self.eof
        size = len(buffer)
        name = _NAME.match(buffer, pos + 1)
        if name is None or not _is_name_start(buffer[pos + 1]):
            raise self.error("expected an XML name", pos + 1)
        attributes = re.compile(_ATTRIBUTES).match(buffer, name.end())
        self.attributes(name.end(), attributes.end())
        index = _SPACES.match(buffer, attributes.end()).end()
        char = buffer[index:index + 1]
        if char and char not in ">/?":
            # The attribute starting here is malformed or incomplete.
            name = _NAME.match(buffer, index)
            if name is None or not _is_name_start(char):
                raise self.error("expected an XML name", index)
            index = _SPACES.match(buffer, name.end()).end()
            if index == size and not eof:
                return None
            if not buffer.startswith("=", index):
                raise self.error("expected '='", index)
            index = _SPACES.match(buffer, index + 1).end()
            if index == size and not eof:
                return None
            if index == size or buffer[index] not in "'\"":
                raise self.error("attribute value must be quoted", index)
            self.check_chars(index + 1, buffer.find(buffer[index], index + 1))
            if not eof:
                return None  # the closing quote is not buffered yet
            raise self.error("unterminated construct, expected "
                             f"{buffer[index]!r}", index + 1)
        if not eof and (not char or (char == "/" and index + 1 == size)):
            return None
        raise self.error("expected '>'", index)


def iter_events(data: str) -> Iterator[XmlEvent]:
    """Yield ``start``/``text``/``end`` events for ``data``.

    Text events carry entity-decoded character data, with CDATA content
    passed through verbatim.  Whitespace-only text between elements is
    still reported; consumers decide whether it is significant.
    """
    return _Tokenizer(data).events()


def iter_events_stream(handle,
                       chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[XmlEvent]:
    """Yield events for the open text ``handle`` without slurping it.

    The handle is read at most ``chunk_size`` characters at a time and
    only a bounded window is buffered, so event streams over files much
    larger than memory are actually incremental.
    """
    return _Tokenizer(read=handle.read, chunk_size=chunk_size).events()


def parse(data: str) -> XmlDocument:
    """Parse ``data`` into an :class:`XmlDocument` and assign element ids."""
    return _build_document(iter_events(data))


def _build_document(events: Iterator[XmlEvent]) -> XmlDocument:
    root: XmlElement | None = None
    stack: list[XmlElement] = []
    last_closed: XmlElement | None = None

    for event in events:
        if event.kind == "start":
            tag, attributes = event.value  # type: ignore[misc]
            element = XmlElement(tag, attributes=attributes)
            if stack:
                stack[-1].append(element)
            elif root is None:
                root = element
            stack.append(element)
            last_closed = None
        elif event.kind == "text":
            text = str(event.value)
            current = stack[-1]
            if last_closed is not None and last_closed.parent is current:
                last_closed.tail = (last_closed.tail or "") + text
            else:
                current.text = (current.text or "") + text
        else:  # end
            last_closed = stack.pop()

    assert root is not None  # iter_events guarantees a root or raises
    document = XmlDocument(root)
    document.assign_eids()
    return document


def parse_file(path: str,
               chunk_size: int = DEFAULT_CHUNK_SIZE) -> XmlDocument:
    """Read ``path`` (UTF-8) incrementally and parse it into a document."""
    with open(path, encoding="utf-8") as handle:
        return _build_document(iter_events_stream(handle, chunk_size))


def iter_events_file(path: str,
                     chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[XmlEvent]:
    """Stream events for the document stored at ``path`` (UTF-8).

    The file is read in bounded chunks and stays open only while the
    returned iterator is being consumed.
    """
    with open(path, encoding="utf-8") as handle:
        yield from iter_events_stream(handle, chunk_size)
