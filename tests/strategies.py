"""Shared Hypothesis alphabets and strategies.

One home for the character alphabet the property tests draw from: the
XML parser differential uses the raw fragments, and the key-generation
differential builds well-formed documents from their text characters
plus the code points that stress key extraction.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.config import CandidateSpec, SxnmConfig
from repro.xmlmodel import escape_attribute, escape_text

#: Markup, references and the name-class edge cases: ``é`` is a letter,
#: ``²`` and ``½`` are alphanumeric but not letters, ``1`` cannot start a
#: name, ``\xa0`` and ``\x0c`` are whitespace to ``str.strip`` but not
#: to XML, and ``\x0c``, ``\x01``, a lone surrogate and U+FFFE are not
#: XML 1.0 ``Char`` at all.
FRAGMENTS = [
    "<", ">", "/", "=", "\"", "'", "&", ";", "#", "x", "!", "?", "[", "]",
    "-", ".", ":", "_", " ", "\n", "\t", "\r", "\xa0", "\x0c",
    "a", "b", "é", "²", "½", "1", "text",
    "<a", "/>", "='v'", "<a>", "</a>", "<b>", "</b>", "<a/>", "<é>", "</é>",
    "<1a>", "<²>",
    "<a x='1'>", '<b y="&amp;">', " x='1'", ' y="2"', " z='&lt;'",
    "&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&bogus;",
    "&#65;", "&#x41;", "&#X41;", "&#0;", "&#xD800;", "&#6_5;", "&#x110000;",
    "<!--", "-->", "<!-- c -->", "<![CDATA[", "]]>", "<![CDATA[<&>]]>",
    "<?", "?>", "<?pi data?>", "<?xml version='1.0'?>",
    "<!DOCTYPE", "<!DOCTYPE r>", "<!DOCTYPE r [<!ELEMENT r (#PCDATA)>]>",
    "\x01", "\ud800", "\ufffe", " a='\x01'",
]

#: The pitfalls of a regex tokenizer, always run: ``\s`` where XML
#: whitespace is meant, a start-tag name that gives characters to an
#: attribute, names starting with ``\w`` characters that are not letters,
#: and raw code points outside XML 1.0 ``Char`` in every construct that
#: holds text.
PITFALLS = [
    "<a\xa0/>", "<r><a\x0c>t</a></r>", "<r></r\xa0>", "<a x='1'\xa0/>",
    "<ab='1'/>", "<a x='1'y='2'/>", "<a 1x='1'/>", "<a ²='1'/>", "<½/>",
    "<a>&#X41;</a>", "\xa0<a/>", "<a/>\xa0", "\x0c<!DOCTYPE a><a/>",
    "<a>x\ud800y</a>", "<a>x\x01y</a>", "<a b=\"\x02\"/>",
    "<a>&bogus;\x01</a>", "<a><!-- \x01 --></a>", "<a><?p \ud800?></a>",
    "<a><![CDATA[\uffff]]></a>", "x\x01<a/>", "<a/>\x01",
    "<a/><!--\x01-->", "<a b='1' c='\ud800",
]


def _is_xml_char(char: str) -> bool:
    code = ord(char)
    return (code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF
            or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF)


#: Code points that stress key extraction: ``ß`` and ``ﬁ`` grow under
#: ``upper()`` (``SS``, ``FI``), ``İ`` grows under ``lower()``, U+0301 is
#: a combining mark (neither letter nor digit), and U+1D400 is an astral
#: letter.
KEY_STRESS = ["ß", "ﬁ", "İ", "\u0301", "\U0001d400"]

#: The fragments' single characters that XML 1.0 allows in character
#: data, plus :data:`KEY_STRESS`.
TEXT_CHARACTERS = sorted(
    {fragment for fragment in FRAGMENTS
     if len(fragment) == 1 and _is_xml_char(fragment)} | set(KEY_STRESS))

#: Text over :data:`TEXT_CHARACTERS`, leaning to letters and digits so
#: that key patterns find characters to select.
texts = st.text(alphabet=st.sampled_from(TEXT_CHARACTERS) | st.sampled_from(
    [char for char in TEXT_CHARACTERS if char.isalnum()]), max_size=8)


def _cdata(text: str) -> str:
    return "<![CDATA[" + text.replace("]]>", "]]]]><![CDATA[>") + "]]>"


#: Character data as markup: plain, split by a comment, or CDATA then text.
contents = st.one_of(
    texts.map(escape_text),
    st.builds("{}<!-- c -->{}".format,
              texts.map(escape_text), texts.map(escape_text)),
    st.builds("{}{}".format, texts.map(_cdata), texts.map(escape_text)),
)

attributes = st.sampled_from(["", ' a="v"', ' a="w"', " a=''"]) | texts.map(
    lambda value: f' a="{escape_attribute(value)}"')


def _element(tag: str, children=None):
    """``<tag a=…>`` with content (and nested ``children``); one in four
    is empty (``<tag/>``)."""
    inner = contents if children is None else st.builds(
        "{}{}".format, contents,
        st.lists(children | contents, min_size=1, max_size=4).map("".join))
    return st.builds(
        lambda empty, attribute, body: (
            f"<{tag}{attribute}/>" if empty == 0
            else f"<{tag}{attribute}>{body}</{tag}>"),
        st.integers(0, 3), attributes, inner)


_leaf = st.one_of(_element("t"), _element("u"))
_group = _element("c", _leaf)
_p = _element("p", st.one_of(_leaf, _group))
#: ``m`` holds leaves, ``c`` groups (which may hide a ``p`` off the
#: candidate path) and ``p`` child candidates.
_m = _element("m", st.one_of(_leaf, _group, _p, _element("c", _p)))

#: Well-formed ``<r>`` documents of ``m`` instances with nested ``p``.
keygen_documents = st.lists(
    st.builds("{}{}".format, _m, contents), min_size=1, max_size=4).map(
    lambda parts: "<r>" + "".join(parts) + "</r>")

#: Relative paths over every step kind the evaluator has.
RELATIVE_PATHS = [
    "text()", "@a", "@b", "t/text()", "t[1]/text()", "t[2]/text()",
    "c/t/text()", "c/t[2]/@a", "*/text()", "*[2]/text()", "//t/text()",
    "c//t/text()", "t[@a]/text()", "t[@a='v']/text()", "t[@a='v'][2]/@a",
    "t", "c",
]

_item = st.builds(
    lambda char_class, lo, width, form: (
        f"{char_class}{lo}" if form == 0 else
        f"{char_class}{lo}-{char_class}{lo + width}" if form == 1 else
        f"{char_class}{lo}-{lo + width}"),
    st.sampled_from("KCDVAWS"), st.integers(1, 4), st.integers(0, 3),
    st.integers(0, 2))
#: Patterns over every class: single positions, both range forms, lists.
key_patterns = st.lists(_item, min_size=1, max_size=3).map(",".join)

_key = st.lists(st.tuples(st.sampled_from(RELATIVE_PATHS), key_patterns),
                min_size=1, max_size=2)


def keygen_config(candidates) -> SxnmConfig:
    """A config of ``m`` (``r/m``) and, optionally, ``p`` (``r/m/p``).

    ``candidates`` lists ``(ods, keys)`` per candidate, ``m`` first.
    """
    config = SxnmConfig()
    for (name, xpath), (ods, keys) in zip(
            [("m", "r/m"), ("p", "r/m/p")], candidates):
        config.add(CandidateSpec.build(
            name, xpath, od=[(path, 1.0 / len(ods)) for path in ods],
            keys=keys))
    return config


keygen_configs = st.lists(
    st.tuples(st.lists(st.sampled_from(RELATIVE_PATHS), min_size=1,
                       max_size=3),
              st.lists(_key, min_size=1, max_size=2)),
    min_size=1, max_size=2).map(keygen_config)
