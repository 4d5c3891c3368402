"""Differential tests: the regex tokenizer against the frozen scanner.

Every parser entry point runs one tokenizer, so none of them can check
another.  ``reference_parser`` keeps the historical character-at-a-time
scanner as the oracle: for near-XML input, the tokenizer must yield the
same events, or raise the same :class:`~repro.errors.XmlParseError`
(message, line and column), in memory and at every small chunk size.
"""

import io
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import XmlParseError
from repro.xmlmodel import is_xml_name, iter_events, iter_events_stream
from tests.xmlmodel.reference_parser import _is_name_char, reference_events

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

fragments = st.lists(st.sampled_from(FRAGMENTS), max_size=16).map("".join)
near_xml = st.one_of(
    fragments,
    st.builds("<r>{}</r>".format, fragments),
    st.builds("{}<r a='1'>{}</r>{}".format, fragments, fragments, fragments),
)


def outcome(events):
    try:
        return list(events)
    except XmlParseError as error:
        return ("error", str(error))


def with_pitfalls(test):
    for text in PITFALLS:
        test = example(text=text)(test)
    return test


class TestAgainstReference:
    @given(text=near_xml)
    @with_pitfalls
    @settings(max_examples=400)
    def test_in_memory_matches_reference(self, text):
        assert outcome(iter_events(text)) == outcome(reference_events(text))

    @given(text=near_xml)
    @with_pitfalls
    @settings(max_examples=200)
    def test_chunked_reads_match_reference(self, text):
        expected = outcome(reference_events(text))
        for chunk_size in range(1, 8):
            streamed = iter_events_stream(io.StringIO(text), chunk_size)
            assert outcome(streamed) == expected, chunk_size


def test_name_characters_match_reference():
    """``[\\w.:-]`` is exactly the scanner's ``isalnum()`` plus ``_:.-``."""
    mismatched = [char for char in map(chr, range(sys.maxunicode + 1))
                  if is_xml_name("a" + char) != _is_name_char(char)]
    assert mismatched == []
