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
from tests.strategies import FRAGMENTS, PITFALLS
from tests.xmlmodel.reference_parser import _is_name_char, reference_events

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
