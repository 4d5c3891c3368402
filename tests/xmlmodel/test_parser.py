"""Unit tests for the from-scratch XML parser (DOM and streaming)."""

import io
import re

import pytest

from repro.errors import XmlParseError
from repro.xmlmodel import iter_events, parse, parse_file, serialize, write_file


class TestParseBasics:
    def test_single_element(self):
        doc = parse("<a/>")
        assert doc.root.tag == "a"
        assert doc.root.children == []

    def test_text_content(self):
        doc = parse("<a>hello</a>")
        assert doc.root.text == "hello"

    def test_nested_elements(self):
        doc = parse("<a><b>x</b><c>y</c></a>")
        assert [c.tag for c in doc.root.children] == ["b", "c"]
        assert doc.root.children[0].text == "x"

    def test_attributes_double_and_single_quotes(self):
        doc = parse("""<a x="1" y='2'/>""")
        assert doc.root.attributes == {"x": "1", "y": "2"}

    def test_mixed_content_tails(self):
        doc = parse("<a>pre<b>in</b>post</a>")
        assert doc.root.text == "pre"
        assert doc.root.children[0].text == "in"
        assert doc.root.children[0].tail == "post"

    def test_eids_assigned(self):
        doc = parse("<a><b/><c><d/></c></a>")
        assert [n.eid for n in doc.iter()] == [0, 1, 2, 3]

    def test_xml_declaration_skipped(self):
        doc = parse('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert doc.root.tag == "a"

    def test_doctype_skipped(self):
        doc = parse('<!DOCTYPE a SYSTEM "a.dtd"><a/>')
        assert doc.root.tag == "a"

    def test_doctype_with_internal_subset(self):
        doc = parse("<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>t</a>")
        assert doc.root.text == "t"

    def test_comments_skipped(self):
        doc = parse("<!-- top --><a><!-- inner -->x</a><!-- after -->")
        assert doc.root.text == "x"

    def test_processing_instruction_skipped(self):
        doc = parse('<?pi data?><a><?inner?>x</a>')
        assert doc.root.text == "x"

    def test_cdata_passthrough(self):
        doc = parse("<a><![CDATA[<raw> & stuff]]></a>")
        assert doc.root.text == "<raw> & stuff"

    def test_entities_decoded_in_text(self):
        doc = parse("<a>&lt;x&gt; &amp; &quot;q&quot; &apos;a&apos;</a>")
        assert doc.root.text == "<x> & \"q\" 'a'"

    def test_numeric_character_references(self):
        doc = parse("<a>&#65;&#x42;</a>")
        assert doc.root.text == "AB"

    def test_entities_decoded_in_attributes(self):
        doc = parse('<a t="&amp;&lt;&#33;"/>')
        assert doc.root.get("t") == "&<!"

    def test_whitespace_around_root_ok(self):
        doc = parse("  \n <a/> \n ")
        assert doc.root.tag == "a"

    def test_namespace_prefixes_kept_verbatim(self):
        doc = parse('<ns:a xmlns:ns="urn:x"><ns:b/></ns:a>')
        assert doc.root.tag == "ns:a"
        assert doc.root.children[0].tag == "ns:b"

    def test_unicode_text(self):
        doc = parse("<a>日本語 тест</a>")
        assert doc.root.text == "日本語 тест"


class TestParseErrors:
    @pytest.mark.parametrize("bad", [
        "",
        "   ",
        "<a>",
        "<a></b>",
        "<a><b></a></b>",
        "<a/><b/>",
        "text only",
        "<a>&unknown;</a>",
        "<a>&#xZZ;</a>",
        "<a x=1/>",
        "<a x='1' x='2'/>",
        "<a><b></a>",
        "<!DOCTYPE a",
        "<a>&broken</a>",
    ])
    def test_malformed_raises(self, bad):
        with pytest.raises(XmlParseError):
            parse(bad)

    @pytest.mark.parametrize("reference", [
        "&#6_5;", "&#+65;", "&# 65;", "&#65 ;", "&#x 41 ;", "&#X41;", "&#x;",
        "&#xD800;", "&#0;", "&#x110000;", "&#" + "9" * 5000 + ";",
    ])
    def test_character_references_follow_xml_1_0(self, reference):
        with pytest.raises(XmlParseError, match="^bad character reference "
                           + re.escape(reference)):
            parse(f"<a>{reference}</a>")
        with pytest.raises(XmlParseError, match="^bad character reference"):
            parse(f"<a t='{reference}'/>")

    def test_largest_and_padded_character_references(self):
        doc = parse("<a>&#x10FFFF;&#0000065;&#x000042;&#9;</a>")
        assert doc.root.text == "\U0010ffffAB\t"

    def test_error_carries_location(self):
        with pytest.raises(XmlParseError) as info:
            parse("<a>\n  <b></c>\n</a>")
        assert info.value.line == 2

    def test_trailing_garbage_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<a/>junk")


class TestErrorLocations:
    """Every read path reports the same error at the same place."""

    CASES = [
        pytest.param("<a>" + "z" * 200 + "\n  <!-- unterminated",
                     "unterminated construct, expected '-->'", 2, 7,
                     id="comment"),
        pytest.param("<a>\n  <b></c>\n</a>",
                     "mismatched closing tag </c>, expected </b>", 2, 10,
                     id="mismatch"),
        pytest.param("<a>\n  <b x=1/>\n</a>",
                     "attribute value must be quoted", 2, 8, id="unquoted"),
        pytest.param("<a>\n  <b a='1' a='2'/>\n</a>",
                     "duplicate attribute 'a'", 2, 17, id="duplicate"),
        pytest.param("<a>\n  <b>&unknown;</b>\n</a>",
                     "unknown entity &unknown;", 2, 15, id="entity"),
        pytest.param("<?xml version='1.0'?>\n<!DOCTYPE a [\n"
                     "  <!ELEMENT a (#PCDATA)>\n",
                     "unterminated DOCTYPE", 4, 1, id="doctype"),
    ]

    @pytest.mark.parametrize("chunk_size", [None, 1, 3, 16, 64])
    @pytest.mark.parametrize("data,message,line,column", CASES)
    def test_same_error_and_location(self, data, message, line, column,
                                     chunk_size):
        from repro.xmlmodel import iter_events_stream
        if chunk_size is None:
            events = iter_events(data)
        else:
            events = iter_events_stream(io.StringIO(data), chunk_size)
        with pytest.raises(XmlParseError) as info:
            list(events)
        assert str(info.value) == f"{message} at line {line}, column {column}"
        assert (info.value.line, info.value.column) == (line, column)


class TestNonCharacters:
    """Raw code points outside XML 1.0 ``Char`` are itemized errors on
    every read path, in every construct that holds text."""

    CONSTRUCTS = {
        "text": "<a>\n  x{}y</a>",
        "attribute": "<a>\n  <b c='x{}y'/></a>",
        "comment": "<a>\n  <!-- x{}y --></a>",
        "pi": "<a>\n  <?p x{}y?></a>",
        "cdata": "<a>\n  <![CDATA[x{}y]]></a>",
    }
    CHARS = ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x1f", "\ud800",
             "\udfff", "\ufffe", "\uffff"]

    @pytest.mark.parametrize("char", CHARS, ids=lambda c: f"U+{ord(c):04X}")
    @pytest.mark.parametrize("construct", sorted(CONSTRUCTS))
    def test_rejected_on_every_read_path(self, construct, char, tmp_path):
        from repro.xmlmodel import iter_events_file, iter_events_stream
        data = self.CONSTRUCTS[construct].format(char)
        column = data.split("\n")[1].index(char) + 1
        expected = (f"illegal XML character U+{ord(char):04X} "
                    f"at line 2, column {column}")
        reads = [lambda: parse(data), lambda: list(iter_events(data))]
        for chunk_size in (1, 3, 64):
            reads.append(lambda chunk_size=chunk_size: list(
                iter_events_stream(io.StringIO(data), chunk_size)))
        if not "\ud800" <= char <= "\udfff":  # UTF-8 cannot hold these
            path = tmp_path / "doc.xml"
            path.write_text(data, encoding="utf-8")
            reads.append(lambda: parse_file(str(path), chunk_size=2))
            reads.append(lambda: list(iter_events_file(str(path))))
        for read in reads:
            with pytest.raises(XmlParseError) as info:
                read()
            assert str(info.value) == expected
            assert (info.value.line, info.value.column) == (2, column)

    def test_legal_characters_still_parse(self):
        text = "\t\r\n\x7f\x85\ud7ff\ue000\ufffd\U00010000\U0010ffff"
        document = parse(f"<a b='{text}'>{text}<!--{text}--><?p {text}?>"
                         f"<![CDATA[{text}]]></a>")
        assert document.root.get("b") == text
        assert document.root.text == text + text  # text, then the CDATA


class TestStreaming:
    def test_event_sequence(self):
        events = list(iter_events("<a x='1'><b>t</b></a>"))
        kinds = [e.kind for e in events]
        assert kinds == ["start", "start", "text", "end", "end"]
        assert events[0].value == ("a", {"x": "1"})
        assert events[2].value == "t"
        assert events[-1].value == "a"

    def test_self_closing_emits_start_end(self):
        events = list(iter_events("<a><b/></a>"))
        assert [(e.kind, e.value if e.kind == "end" else e.value[0] if e.kind == "start" else e.value)
                for e in events] == [
            ("start", "a"), ("start", "b"), ("end", "b"), ("end", "a")]

    def test_streaming_matches_dom(self):
        data = "<m year='1999'><t>Matrix</t><p><n>Keanu</n></p></m>"
        doc = parse(data)
        starts = [e.value[0] for e in iter_events(data) if e.kind == "start"]
        assert starts == [n.tag for n in doc.iter()]


class TestChunkedReads:
    """The file entry points read incrementally, never the whole file."""

    class _CountingReader:
        def __init__(self, handle):
            self.handle = handle
            self.max_read = 0

        def read(self, size=-1):
            data = self.handle.read(size)
            self.max_read = max(self.max_read, len(data))
            return data

    def big_document_path(self, tmp_path):
        parts = ["<db>"]
        for index in range(4000):
            parts.append(f"<item n='{index}'>value {index} with some "
                         f"padding text to grow the file</item>")
        parts.append("</db>")
        path = tmp_path / "big.xml"
        path.write_text("".join(parts), encoding="utf-8")
        return path

    def test_iter_events_stream_reads_at_most_chunk_size(self, tmp_path):
        from repro.xmlmodel import iter_events_stream
        path = self.big_document_path(tmp_path)
        chunk_size = 1024
        assert path.stat().st_size > 50 * chunk_size
        with open(path, "r", encoding="utf-8") as handle:
            reader = self._CountingReader(handle)
            count = sum(1 for event in iter_events_stream(reader, chunk_size)
                        if event.kind == "start")
        assert count == 4001
        assert 0 < reader.max_read <= chunk_size

    def test_file_entry_points_agree_with_in_memory(self, tmp_path):
        from repro.xmlmodel import iter_events_file
        path = self.big_document_path(tmp_path)
        text = path.read_text(encoding="utf-8")
        streamed = list(iter_events_file(str(path), chunk_size=512))
        assert streamed == list(iter_events(text))
        document = parse_file(str(path), chunk_size=512)
        assert document.root.structurally_equal(parse(text).root)

    @pytest.mark.parametrize("head,unit,tail", [
        ("<a>", "text ", "</a>"),
        ("<a><!--", "note ", "--></a>"),
        ("<a v='", "value", "'/>"),
    ], ids=["text", "comment", "attribute"])
    def test_construct_larger_than_many_chunks(self, head, unit, tail):
        """A 4 MB construct at 1 KiB chunks: refills that re-scanned the
        construct once per chunk would take minutes here."""
        from repro.xmlmodel import iter_events_stream
        data = head + unit * 800_000 + tail
        chunk_size = 1024
        reader = self._CountingReader(io.StringIO(data))
        assert list(iter_events_stream(reader, chunk_size)) \
            == list(iter_events(data))
        assert 0 < reader.max_read <= chunk_size

    def test_tiny_chunk_size_still_correct(self, tmp_path):
        from repro.xmlmodel import iter_events_file
        path = tmp_path / "small.xml"
        path.write_text("<a x='1'>pre<b/><![CDATA[raw<>]]>&amp;post</a>",
                        encoding="utf-8")
        for chunk_size in (1, 2, 3, 7):
            events = list(iter_events_file(str(path), chunk_size=chunk_size))
            assert events == list(iter_events(path.read_text()))


class TestRoundTrip:
    @pytest.mark.parametrize("data", [
        "<a/>",
        "<a>text</a>",
        "<a x=\"1\"><b>t</b><c/></a>",
        "<a>pre<b>in</b>post</a>",
        "<a>&lt;escaped&gt; &amp; more</a>",
    ])
    def test_parse_serialize_parse(self, data):
        doc = parse(data)
        again = parse(serialize(doc))
        assert doc.root.structurally_equal(again.root)

    def test_pretty_round_trip_structural(self):
        doc = parse("<a><b><c>deep</c></b><d>x</d></a>")
        pretty = serialize(doc, pretty=True)
        assert "\n" in pretty
        again = parse(pretty)
        # Structural content survives pretty printing.
        assert again.root.find("d").text == "x"
        assert again.root.find("b").children[0].text == "deep"

    def test_file_round_trip(self, tmp_path):
        doc = parse("<catalog><disc><title>Blue</title></disc></catalog>")
        path = str(tmp_path / "out.xml")
        write_file(doc, path)
        again = parse_file(path)
        assert again.root.find("disc").find("title").text == "Blue"

    def test_declaration_emitted(self):
        doc = parse("<a/>")
        out = serialize(doc, declaration=True)
        assert out.startswith("<?xml")
