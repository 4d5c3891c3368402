"""Differential tests: the compiled key-generation kernel against the
frozen per-row interpreter in ``reference_keygen``.

Every driver of the kernel — the DOM generator, the streaming state
machine into GK tables, and the same machine into spill runs read back
from disk — must reproduce the reference's rows exactly: eids, keys,
ODs, and children (names in the same order, eids in document order).
Documents and configs come from the shared strategies: every step kind
the evaluator has, every pattern class, and text with case-expanding,
combining and astral code points.
"""

import tempfile

from hypothesis import example, given, settings

from repro.core import SpillStore, generate_gk, generate_gk_streaming
from repro.core import spill_gk_streaming
from repro.xmlmodel import iter_events, parse
from tests.core import reference_keygen
from tests.strategies import keygen_config, keygen_configs, keygen_documents


def rows_of(tables):
    return {name: [(row.eid, row.keys, row.ods, list(row.children.items()))
                   for row in table]
            for name, table in tables.items()}


def one_key(*parts, ods=("t/text()",)):
    return keygen_config([(list(ods), [list(parts)])])


#: Always-run cases.  ``ß`` and ``ﬁ`` grow when the key is uppercased;
#: the others are the edge cases of navigation and text assembly.
EXAMPLES = [
    ("<r><m><t>ßﬁİ straße</t></m></r>",
     one_key(("t/text()", "K1-K4,C1-3"), ("t/text()", "A2,W1-2,S1-4"))),
    ("<r><m a='v'><t>x</t></m><m><t b='1'>y</t></m></r>",
     one_key(("@a", "C1"), ("t/@a", "C1"), ods=("@a", "t/@a"))),
    ("<r><m><t>only</t></m></r>",
     one_key(("t[2]/text()", "C1-C3"), ods=("t[2]/text()", "t[1]/text()"))),
    ("<r><m><t/><t>second</t></m><m><t/></m></r>",
     one_key(("t/text()", "K1-K2"), ods=("t/text()", "t", "t[1]/text()"))),
    ("<r><m><t>ab<!-- c -->cd</t><t>e<![CDATA[<f&]]>g</t></m></r>",
     one_key(("t[2]/text()", "C1-C5"), ods=("t/text()", "t[2]/text()"))),
]


def with_examples(test):
    for document, config in EXAMPLES:
        test = example(document=document, config=config)(test)
    return test


class TestKernelAgainstReference:
    @given(document=keygen_documents, config=keygen_configs)
    @with_examples
    @settings(max_examples=150, deadline=None)
    def test_every_driver_matches_reference(self, document, config):
        expected_dom = rows_of(reference_keygen.generate_gk(parse(document),
                                                            config))
        expected_stream = rows_of(
            reference_keygen.generate_gk_streaming(document, config))
        assert rows_of(generate_gk(parse(document), config)) == expected_dom
        assert rows_of(generate_gk_streaming(document, config)) \
            == expected_stream
        with tempfile.TemporaryDirectory() as directory:
            spilled = spill_gk_streaming(iter_events(document), config, None,
                                         SpillStore(directory), max_rows=2)
            assert rows_of(spilled) == expected_stream

    @given(document=keygen_documents, config=keygen_configs)
    @settings(max_examples=60, deadline=None)
    def test_reference_dom_and_stream_agree(self, document, config):
        # The two frozen drivers differ only in the order children
        # register, so the differential above is checked against one
        # consistent oracle.
        dom = reference_keygen.generate_gk(parse(document), config)
        stream = reference_keygen.generate_gk_streaming(document, config)
        for name, table in dom.items():
            assert [(row.eid, row.keys, row.ods, row.children)
                    for row in table] \
                == [(row.eid, row.keys, row.ods, row.children)
                    for row in stream[name]]


def test_case_expanding_letters_uppercase_after_joining():
    document = "<r><m><t>ßﬁ</t></m></r>"
    config = one_key(("t/text()", "K1"), ("t/text()", "A2"))
    [row] = generate_gk(parse(document), config)["m"]
    assert row.keys == ["SSFI"]
