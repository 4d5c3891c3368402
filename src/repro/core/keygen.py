"""Key generation — the first SXNM phase (paper Sec. 3.3).

Reads the XML data *once* and produces, per candidate, the rows of
``GK_s``: the generated keys **and** the object descriptions ("to save
an extra pass of the XML data, we simultaneously extract the object
descriptions").

Each candidate's key definitions and OD paths are compiled once per run
into one row builder (:func:`row_builder`): paths through
:func:`~repro.xpath.compile_path`, patterns through
:func:`~repro.keys.compile_pattern`.  A keygen call keeps one string
pool for its in-memory tables, so every distinct key or OD string is
one object — the DAG-compression idea applied once, at keygen, where
the shared-memory plane's pickled segments then share it.

Two drivers feed the builder, with identical rows:

* :func:`generate_gk` — over a parsed :class:`~repro.xmlmodel.XmlDocument`
  (general: supports any candidate path the evaluator supports).
* :func:`stream_rows` — one state machine over the SAX-style event
  stream, a literal single pass that never materializes more than the
  currently open candidate subtree.  Each candidate's rows go to a sink:
  a :class:`~repro.core.gk.GkTable` (:func:`generate_gk_streaming`) or
  the out-of-core spiller (:func:`~repro.core.spill.spill_gk_streaming`).
  Restricted to plain-step candidate paths (no predicates, wildcards, or
  ``//``), which covers every configuration in the paper.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Protocol

from ..config import CandidateSpec, SxnmConfig
from ..errors import ConfigError
from ..keys import compile_key
from ..xmlmodel import (XmlDocument, XmlElement, XmlEvent, is_xml_name,
                        iter_events)
from ..xpath import compile_path, parse_path, resolve_absolute
from .candidates import CandidateHierarchy, _steps_of
from .gk import GkRow, GkTable


class RowSink(Protocol):
    """Where :func:`stream_rows` puts one candidate's rows."""

    def add(self, row: GkRow) -> object:
        ...


def row_builder(spec: CandidateSpec, pool: dict[str, str] | None = None,
                ) -> Callable[[XmlElement], GkRow]:
    """Compile ``spec``'s keys and OD paths into one row function.

    With ``pool``, every key and OD string is replaced by the first
    equal string the pool has seen, so equal strings are one object.
    """
    keys = [compile_key(definition) for definition in spec.key_definitions()]
    ods = [compile_path(path).first for path, _, _ in spec.od_items()]
    intern = pool.setdefault if pool is not None else None

    def build(element: XmlElement) -> GkRow:
        eid = element.eid
        if eid is None:
            raise ValueError(
                "candidate element has no eid; assign_eids() first")
        key_values = [key(element) for key in keys]
        od_values = [od(element) for od in ods]
        if intern is not None:
            key_values = [intern(value, value) for value in key_values]
            od_values = [value if value is None else intern(value, value)
                         for value in od_values]
        return GkRow(eid, key_values, od_values)
    return build


def _new_table(spec: CandidateSpec) -> GkTable:
    return GkTable(spec.name, key_count=len(spec.keys), od_count=len(spec.ods))


def generate_gk(document: XmlDocument, config: SxnmConfig,
                hierarchy: CandidateHierarchy | None = None) -> dict[str, GkTable]:
    """Build all GK tables from a parsed document.

    Returns a mapping ``candidate name -> GkTable``.  Each row also
    carries the eids of nested instances of the candidate's direct child
    candidates, used later for descendant similarity.
    """
    hierarchy = hierarchy or CandidateHierarchy(config)
    document.ensure_eids()
    pool: dict[str, str] = {}
    tables: dict[str, GkTable] = {}
    for spec in config.candidates:
        build = row_builder(spec, pool)
        node = hierarchy.node(spec.name)
        children = [
            (child.name, compile_path(parse_path(
                hierarchy.relative_path_to(node, child))).elements)
            for child in node.children]
        table = tables[spec.name] = _new_table(spec)
        for element in resolve_absolute(document.root, spec.xpath):
            row = table.add(build(element))
            for name, select in children:
                for child_element in select(element):
                    row.add_child(name, child_element.eid)
    return tables


def _plain_steps(spec: CandidateSpec) -> tuple[str, ...]:
    steps = _steps_of(spec.xpath)
    for step in steps:
        # Share the parser's name predicate: any element name the parser
        # accepts (including namespace-prefixed ones like "db:movie") is
        # a plain step; predicates, wildcards, and "//" are not.
        if not is_xml_name(step):
            raise ConfigError(
                f"streaming key generation requires plain candidate paths; "
                f"{spec.name!r} uses step {step!r}")
    return steps


def stream_rows(events: Iterable[XmlEvent], hierarchy: CandidateHierarchy,
                sinks: dict[str, RowSink],
                pool: dict[str, str] | None = None) -> None:
    """The streaming key generator: one pass, rows into ``sinks``.

    Eids number every start event in pre-order — the order
    :meth:`~repro.xmlmodel.XmlDocument.assign_eids` numbers a parsed
    tree — and a candidate matches on its open-tag path.  Only the
    subtree of the outermost open candidate is built; when a candidate
    closes, its row goes to ``sinks[name].add`` (children in close
    order) and its eid registers with the nearest enclosing candidate,
    which is its parent in the candidate tree.
    """
    matchers = {}
    for name, node in hierarchy.nodes.items():
        matchers[_plain_steps(node.spec)] = (
            name, row_builder(node.spec, pool), sinks[name].add)

    tag_stack: list[str] = []
    # Open candidates: (element, (name, build, add), children).
    open_candidates: list[tuple] = []
    build_stack: list[XmlElement] = []  # nodes of the open candidate subtree
    last_closed: XmlElement | None = None
    next_eid = 0

    for kind, value in events:
        if kind == "start":
            tag, attributes = value  # type: ignore[misc]
            tag_stack.append(tag)
            matched = matchers.get(tuple(tag_stack))
            if build_stack or matched is not None:
                element = XmlElement(tag, attributes=attributes)
                element.eid = next_eid
                if build_stack:
                    build_stack[-1].append(element)
                build_stack.append(element)
                if matched is not None:
                    open_candidates.append((element, matched, {}))
                last_closed = None
            next_eid += 1
        elif kind == "text":
            if build_stack:
                current = build_stack[-1]
                if last_closed is not None and last_closed.parent is current:
                    last_closed.tail = (last_closed.tail or "") + value
                else:
                    current.text = (current.text or "") + value
        else:  # end
            tag_stack.pop()
            if not build_stack:
                continue
            closing = build_stack.pop()
            last_closed = closing if build_stack else None
            if open_candidates and open_candidates[-1][0] is closing:
                _, (name, build, add), children = open_candidates.pop()
                row = build(closing)
                row.children = children
                add(row)
                if open_candidates:
                    open_candidates[-1][2].setdefault(name, []).append(
                        closing.eid)


def generate_gk_streaming(source: str | Iterable[XmlEvent],
                          config: SxnmConfig,
                          hierarchy: CandidateHierarchy | None = None,
                          ) -> dict[str, GkTable]:
    """Build all GK tables in a single pass over a document or event stream.

    ``source`` is either the XML text or an iterable of
    :class:`~repro.xmlmodel.XmlEvent`.  Only the subtree of the currently
    open outermost candidate is materialized.
    """
    events = iter_events(source) if isinstance(source, str) else source
    tables = {spec.name: _new_table(spec) for spec in config.candidates}
    stream_rows(events, hierarchy or CandidateHierarchy(config), tables,
                pool={})
    return tables
