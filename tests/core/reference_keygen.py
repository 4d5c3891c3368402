"""Frozen copy of key generation, kept as a differential oracle.

``generate_gk`` and ``generate_gk_streaming`` as they stood before
:mod:`repro.core.keygen` compiled each candidate's paths and patterns
into one row builder: the XPath AST is walked per instance and field,
and every pattern item filters its character class through a
per-character predicate.  The keygen Hypothesis differential holds the
live DOM, streaming and spilling drivers to these copies, so a change
to the compiled kernel can never be checked against itself.

Self-contained on purpose: its own navigation, pattern parsing, class
extraction and tree nodes.  It imports only the parser, the AST, the
GK table and the candidate hierarchy, none of which the kernel
compiles.  Do not edit it to follow the kernel.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from repro.config import CandidateSpec, SxnmConfig
from repro.core.candidates import CandidateHierarchy, _steps_of
from repro.core.gk import GkRow, GkTable
from repro.errors import ConfigError
from repro.similarity.soundex import soundex
from repro.xmlmodel.parser import XmlEvent, is_xml_name, iter_events
from repro.xpath.ast import AttributeStep, ChildStep, Path, TextStep
from repro.xpath.parser import parse_path

# ---------------------------------------------------------------------------
# Patterns

_VOWELS = set("aeiouAEIOU")

_ITEM_RE = re.compile(
    r"^(?P<cls>[A-Z])(?P<lo>\d+)(?:-(?:(?P<cls2>[A-Z])?(?P<hi>\d+)))?$")


def _class_characters(char_class: str, text: str) -> str:
    """Extract the ordered characters of ``char_class`` from ``text``."""
    if char_class == "K":
        return "".join(c for c in text if c.isalpha() and c not in _VOWELS)
    if char_class == "C":
        return "".join(c for c in text if not c.isspace())
    if char_class == "D":
        return "".join(c for c in text if c.isdigit())
    if char_class == "V":
        return "".join(c for c in text if c in _VOWELS)
    if char_class == "A":
        return "".join(c for c in text if c.isalpha())
    if char_class == "W":
        return "".join(word[0] for word in text.split() if word)
    if char_class == "S":
        return soundex(text)
    raise ValueError(f"unknown character class {char_class!r}")


def _pattern_items(source: str) -> list[tuple[str, int, int]]:
    items = []
    for raw_item in source.split(","):
        match = _ITEM_RE.match(raw_item.strip())
        lo = int(match.group("lo"))
        hi = int(match.group("hi")) if match.group("hi") is not None else lo
        items.append((match.group("cls"), lo, hi))
    return items


def extract_pattern(source: str, text: str) -> str:
    """Apply the pattern ``source`` to ``text`` (not yet uppercased)."""
    return "".join(_class_characters(char_class, text)[lo - 1:hi]
                   for char_class, lo, hi in _pattern_items(source))


# ---------------------------------------------------------------------------
# Navigation


def _step_candidates(node, step: ChildStep) -> list:
    if step.descendant:
        pool = [child for top in node.children for child in top.iter()]
    else:
        pool = node.children
    if step.name == "*":
        matches = list(pool)
    else:
        matches = [child for child in pool if child.tag == step.name]
    if step.attribute is not None:
        if step.attribute_value is None:
            matches = [child for child in matches
                       if step.attribute in child.attributes]
        else:
            matches = [child for child in matches
                       if child.attributes.get(step.attribute)
                       == step.attribute_value]
    if step.position is not None:
        if len(matches) >= step.position:
            return [matches[step.position - 1]]
        return []
    return matches


def _element_steps(path: Path) -> tuple[ChildStep, ...]:
    if path.steps and isinstance(path.steps[-1], (TextStep, AttributeStep)):
        return tuple(path.steps[:-1])  # type: ignore[arg-type]
    return tuple(path.steps)  # type: ignore[arg-type]


def _navigate(context, steps: tuple[ChildStep, ...]) -> list:
    frontier = [context]
    for step in steps:
        next_frontier: list = []
        for node in frontier:
            next_frontier.extend(_step_candidates(node, step))
        frontier = next_frontier
        if not frontier:
            break
    return frontier


def _text_content(element) -> str:
    parts: list[str] = []

    def collect(node) -> None:
        if node.text:
            parts.append(node.text)
        for child in node.children:
            collect(child)
            if child.tail:
                parts.append(child.tail)
    collect(element)
    return "".join(parts)


def resolve_absolute(root, path: Path) -> list:
    steps = _element_steps(path)
    first, rest = steps[0], steps[1:]
    if first.descendant:
        virtual = _Element("#virtual-root")
        virtual.children = [root]
        starts = _step_candidates(virtual, first)
    else:
        if first.name not in ("*", root.tag):
            return []
        if first.position not in (None, 1):
            return []
        starts = [root]
    results: list = []
    for start in starts:
        results.extend(_navigate(start, rest))
    return results


def select_values(context, path: Path) -> list[str]:
    steps = _element_steps(path)
    last = path.steps[-1]
    hits = _navigate(context, steps)
    if isinstance(last, TextStep):
        return [hit.text for hit in hits if hit.text is not None]
    if isinstance(last, AttributeStep):
        owners = hits if steps else [context]
        return [owner.attributes[last.name] for owner in owners
                if owner.attributes.get(last.name) is not None]
    return [_text_content(hit) for hit in hits]


def first_value(context, path: Path) -> str | None:
    values = select_values(context, path)
    return values[0] if values else None


# ---------------------------------------------------------------------------
# Rows


def _key_parts(spec: CandidateSpec) -> list[list[tuple[Path, str]]]:
    return [[(parse_path(spec.path_by_pid(entry.pid).rel_path), entry.pattern)
             for entry in sorted(entries, key=lambda entry: entry.order)]
            for entries in spec.keys]


def _od_paths(spec: CandidateSpec) -> list[Path]:
    return [parse_path(spec.path_by_pid(od.pid).rel_path) for od in spec.ods]


def _extract_row(element, spec: CandidateSpec) -> GkRow:
    """Generate keys and extract OD values for one candidate instance."""
    if element.eid is None:
        raise ValueError("candidate element has no eid; assign_eids() first")
    keys = []
    for parts in _key_parts(spec):
        chunks = []
        for path, pattern in parts:
            value = first_value(element, path)
            chunks.append("" if value is None
                          else extract_pattern(pattern, value))
        keys.append("".join(chunks).upper())
    ods = [first_value(element, path) for path in _od_paths(spec)]
    return GkRow(element.eid, keys, ods)


def _new_table(spec: CandidateSpec) -> GkTable:
    return GkTable(spec.name, key_count=len(spec.keys), od_count=len(spec.ods))


def generate_gk(document, config: SxnmConfig) -> dict[str, GkTable]:
    """The DOM generator: candidates resolved, then children selected."""
    hierarchy = CandidateHierarchy(config)
    document.elements_by_eid()  # ensure eids exist
    tables: dict[str, GkTable] = {}
    instances: dict[str, list] = {}
    for spec in config.candidates:
        table = _new_table(spec)
        found = resolve_absolute(document.root, parse_path(spec.xpath))
        for element in found:
            table.add(_extract_row(element, spec))
        tables[spec.name] = table
        instances[spec.name] = found
    for name, table in tables.items():
        node = hierarchy.node(name)
        for element in instances[name]:
            row = table.row(element.eid)
            for child_node in node.children:
                relative = parse_path(
                    hierarchy.relative_path_to(node, child_node))
                for child_element in _navigate(element,
                                               _element_steps(relative)):
                    row.add_child(child_node.name, child_element.eid)
    return tables


# ---------------------------------------------------------------------------
# Streaming


class _Element:
    """The tree node the streaming copy builds for an open candidate."""

    __slots__ = ("tag", "attributes", "text", "tail", "children", "parent",
                 "eid")

    def __init__(self, tag: str, attributes: dict | None = None):
        self.tag = tag
        self.attributes = dict(attributes or {})
        self.text = None
        self.tail = None
        self.children: list[_Element] = []
        self.parent = None
        self.eid = None

    def append(self, child: _Element) -> None:
        child.parent = self
        self.children.append(child)

    def iter(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def _plain_steps(spec: CandidateSpec) -> tuple[str, ...]:
    steps = _steps_of(spec.xpath)
    for step in steps:
        if not is_xml_name(step):
            raise ConfigError(
                f"streaming key generation requires plain candidate paths; "
                f"{spec.name!r} uses step {step!r}")
    return steps


def generate_gk_streaming(source: str | Iterable[XmlEvent],
                          config: SxnmConfig) -> dict[str, GkTable]:
    """The element-stack state machine over parser events."""
    hierarchy = CandidateHierarchy(config)
    events = iter_events(source) if isinstance(source, str) else source
    by_steps = {_plain_steps(spec): hierarchy.node(spec.name)
                for spec in config.candidates}
    tables = {spec.name: _new_table(spec) for spec in config.candidates}

    tag_stack: list[str] = []
    open_candidates: list[list] = []  # [node, element, children, depth]
    build_stack: list[_Element] = []
    last_closed: _Element | None = None
    next_eid = 0

    for event in events:
        if event.kind == "start":
            tag, attributes = event.value  # type: ignore[misc]
            tag_stack.append(tag)
            eid = next_eid
            next_eid += 1
            inside = bool(open_candidates)
            node = by_steps.get(tuple(tag_stack))
            if inside or node is not None:
                element = _Element(tag, attributes)
                element.eid = eid
                if build_stack:
                    build_stack[-1].append(element)
                build_stack.append(element)
                if node is not None:
                    open_candidates.append([node, element, {}, len(tag_stack)])
                last_closed = None
        elif event.kind == "text":
            if build_stack:
                text = str(event.value)
                current = build_stack[-1]
                if last_closed is not None and last_closed.parent is current:
                    last_closed.tail = (last_closed.tail or "") + text
                else:
                    current.text = (current.text or "") + text
        else:
            depth = len(tag_stack)
            tag_stack.pop()
            if not build_stack:
                continue
            closing = build_stack.pop()
            last_closed = closing if build_stack else None
            if open_candidates and open_candidates[-1][3] == depth \
                    and open_candidates[-1][1] is closing:
                node, element, children, _ = open_candidates.pop()
                row = _extract_row(element, node.spec)
                row.children = children
                tables[node.spec.name].add(row)
                if open_candidates:
                    open_candidates[-1][2].setdefault(
                        node.name, []).append(element.eid)
    return tables
