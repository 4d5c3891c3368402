"""Evaluation of parsed paths against :mod:`repro.xmlmodel` trees.

A path is compiled once (:func:`compile_path`, cached per
:class:`~repro.xpath.ast.Path` the way :func:`~repro.xpath.parse_path`
caches per expression) into functions of the context element.  Plain
child steps and ``[n]`` positions become direct loops over ``children``;
wildcard, ``//`` and attribute-predicate steps select through
:func:`_step_candidates`.  Every view below runs that compiled form:

* :func:`select_elements` — the element nodes a path's navigation steps
  reach (value steps must be absent).
* :func:`select_values` — string values: with a ``text()`` tail the
  elements' own text, with an ``@attr`` tail the attribute values, and with
  a plain element path the concatenated text content of each hit (a
  convenience the configuration layer relies on).
* :func:`first_value` — the first string value or ``None``; missing data
  is a first-class situation for key generation.

Absolute paths (``/a/b`` or, as the paper writes them, ``a/b`` starting at
the document root tag) are evaluated with :func:`select_elements` against
the document root via :func:`resolve_absolute`.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from operator import attrgetter

from ..errors import PathEvaluationError
from ..xmlmodel import XmlDocument, XmlElement
from .ast import AttributeStep, ChildStep, Path, TextStep
from .parser import parse_path

#: A compiled navigation: context element -> elements reached.
Navigate = Callable[[XmlElement], list[XmlElement]]
#: The value one reached element contributes (``None``: nothing).
Value = Callable[[XmlElement], str | None]


def _coerce(path: Path | str) -> Path:
    return path if isinstance(path, Path) else parse_path(path)


def _step_candidates(node: XmlElement, step: ChildStep) -> list[XmlElement]:
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
                       if child.get(step.attribute) == step.attribute_value]
    if step.position is not None:
        if len(matches) >= step.position:
            return [matches[step.position - 1]]
        return []
    return matches


def _is_plain(step: ChildStep) -> bool:
    return not (step.descendant or step.attribute is not None
                or step.name == "*")


def _compile_step(step: ChildStep) -> Navigate:
    """One navigation step as a function of the context element."""
    if not _is_plain(step):
        return lambda node: _step_candidates(node, step)
    name, position = step.name, step.position
    if position is None:
        return lambda node: [child for child in node.children
                             if child.tag == name]

    def nth(node: XmlElement) -> list[XmlElement]:
        remaining = position
        for child in node.children:
            if child.tag == name:
                remaining -= 1
                if not remaining:
                    return [child]
        return []
    return nth


def _navigator(steps: tuple[ChildStep, ...]) -> Navigate:
    """The element steps compiled into one navigation function.

    Hits come in document order per context, contexts in frontier
    order: the order the step-by-step frontier walk has always had.
    """
    compiled = [_compile_step(step) for step in steps]
    if not compiled:
        return lambda node: [node]
    if len(compiled) == 1:
        return compiled[0]

    def navigate(node: XmlElement) -> list[XmlElement]:
        frontier = [node]
        for step in compiled:
            frontier = [hit for context in frontier for hit in step(context)]
            if not frontier:
                break
        return frontier
    return navigate


def _attribute(name: str) -> Value:
    return lambda element: element.attributes.get(name)


def _first_child_value(step: ChildStep, value: Value) -> Value:
    """``first`` for one plain child step: a direct loop over children."""
    name, position = step.name, step.position
    if position is None:
        def first(context: XmlElement) -> str | None:
            for child in context.children:
                if child.tag == name:
                    found = value(child)
                    if found is not None:
                        return found
            return None
        return first

    def first_nth(context: XmlElement) -> str | None:
        remaining = position
        for child in context.children:
            if child.tag == name:
                remaining -= 1
                if not remaining:
                    return value(child)
        return None
    return first_nth


class CompiledPath:
    """A path compiled into functions of the context element.

    ``elements`` returns the elements the navigation steps reach,
    ``values`` the string values :func:`select_values` documents, and
    ``first`` the first of those values or ``None``.
    """

    __slots__ = ("elements", "values", "first")

    def __init__(self, path: Path):
        steps = path.element_steps
        last = path.steps[-1]
        value: Value
        if isinstance(last, TextStep):
            value = attrgetter("text")
        elif isinstance(last, AttributeStep):
            value = _attribute(last.name)
        else:
            value = XmlElement.text_content
        elements = self.elements = _navigator(steps)
        self.values = lambda context: [
            found for hit in elements(context)
            if (found := value(hit)) is not None]
        if not steps:
            self.first = value
        elif len(steps) == 1 and _is_plain(steps[0]):
            self.first = _first_child_value(steps[0], value)
        else:
            def first(context: XmlElement) -> str | None:
                for hit in elements(context):
                    found = value(hit)
                    if found is not None:
                        return found
                return None
            self.first = first


@lru_cache(maxsize=4096)
def compile_path(path: Path) -> CompiledPath:
    """The compiled form of ``path``, built once per distinct path."""
    return CompiledPath(path)


def select_elements(context: XmlElement | XmlDocument, path: Path | str) -> list[XmlElement]:
    """Return the elements reached by ``path`` from ``context``.

    ``path`` must not end in ``text()`` or ``@attr``.  Absolute paths are
    matched starting at the root *tag*: ``movie_database/movies/movie``
    selects ``movie`` elements when the root is ``movie_database``.
    """
    parsed = _coerce(path)
    if parsed.is_value_path:
        raise PathEvaluationError(
            f"select_elements cannot evaluate value path {parsed}")
    node = context.root if isinstance(context, XmlDocument) else context
    if parsed.absolute or isinstance(context, XmlDocument):
        return resolve_absolute(node, parsed)
    return compile_path(parsed).elements(node)


def resolve_absolute(root: XmlElement, path: Path | str) -> list[XmlElement]:
    """Evaluate an absolute element path whose first step names the root.

    The paper writes candidate paths with the root tag as the first step
    (``movie_database/movies/movie``); a leading slash is also accepted.
    The first step must match the root element (or be a ``//`` step, which
    searches the whole tree).
    """
    parsed = _coerce(path)
    if parsed.is_value_path:
        raise PathEvaluationError(f"candidate path must select elements: {parsed}")
    steps = parsed.element_steps
    if not steps:
        raise PathEvaluationError("empty path")
    first, rest = steps[0], steps[1:]
    if first.descendant:
        virtual = XmlElement("#virtual-root")
        virtual.children = [root]  # no parent rewiring; read-only navigation
        starts = _step_candidates(virtual, first)
    else:
        if first.name not in ("*", root.tag):
            return []
        if first.position not in (None, 1):
            return []
        starts = [root]
    navigate = _navigator(rest)
    return [hit for start in starts for hit in navigate(start)]


def select_values(context: XmlElement, path: Path | str) -> list[str]:
    """Return string values selected by ``path`` relative to ``context``.

    * ``.../text()`` → the own text of each matched element (elements with
      no text contribute nothing, matching XPath's empty node-set).
    * ``.../@attr`` → present attribute values.
    * plain element path → concatenated text content of each hit.
    * ``@attr`` alone → the context element's attribute.
    """
    return compile_path(_coerce(path)).values(context)


def first_value(context: XmlElement, path: Path | str) -> str | None:
    """First string value of ``path`` at ``context``, or ``None`` if empty."""
    return compile_path(_coerce(path)).first(context)
