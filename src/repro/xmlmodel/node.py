"""In-memory XML tree model.

The model is deliberately small but complete for the needs of SXNM: an
:class:`XmlElement` has a tag, an ordered attribute mapping, a list of
children (elements interleaved with text via ``text``/``tail`` slots, the
same shape as ``xml.etree``), and a parent pointer so relative navigation
and subtree extraction are cheap.

Every element additionally carries an *element id* (``eid``) — its index
in document order — assigned by :meth:`XmlDocument.assign_eids`.  The paper
uses exactly this ("for instance the position of the element in the data
source") as the ``eid`` column of the generated-key relation GK.
"""

from __future__ import annotations

from collections.abc import Iterator


class XmlElement:
    """A single XML element node.

    Parameters
    ----------
    tag:
        Element name, e.g. ``"movie"``.
    attributes:
        Optional mapping of attribute name to string value.  Insertion
        order is preserved on serialization.
    text:
        Character data appearing immediately after the start tag and
        before the first child element (``None`` when absent).
    """

    __slots__ = ("tag", "attributes", "text", "tail", "children", "parent", "eid")

    def __init__(self, tag: str, attributes: dict[str, str] | None = None,
                 text: str | None = None):
        if not tag:
            raise ValueError("element tag must be a non-empty string")
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})
        self.text = text
        self.tail: str | None = None
        self.children: list[XmlElement] = []
        self.parent: XmlElement | None = None
        self.eid: int | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def append(self, child: XmlElement) -> XmlElement:
        """Append ``child`` and set its parent pointer; returns the child."""
        child.parent = self
        self.children.append(child)
        return child

    def extend(self, children: list[XmlElement]) -> None:
        """Append every element of ``children`` in order."""
        for child in children:
            self.append(child)

    def insert(self, index: int, child: XmlElement) -> XmlElement:
        """Insert ``child`` at position ``index`` among the children."""
        child.parent = self
        self.children.insert(index, child)
        return child

    def remove(self, child: XmlElement) -> None:
        """Remove ``child`` from this element (raises ValueError if absent)."""
        self.children.remove(child)
        child.parent = None

    def make_child(self, tag: str, text: str | None = None,
                   attributes: dict[str, str] | None = None) -> XmlElement:
        """Create, append, and return a new child element."""
        return self.append(XmlElement(tag, attributes=attributes, text=text))

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def iter(self) -> Iterator[XmlElement]:
        """Yield this element and all descendants in document order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_children(self, tag: str | None = None) -> Iterator[XmlElement]:
        """Yield direct children, optionally filtered by ``tag``."""
        for child in self.children:
            if tag is None or child.tag == tag:
                yield child

    def find(self, tag: str) -> XmlElement | None:
        """Return the first direct child with ``tag``, or ``None``."""
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> list[XmlElement]:
        """Return all direct children with ``tag``."""
        return [child for child in self.children if child.tag == tag]

    def ancestors(self) -> Iterator[XmlElement]:
        """Yield ancestors from parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def depth(self) -> int:
        """Number of ancestors (the root has depth 0)."""
        return sum(1 for _ in self.ancestors())

    def root(self) -> XmlElement:
        """Return the root of the tree containing this element."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def path_from_root(self) -> str:
        """Slash-separated tag path from the root, e.g. ``a/b/c``.

        This is the *absolute path without positional information* used to
        match candidate definitions against instances.
        """
        tags = [self.tag]
        tags.extend(ancestor.tag for ancestor in self.ancestors())
        return "/".join(reversed(tags))

    # ------------------------------------------------------------------
    # Content access
    # ------------------------------------------------------------------
    def get(self, attribute: str, default: str | None = None) -> str | None:
        """Return the value of ``attribute`` or ``default``."""
        return self.attributes.get(attribute, default)

    def set(self, attribute: str, value: str) -> None:
        """Set attribute ``attribute`` to ``value`` (stringified)."""
        self.attributes[attribute] = str(value)

    def text_content(self) -> str:
        """Concatenated text of this element and all descendants."""
        parts: list[str] = []
        self._collect_text(parts)
        return "".join(parts)

    def _collect_text(self, parts: list[str]) -> None:
        if self.text:
            parts.append(self.text)
        for child in self.children:
            child._collect_text(parts)
            if child.tail:
                parts.append(child.tail)

    # ------------------------------------------------------------------
    # Copying and equality
    # ------------------------------------------------------------------
    def copy(self) -> XmlElement:
        """Deep copy of the subtree rooted here (parent pointer cleared)."""
        clone = XmlElement(self.tag, attributes=dict(self.attributes), text=self.text)
        clone.tail = self.tail
        clone.eid = self.eid
        for child in self.children:
            clone.append(child.copy())
        return clone

    def structurally_equal(self, other: XmlElement) -> bool:
        """True if both subtrees have the same tags, attributes, and text.

        ``eid`` and ``tail`` of the two roots are ignored; child tails
        participate because they are part of the subtree's content.
        """
        if self.tag != other.tag or self.attributes != other.attributes:
            return False
        if (self.text or "") != (other.text or ""):
            return False
        if len(self.children) != len(other.children):
            return False
        for mine, theirs in zip(self.children, other.children):
            if (mine.tail or "") != (theirs.tail or ""):
                return False
            if not mine.structurally_equal(theirs):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XmlElement {self.tag!r} eid={self.eid} children={len(self.children)}>"


class XmlDocument:
    """An XML document: a root element plus document-level bookkeeping."""

    __slots__ = ("root", "_eids_assigned")

    def __init__(self, root: XmlElement):
        self.root = root
        self._eids_assigned = False

    def assign_eids(self) -> int:
        """Number every element in document order; return the element count.

        Idempotent: repeated calls renumber, which is safe because ids are
        only meaningful relative to one numbering pass.
        """
        count = 0
        for node in self.root.iter():
            node.eid = count
            count += 1
        self._eids_assigned = True
        return count

    def ensure_eids(self) -> None:
        """Assign eids unless a numbering pass has already run."""
        if not self._eids_assigned:
            self.assign_eids()

    def element_count(self) -> int:
        """Total number of elements in the document."""
        return sum(1 for _ in self.root.iter())

    def elements_by_eid(self) -> dict[int, XmlElement]:
        """Mapping of eid to element (assigns eids if not yet assigned)."""
        self.ensure_eids()
        return {node.eid: node for node in self.root.iter()}

    def iter(self) -> Iterator[XmlElement]:
        """Yield all elements in document order."""
        return self.root.iter()

    def copy(self) -> XmlDocument:
        """Deep copy of the whole document."""
        return XmlDocument(self.root.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XmlDocument root={self.root.tag!r}>"
