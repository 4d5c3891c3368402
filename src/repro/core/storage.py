"""XML import/export codec for the GK and CS temporary tables.

The paper materializes key generation into relations ``GK_s`` and the
detection output into cluster-set tables ``CS_s``.  Persisting them
decouples the two phases operationally: run key generation once over a
large document, then experiment with windows/thresholds against the
stored tables (``sxnm keygen`` / ``sxnm detect --gk``).

Since the :class:`~repro.core.index.DetectionIndex` refactor this
module is the *interchange* layer only: the engine's own durable run
state lives in the index's checksummed segments, and these XML formats
import/export tables across its boundary (:func:`export_index_gk` /
:func:`import_index_gk`) or stand alone for experiments.

Formats::

    <gk-tables>
      <gk candidate="movie" keys="2" ods="2">
        <row eid="3">
          <key>MT99</key><key>5MA</key>
          <od>Matrix</od><od missing="true"/>
          <children candidate="person"><ref eid="5"/><ref eid="6"/></children>
        </row>
      </gk>
    </gk-tables>

    <cluster-sets>
      <cs candidate="movie">
        <cluster id="0"><ref eid="3"/><ref eid="9"/></cluster>
      </cs>
    </cluster-sets>

An OD whose value *is* text but strips to nothing (empty string,
whitespace-only) is carried in a ``text`` attribute — ``<od text=""/>``
— because the pretty writer drops whitespace-only element text; the
three OD shapes (``missing="true"`` → ``None``, ``text`` attribute →
its exact value, element text → its value) round-trip bit-identically.
"""

from __future__ import annotations

from ..errors import DetectionError
from ..xmlmodel import XmlDocument, XmlElement, parse, parse_file, write_file
from .clusters import ClusterSet
from .detector import SxnmResult
from .gk import GkRow, GkTable


# ---------------------------------------------------------------------------
# GK tables
# ---------------------------------------------------------------------------

def gk_to_document(tables: dict[str, GkTable]) -> XmlDocument:
    """Serialize GK tables into an XML document."""
    root = XmlElement("gk-tables")
    for name, table in tables.items():
        table_node = root.make_child("gk", attributes={
            "candidate": name,
            "keys": str(table.key_count),
            "ods": str(table.od_count)})
        for row in table:
            row_node = table_node.make_child("row",
                                             attributes={"eid": str(row.eid)})
            for key in row.keys:
                row_node.make_child("key", text=key)
            for od in row.ods:
                od_node = row_node.make_child("od", text=od)
                if od is None:
                    od_node.set("missing", "true")
                elif not od.strip():
                    # Whitespace-only element text does not survive the
                    # pretty writer; attributes do, verbatim.
                    od_node.text = None
                    od_node.set("text", od)
            for child_name, eids in row.children.items():
                children_node = row_node.make_child(
                    "children", attributes={"candidate": child_name})
                for eid in eids:
                    children_node.make_child("ref").set("eid", str(eid))
    document = XmlDocument(root)
    document.assign_eids()
    return document


def _int_attr(node: XmlElement, name: str) -> int:
    value = node.get(name)
    if value is None:
        raise DetectionError(f"<{node.tag}> is missing attribute {name!r}")
    try:
        return int(value)
    except ValueError:
        raise DetectionError(
            f"<{node.tag}> attribute {name!r} is not an integer: {value!r}"
        ) from None


def gk_from_document(document: XmlDocument) -> dict[str, GkTable]:
    """Parse GK tables back from :func:`gk_to_document` output.

    Equal key and OD strings come back as one object, as key generation
    produces them.
    """
    root = document.root
    if root.tag != "gk-tables":
        raise DetectionError(f"expected <gk-tables>, found <{root.tag}>")
    pool: dict[str, str] = {}
    intern = pool.setdefault
    tables: dict[str, GkTable] = {}
    for table_node in root.find_all("gk"):
        name = table_node.get("candidate")
        if name is None:
            raise DetectionError("<gk> is missing the 'candidate' attribute")
        table = GkTable(name, key_count=_int_attr(table_node, "keys"),
                        od_count=_int_attr(table_node, "ods"))
        for row_node in table_node.find_all("row"):
            keys = [intern(text, text) for text in
                    (node.text or "" for node in row_node.find_all("key"))]
            ods: list[str | None] = []
            for od_node in row_node.find_all("od"):
                if od_node.get("missing") == "true":
                    ods.append(None)
                    continue
                text = od_node.get("text")
                if text is None:
                    text = od_node.text or ""
                ods.append(intern(text, text))
            row = GkRow(_int_attr(row_node, "eid"), keys, ods)
            for children_node in row_node.find_all("children"):
                child_name = children_node.get("candidate")
                if child_name is None:
                    raise DetectionError(
                        "<children> is missing the 'candidate' attribute")
                for ref in children_node.find_all("ref"):
                    row.add_child(child_name, _int_attr(ref, "eid"))
            table.add(row)
        tables[name] = table
    return tables


def save_gk(tables: dict[str, GkTable], path: str) -> None:
    """Write GK tables to ``path`` as XML."""
    write_file(gk_to_document(tables), path)


def load_gk(path: str) -> dict[str, GkTable]:
    """Read GK tables from ``path``."""
    return gk_from_document(parse_file(path))


def load_gk_text(text: str) -> dict[str, GkTable]:
    """Read GK tables from an XML string."""
    return gk_from_document(parse(text))


def export_index_gk(index, path: str) -> dict[str, GkTable]:
    """Export a detection index's GK tables to ``path`` as XML.

    Returns the exported tables.  Raises
    :class:`~repro.errors.DetectionError` when the index holds no
    readable GK segment.
    """
    tables = index.load_gk()
    if tables is None:
        raise DetectionError(
            f"detection index {index.directory!r} holds no readable "
            f"GK tables to export")
    save_gk(tables, path)
    return tables


def import_index_gk(index, path: str) -> dict[str, GkTable]:
    """Import XML GK tables from ``path`` into a detection index.

    Returns the imported tables.  The index must already carry the
    matching configuration fingerprint (``sxnm index init``).
    """
    tables = load_gk(path)
    index.save_gk(tables)
    return tables


# ---------------------------------------------------------------------------
# Cluster sets
# ---------------------------------------------------------------------------

def clusters_to_document(result: SxnmResult) -> XmlDocument:
    """Serialize a result's cluster sets (CS tables) into XML."""
    root = XmlElement("cluster-sets")
    for name, outcome in result.outcomes.items():
        cs_node = root.make_child("cs", attributes={"candidate": name})
        for cluster_id, cluster in enumerate(outcome.cluster_set):
            cluster_node = cs_node.make_child(
                "cluster", attributes={"id": str(cluster_id)})
            for eid in cluster:
                cluster_node.make_child("ref").set("eid", str(eid))
    document = XmlDocument(root)
    document.assign_eids()
    return document


def clusters_from_document(document: XmlDocument) -> dict[str, ClusterSet]:
    """Parse cluster sets back from :func:`clusters_to_document` output."""
    root = document.root
    if root.tag != "cluster-sets":
        raise DetectionError(f"expected <cluster-sets>, found <{root.tag}>")
    cluster_sets: dict[str, ClusterSet] = {}
    for cs_node in root.find_all("cs"):
        name = cs_node.get("candidate")
        if name is None:
            raise DetectionError("<cs> is missing the 'candidate' attribute")
        clusters = []
        for cluster_node in cs_node.find_all("cluster"):
            clusters.append([_int_attr(ref, "eid")
                             for ref in cluster_node.find_all("ref")])
        cluster_sets[name] = ClusterSet(name, clusters)
    return cluster_sets


def save_clusters(result: SxnmResult, path: str) -> None:
    """Write a result's cluster sets to ``path`` as XML."""
    write_file(clusters_to_document(result), path)


def load_clusters(path: str) -> dict[str, ClusterSet]:
    """Read cluster sets from ``path``."""
    return clusters_from_document(parse_file(path))
