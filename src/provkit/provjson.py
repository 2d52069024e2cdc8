"""PROV-JSON ingestion.

Maps the three node sections (``entity``, ``activity``, ``agent``) and the
twelve supported binary relations of one document onto a one-graph
:class:`~provkit.model.GraphFamily`, straight into its columns: each node's
label set is collected from its records, each relation section's endpoints
are read as two whole columns, and the family build validates and numbers
them.  No :class:`~provkit.model.ProvGraph` is built on the way.
An identifier may hold one record or, as the W3C PROV-JSON submission
allows, an array of records: a node takes the union of their labels and a
relation yields one edge per record.
Unsupported constructs (bundles, unknown relation sections) are skipped with
a warning; extra attributes on supported relations (roles, times) are
likewise ignored.
"""

from __future__ import annotations

import warnings
from itertools import chain, repeat
from pathlib import Path
from typing import Any

from .model import EDGE_KINDS, DataFormatError, GraphFamily, ProvGraph, _gc_paused, read_json


class ProvJsonWarning(UserWarning):
    """Raised (as a warning) for skipped PROV-JSON constructs."""


#: Node section name -> generic label.
_NODE_SECTIONS = {"entity": "ent", "activity": "act", "agent": "ag"}

#: Relation section -> (edge label, source field, destination field).
_RELATIONS: dict[str, tuple[str, str, str]] = {
    "wasDerivedFrom": ("der", "prov:generatedEntity", "prov:usedEntity"),
    "specializationOf": ("spe", "prov:specificEntity", "prov:generalEntity"),
    "alternateOf": ("alt", "prov:alternate1", "prov:alternate2"),
    "wasInvalidatedBy": ("wib", "prov:entity", "prov:activity"),
    "wasGeneratedBy": ("gen", "prov:entity", "prov:activity"),
    "used": ("use", "prov:activity", "prov:entity"),
    "wasAttributedTo": ("wat", "prov:entity", "prov:agent"),
    "wasAssociatedWith": ("waw", "prov:activity", "prov:agent"),
    "actedOnBehalfOf": ("abo", "prov:delegate", "prov:responsible"),
    "wasStartedBy": ("wsb", "prov:activity", "prov:trigger"),
    "wasEndedBy": ("web", "prov:activity", "prov:trigger"),
    "wasInformedBy": ("wifb", "prov:informed", "prov:informant"),
}

#: Sections that carry no node/edge information and are silently acceptable.
_IGNORABLE = {"prefix"}


def _type_strings(value: Any, nid: str) -> list[str]:
    """Extract application label strings from node ``nid``'s ``prov:type``."""
    if isinstance(value, list):
        out: list[str] = []
        for item in value:
            out.extend(_type_strings(item, nid))
        return out
    if isinstance(value, dict):
        inner = value.get("$")
        return _type_strings(inner, nid) if inner is not None else []
    if isinstance(value, str):
        return [value] if value else []
    raise DataFormatError(f"node {nid!r}: prov:type value {value!r} is not a string")


def load_family(
    source: str | Path | dict,
    label_mode: str = "application",
    graph_id: str | None = None,
) -> GraphFamily:
    """Load one PROV-JSON document as a one-graph family.

    ``source`` may be a path to a JSON file or an already-parsed document
    dict.  ``label_mode`` selects ``"generic"`` (node kinds only) or
    ``"application"`` (kinds plus ``prov:type`` labels).  Nodes referenced by
    a relation but never declared are auto-declared with the generic label
    the relation column expects, with a warning.
    """
    if label_mode not in ("generic", "application"):
        raise ValueError(f"unknown label mode {label_mode!r}")
    with _gc_paused():
        if isinstance(source, (str, Path)):
            doc, default_id = read_json(source), Path(source).stem
        else:
            doc, default_id = source, "document"
        graph_id = default_id if graph_id is None else graph_id
        if not isinstance(doc, dict):
            raise DataFormatError("PROV-JSON document must be a JSON object")

        nodes: dict[str, set[str]] = {}
        for section, kind in _NODE_SECTIONS.items():
            members = doc.get(section, {})
            if not isinstance(members, dict):
                raise DataFormatError(f"section {section!r} must be an object")
            for nid, entry in members.items():
                labels = nodes.setdefault(nid, set())
                labels.add(kind)
                for attrs in entry if isinstance(entry, list) else [entry]:
                    if isinstance(attrs, dict) and "prov:type" in attrs:
                        app = _type_strings(attrs["prov:type"], nid)
                        if label_mode == "application":
                            labels.update(app)

        # Edge columns, one relation section at a time in document order.
        srcs: list[str] = []
        dsts: list[str] = []
        edge_labels: list[str] = []
        skipped: list[str] = []
        for section, members in doc.items():
            if section in _NODE_SECTIONS or section in _IGNORABLE:
                continue
            if section not in _RELATIONS:
                skipped.append(section)
                continue
            label, src_field, dst_field = _RELATIONS[section]
            if not isinstance(members, dict):
                raise DataFormatError(f"relation section {section!r} must be an object")
            section_srcs, section_dsts = _endpoints(section, members, src_field, dst_field)
            if not all(map(nodes.__contains__, chain(section_srcs, section_dsts))):
                # Declare each missing endpoint where it is first referenced.
                for pair in zip(section_srcs, section_dsts):
                    for endpoint, kind in zip(pair, EDGE_KINDS[label]):
                        if endpoint not in nodes:
                            nodes[endpoint] = {kind}
                            warnings.warn(
                                f"{graph_id}: auto-declared {endpoint!r} as {kind!r} "
                                f"(referenced by {section})",
                                ProvJsonWarning,
                                stacklevel=2,
                            )
            srcs += section_srcs
            dsts += section_dsts
            edge_labels += repeat(label, len(section_srcs))

        if skipped:
            warnings.warn(
                f"{graph_id}: skipped unsupported sections: {sorted(set(skipped))}",
                ProvJsonWarning,
                stacklevel=2,
            )
        if not nodes:
            raise DataFormatError("document declares no nodes")
        return GraphFamily.from_records([(graph_id, nodes.items(), list(zip(srcs, dsts, edge_labels)))])


def _endpoints(section: str, members: dict, src_field: str, dst_field: str) -> tuple[list, list]:
    """The source and destination columns of one relation section, one
    entry per record in document order, all strings."""
    records = list(members.values())
    if not set(map(type, records)) <= {dict}:
        records = [rec for entry in records for rec in (entry if isinstance(entry, list) else [entry])]
    # JSON decodes to exact types, so comparing types checks every record at once.
    if set(map(type, records)) <= {dict}:
        srcs = list(map(dict.get, records, repeat(src_field)))
        dsts = list(map(dict.get, records, repeat(dst_field)))
        if set(map(type, srcs)).union(map(type, dsts)) <= {str}:
            return srcs, dsts
    # Some record is not an exact JSON object with string endpoints: scan the
    # records one by one, so that the first bad one in document order is named.
    srcs, dsts = [], []
    for rid, entry in members.items():
        for rec in entry if isinstance(entry, list) else [entry]:
            if not isinstance(rec, dict):
                raise DataFormatError(f"relation {rid!r} in {section!r} must be an object")
            srcs.append(rec.get(src_field))
            dsts.append(rec.get(dst_field))
            if not isinstance(srcs[-1], str) or not isinstance(dsts[-1], str):
                raise DataFormatError(
                    f"relation {rid!r} in {section!r} needs string ids "
                    f"{src_field!r}/{dst_field!r}"
                )
    return srcs, dsts


def load_provjson(
    source: str | Path | dict,
    label_mode: str = "application",
    graph_id: str | None = None,
) -> ProvGraph:
    """Load one PROV-JSON document as a provenance graph: the one graph of
    :func:`load_family`, which takes the same arguments."""
    return load_family(source, label_mode, graph_id).graphs[0]
