"""Internal dataset serialization.

Graphs are stored one JSON object per line::

    {"id": "...", "label": "...", "nodes": [{"id": "...", "labels": [...]}], "edges": [[src, dst, "gen"], ...]}

Node entries and label lists are sorted lexicographically on write so that
writing the same dataset twice yields byte-identical files.  A dataset
directory pairs the graph file(s) with a ``manifest.json`` recording the file
list, the class labels and the generation parameters.
:func:`load_dataset` alone decides whether an input path is such a dataset
or a PROV-JSON document.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path
from typing import Iterator

from .model import EDGE_LABEL_ORDER, DataFormatError, Dataset, GraphFamily, _gc_paused, read_json
from .provjson import load_family

MANIFEST_NAME = "manifest.json"
GRAPHS_NAME = "graphs.jsonl"
FORMAT_TAG = "provkit-dataset/1"


def _record_fields(record: dict) -> tuple[str, str, list, list]:
    """Graph id, class label, ``(node id, labels)`` pairs and edges of one
    record, with the record's format checked; the family build checks the graph."""
    try:
        gid = record["id"]
        label = record["label"]
        node_records = record["nodes"]
        edges = record["edges"]
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"malformed graph record: {exc}") from exc
    # The id keys the class labels before the family build sees the record.
    if not isinstance(gid, str):
        raise DataFormatError(f"graph {gid!r}: graph and node ids must be strings")
    if not isinstance(label, str):
        raise DataFormatError(f"graph {gid!r}: class label must be a string")
    if not isinstance(edges, list):
        raise DataFormatError(f"graph {gid!r}: edges must be a list")
    try:
        items = list(map(itemgetter("id", "labels"), node_records))
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"graph {gid!r}: malformed node record: {exc}") from exc
    return gid, label, items, edges


def _graph_lines(dataset: Dataset) -> Iterator[str]:
    """The graph file's text, one record line at a time with its newline.

    Each record is ``json.dumps(record, sort_keys=True, separators=(",",
    ":"))``, written from the family's columns: node ids and label sets are
    encoded once each, label sets sorted.  A dataset without graphs is one
    empty line.
    """
    fam = dataset.family
    sets = [json.dumps(sorted(s), separators=(",", ":")) for s in fam.label_sets]
    labs = [_quote(lab) for lab in EDGE_LABEL_ORDER]
    nodes_at, edges_at = fam.node_offsets.tolist(), fam.edge_offsets.tolist()
    for gid, a, b, e, f in zip(fam.graph_ids, nodes_at, nodes_at[1:], edges_at, edges_at[1:]):
        ids = list(map(_quote, fam.node_ids[a:b]))
        nodes = map(
            '{{"id":{},"labels":{}}}'.format,
            ids,
            map(sets.__getitem__, fam.node_sets[a:b].tolist()),
        )
        edges = map(
            "[{},{},{}]".format,
            map(ids.__getitem__, (fam.src[e:f] - a).tolist()),
            map(ids.__getitem__, (fam.dst[e:f] - a).tolist()),
            map(labs.__getitem__, fam.edge_labels[e:f].tolist()),
        )
        yield (
            f'{{"edges":[{",".join(edges)}],"id":{_quote(gid)},'
            f'"label":{_quote(dataset.class_labels[gid])},"nodes":[{",".join(nodes)}]}}\n'
        )
    if not fam.graph_ids:
        yield "\n"


def _manifest_text(dataset: Dataset) -> str:
    manifest = {
        "format": FORMAT_TAG,
        "files": [GRAPHS_NAME],
        "class_labels": dict(sorted(dataset.class_labels.items())),
        "meta": dataset.meta,
    }
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def dataset_texts(dataset: Dataset) -> dict[str, str]:
    """The files of a saved dataset, by name: graph records and manifest."""
    return {GRAPHS_NAME: "".join(_graph_lines(dataset)), MANIFEST_NAME: _manifest_text(dataset)}


def save_internal(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write ``dataset`` under ``out_dir`` and return the manifest path.

    The graph file is written a record line at a time, never held whole.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / GRAPHS_NAME).open("w", encoding="utf-8") as fh:
        fh.writelines(_graph_lines(dataset))
    (out / MANIFEST_NAME).write_text(_manifest_text(dataset), encoding="utf-8")
    return out / MANIFEST_NAME


def load_internal(path: str | Path) -> Dataset:
    """Load a dataset from a directory, a manifest file, or a bare ``.jsonl``."""
    p = Path(path)
    if p.is_dir():
        p = p / MANIFEST_NAME
    if p.name.endswith(".jsonl"):
        return _from_manifest(p, {"format": FORMAT_TAG, "files": [p.name]})
    return _from_manifest(p, read_json(p))


def load_dataset(path: str | Path) -> Dataset:
    """A saved dataset as :func:`load_internal` reads it, or else a PROV-JSON
    document as a one-graph dataset named after the file stem and labelled
    ``"unlabeled"``.  Any file but a ``manifest.json`` or ``.jsonl`` is
    decoded once, and is a manifest if it has a ``format`` or ``files``
    section, which PROV-JSON does not have."""
    p = Path(path)
    if p.is_dir() or p.name.endswith(".jsonl") or p.name == MANIFEST_NAME:
        return load_internal(p)
    with _gc_paused():
        doc = read_json(p)
        if not (isinstance(doc, dict) and {"format", "files"} & doc.keys()):
            family = load_family(doc, "application", graph_id=p.stem)
            return Dataset(family, {p.stem: "unlabeled"}, {"source": str(p)})
    return _from_manifest(p, doc)


def _from_manifest(p: Path, manifest) -> Dataset:
    """The dataset that the decoded manifest at ``p`` lists."""
    tag = manifest.get("format") if isinstance(manifest, dict) else None
    if tag != FORMAT_TAG:
        raise DataFormatError(f"{p}: unrecognized manifest format {tag!r}")
    files = manifest.get("files", [])
    if not (isinstance(files, list) and all(isinstance(name, str) for name in files)):
        raise DataFormatError(f"{p}: manifest 'files' must be a list of file names")
    labels: dict[str, str] = {}
    with _gc_paused():
        family = GraphFamily.from_records(
            record
            for name in files
            for record in _read_graph_file(p.parent / name, labels)
        )
    declared = manifest.get("class_labels", {})
    if declared and declared != labels:
        raise DataFormatError(f"{p}: manifest class labels disagree with graph records")
    return Dataset(family, labels, manifest.get("meta", {}))


def _read_graph_file(path: Path, labels: dict[str, str]) -> Iterator[tuple[str, list, list]]:
    """Yield a JSONL file's graph records and note each one's class label."""
    if not path.exists():
        raise DataFormatError(f"missing graph file: {path}")
    with path.open(encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataFormatError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
                gid, labels[gid], nodes, edges = _record_fields(record)
                yield gid, nodes, edges
        except UnicodeDecodeError:
            # The decoder's position is within its 8 KiB chunk: find the line.
            for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataFormatError(f"{path}:{lineno}: not valid UTF-8: {exc}") from exc
            raise
