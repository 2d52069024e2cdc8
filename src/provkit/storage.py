"""Internal dataset serialization.

Graphs are stored one JSON object per line::

    {"id": "...", "label": "...", "nodes": [{"id": "...", "labels": [...]}], "edges": [[src, dst, "gen"], ...]}

Node entries and label lists are sorted lexicographically on write so that
writing the same dataset twice yields byte-identical files.  A dataset
directory pairs the graph file(s) with a ``manifest.json`` recording the file
list, the class labels and the generation parameters.
"""

from __future__ import annotations

import json
from pathlib import Path

from .model import Dataset, GraphFamily, ProvGraph
from .provjson import DataFormatError

MANIFEST_NAME = "manifest.json"
GRAPHS_NAME = "graphs.jsonl"
FORMAT_TAG = "provkit-dataset/1"


def graph_to_record(graph: ProvGraph, label: str) -> dict:
    return {
        "id": graph.graph_id,
        "label": label,
        "nodes": [
            {"id": nid, "labels": sorted(labels)}
            for nid, labels in sorted(graph.nodes.items())
        ],
        "edges": [list(e) for e in graph.edges],
    }


def record_to_graph(record: dict) -> tuple[ProvGraph, str]:
    try:
        gid = record["id"]
        label = record["label"]
        node_records = record["nodes"]
        edge_records = record["edges"]
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"malformed graph record: {exc}") from exc
    if not isinstance(gid, str):
        raise DataFormatError(f"graph {gid!r}: graph id must be a string")
    if not isinstance(label, str):
        raise DataFormatError(f"graph {gid!r}: class label must be a string")
    nodes: dict = {}
    try:
        for n in node_records:
            nid, labels = n["id"], n["labels"]
            if not isinstance(nid, str) or not isinstance(labels, list):
                raise DataFormatError(
                    f"graph {gid!r}: node {nid!r} needs a string id and a list of labels"
                )
            if nid in nodes:
                raise DataFormatError(f"graph {gid!r}: duplicate node id {nid!r}")
            nodes[nid] = frozenset(labels)
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"graph {gid!r}: malformed node record: {exc}") from exc
    if not all(isinstance(lab, str) for lab in frozenset().union(*nodes.values())):
        raise DataFormatError(f"graph {gid!r}: node labels must be strings")
    try:
        edges = tuple((s, d, l) for s, d, l in edge_records)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"graph {gid!r}: malformed edge: {exc}") from exc
    try:
        return ProvGraph(gid, nodes, edges), label
    except ValueError as exc:
        raise DataFormatError(f"graph {gid!r}: {exc}") from exc


def dataset_texts(dataset: Dataset) -> dict[str, str]:
    """The files of a saved dataset, by name: graph records and manifest."""
    lines = []
    for g in dataset.family:
        rec = graph_to_record(g, dataset.class_labels[g.graph_id])
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    manifest = {
        "format": FORMAT_TAG,
        "files": [GRAPHS_NAME],
        "class_labels": dict(sorted(dataset.class_labels.items())),
        "meta": dataset.meta,
    }
    return {
        GRAPHS_NAME: "\n".join(lines) + "\n",
        MANIFEST_NAME: json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    }


def save_internal(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write ``dataset`` under ``out_dir`` and return the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in dataset_texts(dataset).items():
        (out / name).write_text(text, encoding="utf-8")
    return out / MANIFEST_NAME


def load_internal(path: str | Path) -> Dataset:
    """Load a dataset from a directory, a manifest file, or a bare ``.jsonl``."""
    p = Path(path)
    if p.is_dir():
        p = p / MANIFEST_NAME
    if not p.exists():
        raise DataFormatError(f"no such dataset: {path}")
    if p.name.endswith(".jsonl"):
        graphs, labels = _read_graph_file(p)
        return Dataset(GraphFamily(tuple(graphs)), labels, {})
    try:
        manifest = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{p}: not valid JSON: {exc}") from exc
    if manifest.get("format") != FORMAT_TAG:
        raise DataFormatError(f"{p}: unrecognized manifest format {manifest.get('format')!r}")
    graphs: list[ProvGraph] = []
    labels: dict[str, str] = {}
    for name in manifest.get("files", []):
        file_graphs, file_labels = _read_graph_file(p.parent / name)
        graphs.extend(file_graphs)
        labels.update(file_labels)
    declared = manifest.get("class_labels", {})
    if declared and declared != labels:
        raise DataFormatError(f"{p}: manifest class labels disagree with graph records")
    return Dataset(GraphFamily(tuple(graphs)), labels, manifest.get("meta", {}))


def _read_graph_file(path: Path) -> tuple[list[ProvGraph], dict[str, str]]:
    if not path.exists():
        raise DataFormatError(f"missing graph file: {path}")
    graphs = []
    labels = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            graph, label = record_to_graph(record)
            if graph.graph_id in labels:
                raise DataFormatError(f"{path}:{lineno}: duplicate graph id {graph.graph_id!r}")
            graphs.append(graph)
            labels[graph.graph_id] = label
    return graphs, labels
