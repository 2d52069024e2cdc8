"""Baseline graph kernels: label histograms and Weisfeiler-Lehman subtrees.

All three operate on node/edge labels only.  The WL variant refines colors
along forward (outgoing) neighborhoods, matching the directed walk semantics
of the typed kernel, and compresses each refinement through an injective
color dictionary.  Gram matrices are exact integer dot products of the
per-iteration histograms, summed over iterations ``0..h``, and share the
typed kernel's overflow refusal and normalization.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .kernel import GramMatrix, _count_gram
from .model import GraphFamily

_MODES = ("generic", "application")


def _prepared(family: GraphFamily, label_mode: str) -> list:
    if label_mode not in _MODES:
        raise ValueError(f"unknown label mode {label_mode!r}")
    if label_mode == "generic":
        return [g.strip_application_labels() for g in family]
    return list(family)


def _hist_gram(histograms: list[Counter], graph_ids, h, normalize) -> GramMatrix:
    columns: dict = {}
    for hist in histograms:
        for key in hist:
            columns.setdefault(key, len(columns))
    x = np.zeros((len(histograms), len(columns)), dtype=np.int64)
    for r, hist in enumerate(histograms):
        for key, count in hist.items():
            x[r, columns[key]] = count
    return _count_gram(x, tuple(graph_ids), h, normalize)


def vh_gram(family: GraphFamily, label_mode: str = "application", normalize: bool = False) -> GramMatrix:
    """Vertex histogram kernel: counts of identical node label sets."""
    graphs = _prepared(family, label_mode)
    hists = [Counter(g.nodes.values()) for g in graphs]
    return _hist_gram(hists, [g.graph_id for g in graphs], 0, normalize)


def eh_gram(family: GraphFamily, normalize: bool = False) -> GramMatrix:
    """Edge histogram kernel: counts of edge labels, parallel edges included."""
    hists = [Counter(lab for _, _, lab in g.edges) for g in family]
    return _hist_gram(hists, [g.graph_id for g in family], 0, normalize)


def wl_colorings(
    family: GraphFamily, h: int, label_mode: str = "application"
) -> list[dict[str, dict[str, int]]]:
    """Per-iteration WL colors for every node, shared across the family.

    Returns one entry per iteration ``0..h``; each maps graph id to a mapping
    from node id to that iteration's color id.  Color ids come from a single
    injective dictionary, so equal ids mean equal subtree patterns anywhere
    in the family.
    """
    if h < 0:
        raise ValueError("h must be >= 0")
    graphs = _prepared(family, label_mode)
    table: dict = {}

    def compress(key) -> int:
        hit = table.get(key)
        if hit is None:
            hit = len(table)
            table[key] = hit
        return hit

    adjacency = {}
    colors: dict[str, dict[str, int]] = {}
    for g in graphs:
        adj: dict[str, list[str]] = {nid: [] for nid in g.nodes}
        for src, dst, _ in g.edges:
            adj[src].append(dst)
        adjacency[g.graph_id] = adj
        colors[g.graph_id] = {
            nid: compress(("init", tuple(sorted(labels)))) for nid, labels in g.nodes.items()
        }
    iterations = [colors]
    for _ in range(h):
        prev = iterations[-1]
        nxt: dict[str, dict[str, int]] = {}
        for g in graphs:
            pg = prev[g.graph_id]
            adj = adjacency[g.graph_id]
            nxt[g.graph_id] = {
                nid: compress((pg[nid], tuple(sorted(pg[u] for u in adj[nid]))))
                for nid in g.nodes
            }
        iterations.append(nxt)
    return iterations


def wl_gram(
    family: GraphFamily, h: int, label_mode: str = "application", normalize: bool = False
) -> GramMatrix:
    """WL subtree kernel: summed histogram dot products over iterations 0..h."""
    iterations = wl_colorings(family, h, label_mode)
    graph_ids = [g.graph_id for g in family]
    # Each refinement key embeds the previous iteration's color id, so color
    # ids never repeat across iterations and one histogram over all of them
    # sums the per-iteration dot products.
    hists = [
        Counter(c for level in iterations for c in level[gid].values())
        for gid in graph_ids
    ]
    return _hist_gram(hists, graph_ids, h, normalize)
