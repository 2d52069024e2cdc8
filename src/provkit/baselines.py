"""Baseline graph kernels: label histograms and Weisfeiler-Lehman subtrees.

All three operate on node/edge labels only and read the family's columns.
The WL variant refines colors along forward (outgoing) neighborhoods,
matching the directed walk semantics of the typed kernel.  Each iteration
relabels the whole family at once (Shervashidze et al., JMLR 2011): a
node's new color is the rank of its row ``[previous color, sorted successor
colors]`` among the rows of the nodes of equal out-degree, so refinement is
exact for any degree and needs no hashing.  Gram matrices are exact integer
dot products of per-graph color counts, summed over iterations ``0..h``,
and share the typed kernel's overflow refusal and normalization.
``wl_colorings`` keeps the per-node dictionary refinement as an independent
oracle.
"""

from __future__ import annotations

import numpy as np

from .kernel import GramMatrix, _count_gram
from .model import EDGE_LABEL_ORDER, GraphFamily, generic_part

_MODES = ("generic", "application")


def _check_mode(label_mode: str) -> None:
    if label_mode not in _MODES:
        raise ValueError(f"unknown label mode {label_mode!r}")


def _label_colors(family: GraphFamily, label_mode: str) -> tuple[np.ndarray, int]:
    """Each node's label color and the number of colors.

    The color is the node's label set id, or in generic mode the id of the
    set's generic part.  Raises ``ValueError`` naming the first node, in
    family order, that generic mode would leave without a label.
    """
    _check_mode(label_mode)
    if label_mode == "application":
        return family.node_sets, len(family.label_sets)
    ids: dict[frozenset[str], int] = {}
    lut = np.array([ids.setdefault(generic_part(s), len(ids)) for s in family.label_sets], np.intp)
    colors = lut[family.node_sets]
    if frozenset() in ids:
        v = int(np.argmax(colors == ids[frozenset()]))
        raise ValueError(
            f"node {family.node_ids[v]!r} has no generic label; cannot strip to generic mode"
        )
    return colors, len(ids)


def _owners(offsets: np.ndarray) -> np.ndarray:
    """The row of each item, for rows owning ``offsets[i]:offsets[i + 1]``."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _counts(owner: np.ndarray, codes: np.ndarray, n_rows: int, width: int) -> np.ndarray:
    """int64 (rows x width) matrix counting each item's code in its row."""
    flat = np.bincount(owner * width + codes, minlength=n_rows * width)
    return flat.reshape(n_rows, width)


def vh_gram(family: GraphFamily, label_mode: str = "application", normalize: bool = False) -> GramMatrix:
    """Vertex histogram kernel: counts of identical node label sets."""
    colors, width = _label_colors(family, label_mode)
    x = _counts(_owners(family.node_offsets), colors, len(family), width)
    return _count_gram(x, family.graph_ids, 0, normalize)


def eh_gram(family: GraphFamily, normalize: bool = False) -> GramMatrix:
    """Edge histogram kernel: counts of edge labels, parallel edges included."""
    x = _counts(
        _owners(family.edge_offsets), family.edge_labels, len(family), len(EDGE_LABEL_ORDER)
    )
    return _count_gram(x, family.graph_ids, 0, normalize)


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
    _check_mode(label_mode)
    graphs = list(family)
    if label_mode == "generic":
        graphs = [g.strip_application_labels() for g in graphs]
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


def _refine(
    colors: np.ndarray, n_colors: int, family: GraphFamily, buckets
) -> tuple[np.ndarray, int]:
    """One WL iteration over the whole family: new colors and their count.

    ``buckets`` holds, per out-degree ``d``, the nodes of that degree and
    their ``d`` edge positions in ``src`` order.
    """
    # Successor colors, sorted within each source's run of edges.  The
    # (src, color) key is exact in int64: src < 2**31 and n_colors <= nodes.
    succ = colors[family.dst]
    succ = succ[np.argsort(family.src.astype(np.int64) * n_colors + succ, kind="stable")]
    out = np.empty(len(colors), np.intp)
    width = 0
    for nodes, slots in buckets:
        rows = np.column_stack((colors[nodes], succ[slots]))
        if len(nodes) == 1:
            out[nodes] = width
            width += 1
            continue
        order = np.lexsort(rows.T)
        ranked = rows[order]
        fresh = np.empty(len(nodes), bool)
        fresh[0] = True
        np.any(ranked[1:] != ranked[:-1], axis=1, out=fresh[1:])
        ranks = np.cumsum(fresh) - 1
        out[nodes[order]] = ranks + width
        width += int(ranks[-1]) + 1
    return out, width


def wl_gram(
    family: GraphFamily, h: int, label_mode: str = "application", normalize: bool = False
) -> GramMatrix:
    """WL subtree kernel: summed histogram dot products over iterations 0..h.

    The kernel depends only on each iteration's color partition, so colors
    are ranked per iteration and the per-iteration count matrices are set
    side by side for one exact dot product.
    """
    if h < 0:
        raise ValueError("h must be >= 0")
    colors, width = _label_colors(family, label_mode)
    owner = _owners(family.node_offsets)
    degree = np.bincount(family.src, minlength=len(colors))
    first = np.cumsum(degree) - degree  # each source's first edge position
    buckets = []
    for d in np.unique(degree).tolist():
        nodes = np.flatnonzero(degree == d)
        buckets.append((nodes, first[nodes, None] + np.arange(d)))
    blocks = [_counts(owner, colors, len(family), width)]
    for _ in range(h):
        colors, width = _refine(colors, width, family, buckets)
        blocks.append(_counts(owner, colors, len(family), width))
    return _count_gram(np.hstack(blocks), family.graph_ids, h, normalize)
