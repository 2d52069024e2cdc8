"""Baseline graph kernels: label histograms and Weisfeiler-Lehman subtrees.

All three operate on node/edge labels only and read the family's columns.
The WL variant refines colors along forward (outgoing) neighborhoods,
matching the directed walk semantics of the typed kernel.  Each iteration
relabels the whole family at once (Shervashidze et al., JMLR 2011): a
node's new color is the rank of its row ``[previous color, sorted successor
colors]`` among the rows of the nodes of equal out-degree, so refinement is
exact for any degree and needs no hashing.  Gram matrices are exact integer
dot products of per-graph color counts, summed over iterations ``0..h``,
and share the typed kernel's counting, overflow refusal and
normalization.
``wl_colorings`` keeps the per-node dictionary refinement as an independent
oracle.
"""

from __future__ import annotations

import numpy as np

from .kernel import GramMatrix, _count_gram, _counts
from .model import EDGE_LABEL_ORDER, GraphFamily


def vh_gram(family: GraphFamily, label_mode: str = "application", normalize: bool = False) -> GramMatrix:
    """Vertex histogram kernel: counts of identical node label sets."""
    label_sets, colors = family.label_sets_in(label_mode)
    x = _counts(family.graph_of, colors, len(family), len(label_sets))
    return _count_gram(x, family.graph_ids, normalize)


def eh_gram(family: GraphFamily, normalize: bool = False) -> GramMatrix:
    """Edge histogram kernel: counts of edge labels, parallel edges included."""
    # An edge belongs to its source's graph.
    owner = family.graph_of[family.src]
    x = _counts(owner, family.edge_labels, len(family), len(EDGE_LABEL_ORDER))
    return _count_gram(x, family.graph_ids, normalize)


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
    _, set_of = family.label_sets_in(label_mode)
    graphs = list(family)
    table: dict = {}

    def compress(key) -> int:
        hit = table.get(key)
        if hit is None:
            hit = len(table)
            table[key] = hit
        return hit

    adjacency = {}
    colors: dict[str, dict[str, int]] = {}
    at = family.node_offsets.tolist()
    for row, g in enumerate(graphs):
        adj: dict[str, list[str]] = {nid: [] for nid in g.nodes}
        for src, dst, _ in g.edges:
            adj[src].append(dst)
        adjacency[g.graph_id] = adj
        lo, hi = at[row], at[row + 1]
        colors[g.graph_id] = {
            nid: compress(("init", s))
            for nid, s in zip(family.node_ids[lo:hi], set_of[lo:hi].tolist())
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
    label_sets, colors = family.label_sets_in(label_mode)
    width = len(label_sets)
    owner = family.graph_of
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
    return _count_gram(np.hstack(blocks), family.graph_ids, normalize)
