"""Neighborhood type inference over provenance graphs.

A *label-walk* of length ``h`` from a node follows ``h`` directed edges and
records the sequence of edge labels plus the label set of the terminal node.
The *type at depth h* of a node summarizes all its length-``h`` label-walks
layer by layer: for ``i >= 1``, layer ``tau_i`` collects the edge labels seen
at distance ``h - i`` from the node, and ``tau_0`` is the union of terminal
label sets.  A node with no length-``h`` walks has the distinguished EMPTY
type at that depth.

``enumerate_label_walks`` materializes walk sets directly and serves as the
reference implementation.  ``infer_types`` computes the same types for every
node and depth up to ``h`` with one dynamic program over the disjoint union of
the whole family: walks never leave their graph, so the union's types are
exactly the per-graph types.  It reads the family's columns directly: the
label-set id per node and the source-sorted edge arrays.  Each depth ORs the
successors' bitmask rows over the edges grouped by source with
``numpy.bitwise_or.reduceat``, ``O(h^2 * |E|)`` array work in total, and
walks are never materialized.  The result is columnar too: one type code per
union node and depth, indexing the depth's distinct types.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .model import EDGE_LABEL_ORDER, GraphFamily, ProvGraph

#: Bit per edge label: its family edge-label code's position.
_EDGE_BIT = {lab: 1 << i for i, lab in enumerate(EDGE_LABEL_ORDER)}

#: Node-label bits per int64 word of a ``tau_0`` mask (the sign bit stays clear).
_WORD_BITS = 63


@dataclass(frozen=True, eq=True)
class PType:
    """A provenance type: layers ``(tau_h, ..., tau_1, tau_0)``.

    Layers ``tau_h .. tau_1`` hold edge labels, ``tau_0`` holds node labels.
    The EMPTY type is represented by zero layers and is exposed as the module
    constant :data:`EMPTY`.
    """

    layers: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(frozenset(l) for l in self.layers))
        if any(not layer for layer in self.layers):
            raise ValueError("PType layers must be nonempty")

    @property
    def is_empty(self) -> bool:
        return not self.layers

    @property
    def depth(self) -> int:
        if self.is_empty:
            raise ValueError("EMPTY type has no depth")
        return len(self.layers) - 1

    def key(self) -> tuple[tuple[str, ...], ...]:
        """Canonical sort key: layers with labels sorted lexicographically."""
        return tuple(tuple(sorted(layer)) for layer in self.layers)

    def to_jsonable(self) -> list[list[str]] | None:
        if self.is_empty:
            return None
        return [sorted(layer) for layer in self.layers]

    @classmethod
    def from_jsonable(cls, data: list[list[str]] | None) -> "PType":
        if data is None:
            return EMPTY
        return cls(tuple(frozenset(layer) for layer in data))

    def __repr__(self) -> str:
        if self.is_empty:
            return "EMPTY"
        body = ", ".join("{" + ",".join(sorted(l)) + "}" for l in self.layers)
        return f"PType({body})"


EMPTY = PType(())


@dataclass(frozen=True, eq=True)
class LabelWalk:
    """The label sequence of one walk plus the terminal node's label set."""

    edge_labels: tuple[str, ...]
    terminal_labels: frozenset[str]

    def __len__(self) -> int:
        return len(self.edge_labels)


def enumerate_label_walks(graph: ProvGraph, node: str, h: int) -> frozenset[LabelWalk]:
    """All distinct label-walks of length exactly ``h`` starting at ``node``.

    Direct enumeration by memoized recursion; exponential in the worst case
    and intended as the reference oracle for :func:`infer_types`.
    """
    if node not in graph.nodes:
        raise KeyError(f"unknown node {node!r}")
    if h < 0:
        raise ValueError("walk length must be >= 0")
    adj: dict[str, list[tuple[str, str]]] = {nid: [] for nid in graph.nodes}
    for src, dst, lab in graph.edges:
        adj[src].append((dst, lab))
    memo: dict[tuple[str, int], frozenset[LabelWalk]] = {}

    def walks(v: str, k: int) -> frozenset[LabelWalk]:
        if k == 0:
            return frozenset([LabelWalk((), graph.nodes[v])])
        hit = memo.get((v, k))
        if hit is not None:
            return hit
        out = frozenset(
            LabelWalk((lab,) + w.edge_labels, w.terminal_labels)
            for dst, lab in adj[v]
            for w in walks(dst, k - 1)
        )
        memo[(v, k)] = out
        return out

    return walks(node, h)


def type_from_walks(walks: Iterable[LabelWalk], h: int) -> PType:
    """Fold a set of length-``h`` label-walks into the depth-``h`` type."""
    walks = list(walks)
    if not walks:
        return EMPTY
    for w in walks:
        if len(w) != h:
            raise ValueError(f"walk of length {len(w)} in a depth-{h} fold")
    layers: list[frozenset[str]] = []
    for pos in range(h):
        layers.append(frozenset(w.edge_labels[pos] for w in walks))
    terminal: set[str] = set()
    for w in walks:
        terminal |= w.terminal_labels
    layers.append(frozenset(terminal))
    return PType(tuple(layers))


@dataclass(frozen=True, eq=False)
class TypeAssignment:
    """Types for every node of a family at every depth ``0..h_max``, as columns.

    Nodes are the family's union nodes (see :class:`GraphFamily`).
    ``types[d]`` holds the distinct non-EMPTY depth-``d`` types in canonical
    ``PType.key`` order, and ``codes[d][v]`` indexes it, with -1 for EMPTY.
    """

    label_mode: str
    h_max: int
    family: GraphFamily
    types: tuple[tuple[PType, ...], ...]
    codes: tuple[np.ndarray, ...]

    @property
    def graph_ids(self) -> tuple[str, ...]:
        return self.family.graph_ids

    @cached_property
    def _spans(self) -> dict[str, tuple[int, int]]:
        """Graph id -> the union index range of its nodes."""
        at = self.family.node_offsets.tolist()
        return {gid: (at[row], at[row + 1]) for row, gid in enumerate(self.graph_ids)}

    def get(self, graph_id: str, node: str, depth: int) -> PType:
        if not 0 <= depth <= self.h_max:
            raise ValueError(f"depth {depth} outside inferred range 0..{self.h_max}")
        lo, hi = self._spans[graph_id]
        ids = self.family.node_ids
        v = bisect_left(ids, node, lo, hi)
        if v == hi or ids[v] != node:
            raise KeyError(node)
        code = int(self.codes[depth][v])
        return self.types[depth][code] if code >= 0 else EMPTY

    def nodes(self, graph_id: str) -> list[str]:
        lo, hi = self._spans[graph_id]
        return list(self.family.node_ids[lo:hi])

    def node_at(self, v: int) -> tuple[str, str]:
        """The (graph id, node id) pair of union node ``v``."""
        return self.graph_ids[int(self.family.graph_of[v])], self.family.node_ids[v]

    @cached_property
    def by_graph(self) -> dict[str, dict[str, tuple[PType, ...]]]:
        """Graph id -> node id -> the ``h_max + 1`` types of that node.

        Built on first access, for callers that want per-node tuples; the
        pipeline itself reads the columns.
        """
        # Appending EMPTY to each level lets code -1 index it directly.
        tables = [(*level, EMPTY) for level in self.types]
        per_node = zip(*(
            [table[c] for c in codes.tolist()] for table, codes in zip(tables, self.codes)
        ))
        return {
            gid: dict(zip(self.family.node_ids[lo:hi], islice(per_node, hi - lo)))
            for gid, (lo, hi) in self._spans.items()
        }

    def iter_records(self) -> Iterator[dict]:
        """Dump records: one per (graph, node, depth), layers sorted."""
        for gid, per_node in self.by_graph.items():
            for nid, types in per_node.items():
                for depth, t in enumerate(types):
                    yield {
                        "graph": gid,
                        "node": nid,
                        "depth": depth,
                        "type": t.to_jsonable(),
                    }


def _classify(rows: np.ndarray, decode) -> tuple[tuple[PType, ...], np.ndarray]:
    """Distinct rows of ``rows`` as canonical types, plus each row's type code."""
    if not len(rows):
        return (), np.empty(0, dtype=np.intc)
    order = np.lexsort(rows.T)
    # A sorted row starts a new type where any column differs from the row
    # before; compared column by column to keep the temporaries one wide.
    first = np.zeros(len(rows), dtype=bool)
    first[0] = True
    for column in rows.T:
        ranked = column[order]
        first[1:] |= ranked[1:] != ranked[:-1]
    found = [decode(r) for r in rows[order[first]].tolist()]
    canon = sorted(range(len(found)), key=lambda j: found[j].key())
    code_of = np.empty(len(found), dtype=np.intc)
    code_of[canon] = np.arange(len(found))
    codes = np.empty(len(rows), dtype=np.intc)
    codes[order] = code_of[np.cumsum(first) - 1]
    return tuple(found[j] for j in canon), codes


def infer_types(family: GraphFamily, h: int, label_mode: str = "application") -> TypeAssignment:
    """Infer the type of every node at every depth ``0..h``.

    In ``"generic"`` mode only generic node labels enter ``tau_0``, so
    application labels cannot leak into types; the labels come from
    :meth:`GraphFamily.label_sets_in`, which rejects an unknown mode and a
    node without a generic label.
    The layered dynamic program runs over the family's columns, all graphs
    together; results do not depend on node or edge insertion order.
    """
    if h < 0:
        raise ValueError("h must be >= 0")
    label_sets, label_codes = family.label_sets_in(label_mode)
    names = sorted(frozenset().union(*label_sets))
    width = max(1, -(-len(names) // _WORD_BITS))
    bit_of = {lab: (k // _WORD_BITS, 1 << (k % _WORD_BITS)) for k, lab in enumerate(names)}
    set_words = np.zeros((len(label_sets), width), dtype=np.int64)
    for row, labels in enumerate(label_sets):
        words = [0] * width
        for lab in labels:
            word, bit = bit_of[lab]
            words[word] |= bit
        set_words[row] = words

    def decode(row: list[int]) -> PType:
        i = len(row) - width
        layers = [frozenset(lab for lab, b in _EDGE_BIT.items() if b & m) for m in row[:i]]
        tau0 = frozenset(lab for lab, (word, bit) in bit_of.items() if row[i + word] & bit)
        return PType((*layers, tau0))

    # Depth 0: a node's type is its label set's.
    level, local = _classify(set_words, decode)
    types, codes = [level], [local[label_codes]]

    # Depth-i state, one row per node in `live` (those with length-i walks;
    # every node at depth 0): columns tau_i .. tau_1 (edge-label masks),
    # then the tau_0 words.  `into[e]` is the state row of edge e's target.
    state = set_words[label_codes]
    # The family keeps its edges sorted by source.
    e_src, e_dst = family.src, family.dst
    e_bit = np.left_shift(1, family.edge_labels, dtype=np.short)
    into = e_dst
    pos = np.empty(len(label_codes), dtype=np.intc)
    for i in range(1, h + 1):
        first_out = np.ones(len(e_src), dtype=bool)
        np.not_equal(e_src[1:], e_src[:-1], out=first_out[1:])
        heads = np.flatnonzero(first_out)
        # Column by column, so the per-edge gather is one column wide.
        grown = np.empty((len(heads), i + width), dtype=np.int64)
        grown[:, 0] = np.bitwise_or.reduceat(e_bit, heads)
        for j in range(i - 1 + width):
            grown[:, j + 1] = np.bitwise_or.reduceat(state[into, j], heads)
        state, live = grown, e_src[heads]
        level, local = _classify(state, decode)
        code = np.full(len(label_codes), -1, dtype=np.intc)
        code[live] = local
        types.append(level)
        codes.append(code)
        if i < h:
            # Only edges into a node with length-i walks extend them.
            # One array at a time, so at most one old copy is alive.
            pos.fill(-1)
            pos[live] = np.arange(len(live))
            into = pos[e_dst]
            keep = into >= 0
            into = into[keep]
            e_src = e_src[keep]
            e_dst = e_dst[keep]
            e_bit = e_bit[keep]

    return TypeAssignment(label_mode, h, family, tuple(types), tuple(codes))


def is_extension(deep: PType, shallow: PType) -> bool:
    """Whether ``deep`` refines ``shallow``: lower layers coincide exactly.

    Requires ``deep.depth > shallow.depth`` and neither argument EMPTY.
    """
    if deep.is_empty or shallow.is_empty:
        raise ValueError("EMPTY types cannot take part in extension checks")
    if deep.depth <= shallow.depth:
        raise ValueError(
            f"extension requires a strictly deeper first argument "
            f"(got {deep.depth} vs {shallow.depth})"
        )
    for i in range(shallow.depth + 1):
        if deep.layers[-(i + 1)] != shallow.layers[-(i + 1)]:
            return False
    return True


def dump_types(assignment: TypeAssignment) -> str:
    """Serialize an assignment as JSON lines (one record per node and depth).

    Each line equals ``json.dumps(record, sort_keys=True, separators=(",", ":"))``
    of the matching :meth:`TypeAssignment.iter_records` record; every distinct
    type and id is encoded once.
    """
    compact = (",", ":")
    tables = [
        [json.dumps(t.to_jsonable(), separators=compact) for t in level] + ["null"]
        for level in assignment.types
    ]
    heads = [f'{{"depth":{d},"graph":' for d in range(assignment.h_max + 1)]
    codes = [c.tolist() for c in assignment.codes]
    node_ids = assignment.family.node_ids
    lines = []
    for gid, (lo, hi) in assignment._spans.items():
        graph = json.dumps(gid)
        for v in range(lo, hi):
            mid = f'{graph},"node":{json.dumps(node_ids[v])},"type":'
            for head, table, code in zip(heads, tables, codes):
                lines.append(f"{head}{mid}{table[code[v]]}}}\n")
    return "".join(lines)
