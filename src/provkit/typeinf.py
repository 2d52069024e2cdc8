"""Neighborhood type inference over provenance graphs.

A *label-walk* of length ``h`` from a node follows ``h`` directed edges and
records the sequence of edge labels plus the label set of the terminal node.
The *type at depth h* of a node summarizes all its length-``h`` label-walks
layer by layer: for ``i >= 1``, layer ``tau_i`` collects the edge labels seen
at distance ``h - i`` from the node, and ``tau_0`` is the union of terminal
label sets.  A node with no length-``h`` walks has the distinguished EMPTY
type at that depth.

``enumerate_label_walks`` materializes walk sets directly and serves as the
reference implementation; ``infer_types`` computes the same types for every
node and depth up to ``h`` with a dynamic program that runs in
``O(h^2 * |E|)`` set unions per graph and never materializes walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .model import GraphFamily, ProvGraph

#: Fixed bit position per edge label, shared across all inferences.
_EDGE_BIT = {lab: 1 << i for i, lab in enumerate(sorted({
    "der", "spe", "alt", "wib", "gen", "use", "wat", "waw", "abo", "wsb", "web", "wifb",
}))}


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


@dataclass(frozen=True)
class TypeAssignment:
    """Types for every node of a family at every depth ``0..h_max``.

    ``by_graph`` maps graph id to a mapping from node id to a tuple of
    ``h_max + 1`` types (EMPTY where the node has no walks of that length).
    """

    label_mode: str
    h_max: int
    graph_ids: tuple[str, ...]
    by_graph: dict[str, dict[str, tuple[PType, ...]]]

    def get(self, graph_id: str, node: str, depth: int) -> PType:
        if not 0 <= depth <= self.h_max:
            raise ValueError(f"depth {depth} outside inferred range 0..{self.h_max}")
        return self.by_graph[graph_id][node][depth]

    def nodes(self, graph_id: str) -> list[str]:
        return sorted(self.by_graph[graph_id])

    def iter_records(self) -> Iterator[dict]:
        """Dump records: one per (graph, node, depth), layers sorted."""
        for gid in self.graph_ids:
            per_node = self.by_graph[gid]
            for nid in sorted(per_node):
                for depth, t in enumerate(per_node[nid]):
                    yield {
                        "graph": gid,
                        "node": nid,
                        "depth": depth,
                        "type": t.to_jsonable(),
                    }


def infer_types(family: GraphFamily, h: int, label_mode: str = "application") -> TypeAssignment:
    """Infer the type of every node at every depth ``0..h``.

    In ``"generic"`` mode application labels are stripped before inference,
    so they cannot leak into ``tau_0`` layers.  Runs the layered dynamic
    program independently per graph; results do not depend on node or edge
    iteration order.
    """
    if h < 0:
        raise ValueError("h must be >= 0")
    if label_mode not in ("generic", "application"):
        raise ValueError(f"unknown label mode {label_mode!r}")

    node_bit: dict[str, int] = {}

    def node_mask(labels: frozenset[str]) -> int:
        mask = 0
        for lab in labels:
            bit = node_bit.get(lab)
            if bit is None:
                bit = 1 << len(node_bit)
                node_bit[lab] = bit
            mask |= bit
        return mask

    # Types interned across the family.  Node-label bits are assigned once
    # per family, so each distinct key decodes the same way in every graph.
    edge_names = sorted(_EDGE_BIT)
    ptype_cache: dict[tuple, PType] = {(): EMPTY}

    def intern(edge_layers: tuple[int, ...], tau0: int) -> PType:
        key = edge_layers + (-1, tau0)
        hit = ptype_cache.get(key)
        if hit is None:
            layers = tuple(
                frozenset(lab for lab in edge_names if _EDGE_BIT[lab] & m)
                for m in edge_layers
            )
            tau0_labels = frozenset(lab for lab, bit in node_bit.items() if bit & tau0)
            hit = PType(layers + (tau0_labels,))
            ptype_cache[key] = hit
        return hit

    by_graph: dict[str, dict[str, tuple[PType, ...]]] = {}
    for graph in family:
        g = graph.strip_application_labels() if label_mode == "generic" else graph
        ids = sorted(g.nodes)
        index = {nid: i for i, nid in enumerate(ids)}
        n = len(ids)
        masks = [node_mask(g.nodes[nid]) for nid in ids]
        # Edges as (source index, target index, label bit).
        edges = [(index[s], index[d], _EDGE_BIT[l]) for s, d, l in g.edges]

        per_node_types: list[list[PType]] = [[intern((), m)] for m in masks]
        # State at the previous depth: per node, None for EMPTY or
        # (edge label masks tau_{i-1}..tau_1, node label mask tau_0).
        prev: list[tuple[list[int], int] | None] = [([], m) for m in masks]
        for i in range(1, h + 1):
            acc_edges: list[list[int]] = [[0] * i for _ in range(n)]
            acc_tau0 = [0] * n
            reached = [False] * n
            for src, dst, bit in edges:
                p = prev[dst]
                if p is None:
                    continue
                reached[src] = True
                row = acc_edges[src]
                row[0] |= bit
                p_edges, p_tau0 = p
                for j in range(1, i):
                    row[j] |= p_edges[j - 1]
                acc_tau0[src] |= p_tau0
            cur: list[tuple[list[int], int] | None] = [None] * n
            for v in range(n):
                if reached[v]:
                    cur[v] = (acc_edges[v], acc_tau0[v])
                    per_node_types[v].append(intern(tuple(acc_edges[v]), acc_tau0[v]))
                else:
                    per_node_types[v].append(EMPTY)
            prev = cur
        by_graph[g.graph_id] = {nid: tuple(per_node_types[index[nid]]) for nid in ids}

    return TypeAssignment(
        label_mode=label_mode,
        h_max=h,
        graph_ids=tuple(g.graph_id for g in family),
        by_graph=by_graph,
    )


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
    """Serialize an assignment as JSON lines (one record per node and depth)."""
    import json

    return "\n".join(
        json.dumps(rec, sort_keys=True, separators=(",", ":"))
        for rec in assignment.iter_records()
    ) + "\n"
