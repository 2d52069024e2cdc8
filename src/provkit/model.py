"""Labeled directed multigraph model for W3C PROV provenance documents.

A provenance graph is a finite directed multigraph whose nodes carry one or
more labels and whose edges carry exactly one label drawn from the fixed
relation vocabulary below.  Node labels split into *generic* labels (the
three PROV node kinds) and *application* labels (opaque namespaced strings
such as ``"mimic:Patient"`` contributed by ``prov:type`` attributes).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

#: Generic node labels: entity, activity, agent.
GENERIC_LABELS = frozenset({"ent", "act", "ag"})

#: Edge label -> (expected source kind, expected destination kind).
#: Directions follow the PROV relation names, e.g. ``wasGeneratedBy`` points
#: from the generated entity to the generating activity.
EDGE_KINDS: dict[str, tuple[str, str]] = {
    "der": ("ent", "ent"),   # wasDerivedFrom
    "spe": ("ent", "ent"),   # specializationOf
    "alt": ("ent", "ent"),   # alternateOf
    "wib": ("ent", "act"),   # wasInvalidatedBy
    "gen": ("ent", "act"),   # wasGeneratedBy
    "use": ("act", "ent"),   # used
    "wat": ("ent", "ag"),    # wasAttributedTo
    "waw": ("act", "ag"),    # wasAssociatedWith
    "abo": ("ag", "ag"),     # actedOnBehalfOf
    "wsb": ("act", "ent"),   # wasStartedBy
    "web": ("act", "ent"),   # wasEndedBy
    "wifb": ("act", "act"),  # wasInformedBy
}

EDGE_LABELS = frozenset(EDGE_KINDS)


def generic_part(labels: frozenset[str]) -> frozenset[str]:
    """The generic subset of a node's label set."""
    return labels & GENERIC_LABELS


def application_part(labels: frozenset[str]) -> frozenset[str]:
    """The application subset of a node's label set."""
    return labels - GENERIC_LABELS


@dataclass(frozen=True, eq=True)
class ProvGraph:
    """An immutable labeled directed multigraph.

    ``nodes`` maps node id to its label set; ``edges`` holds
    ``(source, destination, label)`` triples.  Parallel edges, duplicate
    triples and cycles are all permitted.  Construction canonicalizes the
    representation (label sets frozen, edges sorted) so that equal graphs
    compare equal regardless of insertion order.
    """

    graph_id: str
    nodes: dict[str, frozenset[str]]
    edges: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        nodes = {str(k): frozenset(str(x) for x in v) for k, v in self.nodes.items()}
        edges = tuple(sorted((str(s), str(d), str(l)) for s, d, l in self.edges))
        for nid, labels in nodes.items():
            if not labels:
                raise ValueError(f"node {nid!r} has an empty label set")
            if any(not lab for lab in labels):
                raise ValueError(f"node {nid!r} carries an empty label")
        for src, dst, lab in edges:
            if lab not in EDGE_LABELS:
                raise ValueError(f"unknown edge label {lab!r} on ({src!r}, {dst!r})")
            if src not in nodes:
                raise ValueError(f"edge references undeclared source node {src!r}")
            if dst not in nodes:
                raise ValueError(f"edge references undeclared destination node {dst!r}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def strip_application_labels(self) -> "ProvGraph":
        """A copy of the graph keeping only generic node labels.

        Raises ``ValueError`` if some node would end up with no label at all,
        since every node of a well-formed graph carries at least one.
        """
        stripped = {}
        for nid, labels in self.nodes.items():
            gen = generic_part(labels)
            if not gen:
                raise ValueError(
                    f"node {nid!r} has no generic label; cannot strip to generic mode"
                )
            stripped[nid] = gen
        return ProvGraph(self.graph_id, stripped, self.edges)


@dataclass(frozen=True, eq=True)
class GraphFamily:
    """An ordered collection of graphs sharing label universes."""

    graphs: tuple[ProvGraph, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "graphs", tuple(self.graphs))
        seen: set[str] = set()
        for g in self.graphs:
            if g.graph_id in seen:
                raise ValueError(f"duplicate graph id {g.graph_id!r} in family")
            seen.add(g.graph_id)

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)

    def graph(self, graph_id: str) -> ProvGraph:
        for g in self.graphs:
            if g.graph_id == graph_id:
                return g
        raise KeyError(graph_id)

    @property
    def node_label_universe(self) -> frozenset[str]:
        out: set[str] = set()
        for g in self.graphs:
            for labels in g.nodes.values():
                out |= labels
        return frozenset(out)

    @property
    def edge_label_universe(self) -> frozenset[str]:
        return frozenset(lab for g in self.graphs for _, _, lab in g.edges)

    @property
    def application_label_universe(self) -> frozenset[str]:
        return self.node_label_universe - GENERIC_LABELS


@dataclass(frozen=True, eq=True)
class Dataset:
    """A graph family plus one class label per graph and free-form metadata."""

    family: GraphFamily
    class_labels: dict[str, str]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = {g.graph_id for g in self.family}
        missing = ids - set(self.class_labels)
        extra = set(self.class_labels) - ids
        if missing:
            raise ValueError(f"graphs without class label: {sorted(missing)[:5]}")
        if extra:
            raise ValueError(f"class labels for unknown graphs: {sorted(extra)[:5]}")

    def __len__(self) -> int:
        return len(self.family)

    def labels_in_family_order(self) -> list[str]:
        return [self.class_labels[g.graph_id] for g in self.family]


def validate_labels(graph: ProvGraph) -> list[str]:
    """Advisory conformance check of edges against the PROV relation table.

    Returns one human-readable advisory string per edge whose endpoint kinds
    do not include the kinds expected for its label.  The check never
    rejects: callers decide what to do with the advisories.
    """
    advisories = []
    for src, dst, lab in graph.edges:
        want_src, want_dst = EDGE_KINDS[lab]
        if want_src not in graph.nodes[src]:
            advisories.append(
                f"edge ({src}, {dst}, {lab}): source lacks expected kind {want_src!r}"
            )
        if want_dst not in graph.nodes[dst]:
            advisories.append(
                f"edge ({src}, {dst}, {lab}): destination lacks expected kind {want_dst!r}"
            )
    return advisories


def dependency_subgraph(graph: ProvGraph, node: str) -> ProvGraph:
    """The induced subgraph of everything that can reach ``node``.

    Keeps ``node`` itself plus every node with a directed walk to it, along
    with all edges among the kept nodes.
    """
    if node not in graph.nodes:
        raise KeyError(f"unknown node {node!r}")
    preds: dict[str, list[str]] = {}
    for src, dst, _ in graph.edges:
        preds.setdefault(dst, []).append(src)
    keep = {node}
    queue = deque([node])
    while queue:
        cur = queue.popleft()
        for p in preds.get(cur, ()):
            if p not in keep:
                keep.add(p)
                queue.append(p)
    nodes = {nid: graph.nodes[nid] for nid in keep}
    edges = [e for e in graph.edges if e[0] in keep and e[1] in keep]
    return ProvGraph(graph.graph_id, nodes, tuple(edges))


@dataclass(frozen=True)
class GraphSummary:
    n_nodes: int
    n_edges: int
    node_labels: dict[str, int]
    edge_labels: dict[str, int]


def graph_summary(graph: ProvGraph) -> GraphSummary:
    """Node/edge counts plus per-label frequency histograms."""
    node_hist: Counter[str] = Counter()
    for labels in graph.nodes.values():
        node_hist.update(labels)
    edge_hist = Counter(lab for _, _, lab in graph.edges)
    return GraphSummary(graph.n_nodes, graph.n_edges, dict(node_hist), dict(edge_hist))
