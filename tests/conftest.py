"""Shared helpers: seeded random graph generation for property tests, the
generic-mode view of a graph, the walk oracle over every depth, and reads of
a family's labels and edge kinds."""

from __future__ import annotations

import random

from provkit.model import EDGE_KINDS, EDGE_LABEL_ORDER, GENERIC_LABELS, GraphFamily, ProvGraph
from provkit.typeinf import LabelWalk, PType, type_from_walks

GENERIC = ["ent", "act", "ag"]
APP_LABELS = ["app:A", "app:B", "app:C", "app:D"]


def random_graph(
    rng: random.Random,
    graph_id: str = "g",
    max_nodes: int = 25,
    max_edges: int = 60,
    app_label_prob: float = 0.4,
) -> ProvGraph:
    """A random labeled directed multigraph (self-loops and duplicates allowed)."""
    n = rng.randint(1, max_nodes)
    ids = [f"n{i}" for i in range(n)]
    nodes = {}
    for nid in ids:
        labels = {rng.choice(GENERIC)}
        while rng.random() < app_label_prob:
            labels.add(rng.choice(APP_LABELS))
        nodes[nid] = frozenset(labels)
    m = rng.randint(0, max_edges)
    edges = tuple(
        (rng.choice(ids), rng.choice(ids), rng.choice(EDGE_LABEL_ORDER)) for _ in range(m)
    )
    return ProvGraph(graph_id, nodes, edges)


def random_family(rng: random.Random, count: int, **kwargs) -> GraphFamily:
    return GraphFamily(tuple(random_graph(rng, f"g{i}", **kwargs) for i in range(count)))


def generic_graph(graph: ProvGraph) -> ProvGraph:
    """``graph`` as generic mode sees it, through
    ``GraphFamily.label_sets_in("generic")``: each node keeps only its
    generic labels.  A node left without one is a ``ValueError``."""
    family = GraphFamily((graph,))
    sets, node_sets = family.label_sets_in("generic")
    nodes = dict(zip(family.node_ids, map(sets.__getitem__, node_sets.tolist())))
    return ProvGraph(graph.graph_id, nodes, graph.edges)


def application_labels(family: GraphFamily) -> frozenset[str]:
    """Every node label in ``family`` that is not a generic label."""
    return frozenset().union(*family.label_sets) - GENERIC_LABELS


def kind_mismatches(family: GraphFamily) -> list[tuple[str, str, str]]:
    """The ``(source, destination, label)`` edges of ``family`` whose source
    or destination lacks the node kind that ``EDGE_KINDS`` gives the label."""
    sets = [family.label_sets[k] for k in family.node_sets.tolist()]
    out = []
    for s, d, code in zip(family.src.tolist(), family.dst.tolist(), family.edge_labels.tolist()):
        lab = EDGE_LABEL_ORDER[code]
        want_src, want_dst = EDGE_KINDS[lab]
        if want_src not in sets[s] or want_dst not in sets[d]:
            out.append((family.node_ids[s], family.node_ids[d], lab))
    return out


def walk_oracle_types(graph: ProvGraph, h: int) -> dict[str, tuple[PType, ...]]:
    """Each node's types at depths ``0..h``, folded from its enumerated
    label-walks.

    The same brute force as ``enumerate_label_walks``, with one adjacency
    and one memo of walk sets shared by every node and depth instead of one
    per call.
    """
    adj: dict[str, list[tuple[str, str]]] = {nid: [] for nid in graph.nodes}
    for src, dst, lab in graph.edges:
        adj[src].append((dst, lab))
    memo: dict[tuple[str, int], frozenset[LabelWalk]] = {}

    def walks(v: str, k: int) -> frozenset[LabelWalk]:
        if (v, k) not in memo:
            memo[v, k] = frozenset([LabelWalk((), graph.nodes[v])]) if k == 0 else frozenset(
                LabelWalk((lab,) + w.edge_labels, w.terminal_labels)
                for dst, lab in adj[v]
                for w in walks(dst, k - 1)
            )
        return memo[v, k]

    return {
        nid: tuple(type_from_walks(walks(nid, d), d) for d in range(h + 1))
        for nid in graph.nodes
    }
