"""Labeled directed multigraph model for W3C PROV provenance documents.

A provenance graph is a finite directed multigraph whose nodes carry one or
more labels and whose edges carry exactly one label drawn from the fixed
relation vocabulary below.  Node labels split into *generic* labels (the
three PROV node kinds) and *application* labels (opaque namespaced strings
such as ``"mimic:Patient"`` contributed by ``prov:type`` attributes).
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

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

#: Edge labels in sorted order; a family's edge-label codes index this tuple.
EDGE_LABEL_ORDER: tuple[str, ...] = tuple(sorted(EDGE_KINDS))
_EDGE_CODE = {lab: code for code, lab in enumerate(EDGE_LABEL_ORDER)}
#: The containers a node's labels may come in; a string would split into letters.
_LABEL_SET_TYPES = frozenset({list, tuple, set, frozenset})


class DataFormatError(ValueError):
    """Malformed input data: bad JSON, missing fields, broken references."""


def read_json(path: str | Path):
    """The JSON value in the file at ``path``; a missing file or bad JSON is a DataFormatError."""
    p = Path(path)
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataFormatError(f"no such file: {p}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{p}: not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{p}: not valid JSON: {exc}") from exc


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Run the body with cyclic garbage collection off, then restore the
    caller's setting.

    For ingest, which decodes and builds without making reference cycles:
    reference counting frees everything it drops, and the collections that
    its many new containers would trigger only walk live data.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True, eq=True)
class ProvGraph:
    """An immutable labeled directed multigraph.

    ``nodes`` maps node id to its label set; ``edges`` holds
    ``(source, destination, label)`` triples.  Parallel edges, duplicate
    triples and cycles are all permitted.  Construction canonicalizes the
    representation (label sets frozen, edges sorted) so that equal graphs
    compare equal regardless of insertion order.  The family build checks
    the graph, as it checks every loader's: ids, labels and edge ends must be
    strings and are never coerced, so ``1`` and ``"1"`` never merge into one
    node; each label set is a list, tuple, set or frozenset, never a bare
    string; and a fault is a :class:`DataFormatError` naming the graph.
    """

    graph_id: str
    nodes: dict[str, frozenset[str]]
    edges: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        edges = list(self.edges)
        GraphFamily.from_records([(self.graph_id, self.nodes.items(), edges)])
        object.__setattr__(self, "nodes", {nid: frozenset(labs) for nid, labs in self.nodes.items()})
        object.__setattr__(self, "edges", tuple(sorted(map(tuple, edges))))

    @classmethod
    def _canonical(cls, graph_id: str, nodes: dict[str, frozenset[str]],
                   edges: tuple[tuple[str, str, str], ...]) -> "ProvGraph":
        """A graph from fields that are already valid and canonical: string
        ids, frozen label sets and sorted edges.  Skips ``__post_init__``."""
        graph = object.__new__(cls)
        for name, value in (("graph_id", graph_id), ("nodes", nodes), ("edges", edges)):
            object.__setattr__(graph, name, value)
        return graph

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, eq=False, init=False)
class GraphFamily:
    """An ordered collection of graphs sharing label universes, held as columns.

    Nodes are numbered over the disjoint union of the family: graph by graph
    in ``graph_ids`` order and, within a graph, in sorted id order.  Graph
    ``i`` owns nodes ``node_offsets[i]:node_offsets[i + 1]`` and edges
    ``edge_offsets[i]:edge_offsets[i + 1]``, int64 offsets.  ``node_sets[v]``
    indexes ``label_sets``, the distinct node label sets, numbered in order of
    first appearance among the nodes.  Edges carry int32 union indices
    ``src``/``dst`` and an int8 code into :data:`EDGE_LABEL_ORDER`, sorted
    by ``(src, dst, label)`` codes, which is ``ProvGraph``'s order.  The
    arrays are frozen.  :meth:`from_records` validates graphs from any
    source; :meth:`_from_columns`, which it ends in, trusts columns that are
    already valid and is the one place that sets this invariant up.
    ``graphs`` builds per-graph :class:`ProvGraph` views on first use.
    """

    graph_ids: tuple[str, ...]
    node_offsets: np.ndarray
    node_ids: tuple[str, ...]
    node_sets: np.ndarray
    label_sets: tuple[frozenset[str], ...]
    edge_offsets: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    edge_labels: np.ndarray

    def __init__(self, graphs: Iterable[ProvGraph]) -> None:
        family = self.from_records((g.graph_id, g.nodes.items(), g.edges) for g in graphs)
        vars(self).update(vars(family))  # the validated family's columns become this one's

    @classmethod
    def from_records(cls, records: Iterable[tuple[str, Iterable, Iterable]]) -> "GraphFamily":
        """A family from ``(graph id, (node id, labels) pairs, edge triples)``
        records: the one check of a graph from any source, :class:`ProvGraph`
        included.  Raises :class:`DataFormatError` naming the graph."""
        graph_ids: list[str] = []
        node_ids: list[str] = []
        label_table: list[frozenset[str]] = []
        node_counts: list[int] = []
        edge_counts: list[int] = []
        # Per-graph column parts, each seeded so that concatenation never sees none.
        parts = [[np.empty(0, t)] for t in (np.intc, np.int32, np.int32, np.int8)]
        node_codes, src, dst, codes = parts
        fast: dict[tuple, int] = {}  # a label listing -> its entry in label_table
        seen: set[str] = set()
        for gid, node_items, edges in records:
            fault = f"graph {gid!r}: "
            if not isinstance(gid, str):  # before the set lookup, which an unhashable id breaks
                raise DataFormatError(f"{fault}graph and node ids must be strings")
            if gid in seen:
                raise DataFormatError(f"{fault}duplicate graph id")
            seen.add(gid)
            try:  # ids of mixed types already fail the sort
                items = sorted(node_items, key=itemgetter(0))
                ids = list(map(itemgetter(0), items))
                # An exact-type pass; the isinstance scan only runs for str subclasses.
                if not set(map(type, ids)) <= {str} and not all(isinstance(nid, str) for nid in ids):
                    raise TypeError
            except TypeError:
                raise DataFormatError(f"{fault}graph and node ids must be strings") from None
            base = len(node_ids)
            node_ids += ids
            index = dict(zip(ids, range(base, len(node_ids))))
            if len(index) < len(ids):
                dup = next(a for a, b in zip(ids, ids[1:]) if a == b)
                raise DataFormatError(f"{fault}duplicate node id {dup!r}")
            # One type pass over the graph's label sets, exact types only.
            if not set(map(type, map(itemgetter(1), items))) <= _LABEL_SET_TYPES:
                nid = next(nid for nid, labels in items if type(labels) not in _LABEL_SET_TYPES)
                raise DataFormatError(f"{fault}node {nid!r} needs a list, tuple or set of labels")
            keys = list(map(tuple, map(itemgetter(1), items)))
            try:
                fresh = [key for key in dict.fromkeys(keys) if key not in fast]
            except TypeError:  # an unhashable label
                raise DataFormatError(f"{fault}node labels must be strings") from None
            for key in fresh:
                # Each listing is validated once; one set listed in two
                # orders merges in the column build.
                if bad := _label_fault(items[keys.index(key)][0], frozenset(key)):
                    raise DataFormatError(fault + bad)
                fast[key] = len(label_table)
                label_table.append(frozenset(key))
            node_codes.append(np.fromiter(map(fast.__getitem__, keys), np.intc, len(keys)))
            try:
                if not set(map(len, edges)) <= {3}:
                    raise ValueError
                for column, table, part in ((2, _EDGE_CODE, codes), (0, index, src), (1, index, dst)):
                    got = map(table.__getitem__, map(itemgetter(column), edges))
                    part.append(np.fromiter(got, part[0].dtype, len(edges)))
            except (KeyError, TypeError, ValueError):
                raise DataFormatError(f"{fault}{_edge_fault(edges, index)}") from None
            graph_ids.append(gid)
            node_counts.append(len(ids))
            edge_counts.append(len(edges))
        node_codes, src, dst, codes = map(np.concatenate, parts)
        return cls._from_columns(graph_ids, node_ids, node_counts, node_codes, label_table,
                                 edge_counts, src, dst, codes)

    @classmethod
    def _from_columns(cls, graph_ids, node_ids, node_counts, node_codes, label_table,
                      edge_counts, src, dst, edge_codes) -> "GraphFamily":
        """The family of columns that are already valid, trusted as they
        come: the one place that sets the column invariant up.

        ``node_ids`` lists each graph's nodes in sorted id order, and
        ``node_counts``/``edge_counts`` hold one count per graph.
        ``node_codes`` index ``label_table``, which may repeat or leave out
        sets.  Edges are int32 union node indices and int8 label codes, in
        any order.
        """
        n = len(node_ids)
        # Exact while (nodes ** 2) * 16 < 2**63, far more nodes than fit in memory.
        key = (src.astype(np.int64) * n + dst) * 16 + edge_codes
        if (key[1:] < key[:-1]).any():  # gathered rows come sorted and stay put
            by_edge = np.argsort(key, kind="stable")
            src, dst, edge_codes = src[by_edge], dst[by_edge], edge_codes[by_edge]
        del key
        first = np.full(len(label_table), n)  # each entry's first node; n if no node has it
        np.minimum.at(first, node_codes, np.arange(n))
        distinct: dict[frozenset[str], int] = {}  # the used sets, by first appearance
        renumber = np.zeros(len(label_table), np.intc)
        for i in np.argsort(first)[: np.count_nonzero(first < n)].tolist():
            renumber[i] = distinct.setdefault(label_table[i], len(distinct))
        node_offsets, edge_offsets = (
            np.concatenate(([0], np.cumsum(c, dtype=np.int64))) for c in (node_counts, edge_counts)
        )
        columns = (
            tuple(graph_ids), node_offsets, tuple(node_ids), renumber[node_codes], tuple(distinct),
            edge_offsets, src, dst, edge_codes,
        )
        family = cls.__new__(cls)
        for f, column in zip(fields(cls), columns):
            if isinstance(column, np.ndarray):
                column.flags.writeable = False
            object.__setattr__(family, f.name, column)
        return family

    def select(self, keep: Sequence[bool]) -> "GraphFamily":
        """The graphs where the boolean mask ``keep`` is true, in family order."""
        return self._gather([(self, np.flatnonzero(keep))])

    @classmethod
    def _gather(cls, pieces: Iterable[tuple["GraphFamily", Sequence[int]]]) -> "GraphFamily":
        """The graphs at ``rows`` of each ``(family, rows)`` piece, in order, as one family.

        Gathered from the pieces' columns, which are already valid, and equal
        to the family built from those graphs' records.  A graph id that
        repeats, within a piece or across pieces, is a :class:`DataFormatError`.
        """
        graph_ids: list[str] = []
        node_ids: list[str] = []
        label_table: list[frozenset[str]] = []
        # Per-piece column parts, each seeded so that concatenation never sees none.
        columns = [[np.empty(0, t)] for t in (np.int64, np.int64, np.intc, np.int32, np.int32, np.int8)]
        node_counts, edge_counts, node_codes, src, dst, codes = columns
        for family, rows in pieces:
            rows = np.asarray(rows, np.int64)
            n_count, nodes = _spans(family.node_offsets, rows)
            e_count, edges = _spans(family.edge_offsets, rows)
            starts, ends = family.node_offsets[rows], family.node_offsets[rows + 1]
            # Each graph's nodes move from their old start to their new one,
            # and so do its edges' ends.
            moved = len(node_ids) + np.cumsum(n_count) - n_count - starts
            shift = np.repeat(moved.astype(np.int32), e_count)
            graph_ids += map(family.graph_ids.__getitem__, rows.tolist())
            spans = map(slice, starts.tolist(), ends.tolist())
            node_ids += chain.from_iterable(map(family.node_ids.__getitem__, spans))
            node_counts.append(n_count)
            edge_counts.append(e_count)
            node_codes.append(family.node_sets[nodes] + len(label_table))
            label_table += family.label_sets
            src.append(family.src[edges] + shift)
            dst.append(family.dst[edges] + shift)
            codes.append(family.edge_labels[edges])
        seen: set[str] = set()
        if repeated := [gid for gid in graph_ids if gid in seen or seen.add(gid)]:
            raise DataFormatError(f"graph {repeated[0]!r}: duplicate graph id")
        node_counts, edge_counts, node_codes, src, dst, codes = map(np.concatenate, columns)
        del columns  # the pieces' parts, freed before the build sorts the edges
        return cls._from_columns(graph_ids, node_ids, node_counts, node_codes, label_table,
                                 edge_counts, src, dst, codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphFamily):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    def __len__(self) -> int:
        return len(self.graph_ids)

    def __iter__(self) -> Iterator[ProvGraph]:
        return iter(self.graphs)

    @cached_property
    def graphs(self) -> tuple[ProvGraph, ...]:
        """One :class:`ProvGraph` per graph, built from the columns on first use.

        The columns are validated and canonical, so the views skip
        ``ProvGraph``'s checks and share the ``label_sets`` frozensets.
        """
        ids, n, e = self.node_ids, self.node_offsets.tolist(), self.edge_offsets.tolist()
        sets = list(map(self.label_sets.__getitem__, self.node_sets.tolist()))
        edges = list(zip(
            map(ids.__getitem__, self.src.tolist()),
            map(ids.__getitem__, self.dst.tolist()),
            map(EDGE_LABEL_ORDER.__getitem__, self.edge_labels.tolist()),
        ))
        return tuple(
            ProvGraph._canonical(gid, dict(zip(ids[n[i] : n[i + 1]], sets[n[i] : n[i + 1]])),
                                 tuple(edges[e[i] : e[i + 1]]))
            for i, gid in enumerate(self.graph_ids)
        )

    @cached_property
    def graph_of(self) -> np.ndarray:
        """``graph_of[v]`` is the row of union node ``v``'s graph."""
        return np.repeat(np.arange(len(self.graph_ids)), np.diff(self.node_offsets))

    def label_sets_in(self, label_mode: str) -> tuple[tuple[frozenset[str], ...], np.ndarray]:
        """The distinct node label sets as ``label_mode`` sees them, plus each
        node's index into them.

        ``"application"`` mode sees every label, so these are ``label_sets``
        and ``node_sets``.  ``"generic"`` mode sees only generic labels; a
        node left without one is a :class:`DataFormatError` naming the first
        such node in family order.
        """
        if label_mode == "application":
            return self.label_sets, self.node_sets
        if label_mode != "generic":
            raise ValueError(f"unknown label mode {label_mode!r}")
        ids: dict[frozenset[str], int] = {}
        lut = np.array([ids.setdefault(s & GENERIC_LABELS, len(ids)) for s in self.label_sets], np.intc)
        node_sets = lut[self.node_sets]
        if frozenset() in ids:
            v = int(np.argmax(node_sets == ids[frozenset()]))
            raise DataFormatError(
                f"node {self.node_ids[v]!r} has no generic label; cannot strip to generic mode"
            )
        return tuple(ids), node_sets


def _spans(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lengths of the spans ``offsets[r]:offsets[r + 1]`` for ``rows``,
    and the positions they cover, in order."""
    counts = (offsets[1:] - offsets[:-1])[rows]
    return counts, np.arange(counts.sum()) + np.repeat(offsets[rows] - (np.cumsum(counts) - counts), counts)


def _label_fault(nid: str, labels: frozenset) -> str | None:
    """What is wrong with node ``nid``'s label set, if anything."""
    if not labels:
        return f"node {nid!r} has an empty label set"
    if not all(isinstance(lab, str) for lab in labels):
        return "node labels must be strings"
    if "" in labels:
        return f"node {nid!r} carries an empty label"
    return None


def _edge_fault(edges, nodes) -> str | None:
    """What is wrong with the first bad edge among ``edges``, if any."""
    for edge in edges:
        try:
            s, d, lab = edge
            if lab not in _EDGE_CODE:
                return f"unknown edge label {lab!r} on ({s!r}, {d!r})"
            if s not in nodes:
                return f"edge references undeclared source node {s!r}"
            if d not in nodes:
                return f"edge references undeclared destination node {d!r}"
        except (TypeError, ValueError):
            return f"malformed edge {edge!r}"
    return None


@dataclass(frozen=True, eq=True)
class Dataset:
    """A graph family plus one class label per graph and free-form metadata."""

    family: GraphFamily
    class_labels: dict[str, str]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = set(self.family.graph_ids)
        missing = ids - set(self.class_labels)
        extra = set(self.class_labels) - ids
        if missing:
            raise ValueError(f"graphs without class label: {sorted(missing)[:5]}")
        if extra:
            raise ValueError(f"class labels for unknown graphs: {sorted(extra)[:5]}")

    def __len__(self) -> int:
        return len(self.family)

    def labels_in_family_order(self) -> list[str]:
        return [self.class_labels[gid] for gid in self.family.graph_ids]

