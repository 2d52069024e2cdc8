"""Feature vectors and kernels over inferred neighborhood types.

Each depth ``s`` contributes one feature per distinct non-EMPTY type observed
anywhere in the family at that depth; a graph's coordinate is the number of
its nodes carrying exactly that type.  The kernel at depth ``h`` is the sum
over ``s = 0..h`` of the per-depth dot products, computed exactly in integer
arithmetic.  Features are named ``FA{depth}_{index}`` (application mode) or
``FG{depth}_{index}`` (generic mode), with indices assigned by the canonical
lexicographic order of the serialized types within each depth.

``hamming_distance`` compares two types of equal depth layer by layer: the
total symmetric-difference size over the total union size, as an exact
fraction in ``[0, 1]``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .typeinf import EMPTY, PType, TypeAssignment


class StaleUniverseError(KeyError):
    """An assignment mentions a type the universe does not contain."""


_NAME_RE = re.compile(r"F([AG])([0-9]+)_([0-9]+)")


def parse_feature_name(name: str) -> tuple[str, int, int]:
    """Split ``FA<depth>_<index>`` / ``FG<depth>_<index>`` into (label mode, depth, index)."""
    m = _NAME_RE.fullmatch(name)
    if not m:
        raise ValueError(
            f"not a feature name: {name!r} (expected FA<depth>_<index> or FG<depth>_<index>)"
        )
    mode = "application" if m.group(1) == "A" else "generic"
    return mode, int(m.group(2)), int(m.group(3))


@dataclass(frozen=True)
class TypeUniverse:
    """Distinct non-EMPTY types per depth, in canonical order."""

    label_mode: str
    h_max: int
    per_depth: tuple[tuple[PType, ...], ...]

    @property
    def prefix(self) -> str:
        return "FA" if self.label_mode == "application" else "FG"

    def size(self, depth: int) -> int:
        return len(self.per_depth[depth])

    def index_of(self, t: PType) -> int:
        depth = t.depth
        try:
            return self._indexes()[depth][t]
        except KeyError:
            raise StaleUniverseError(
                f"type at depth {depth} not in universe (stale universe?): {t!r}"
            ) from None

    def _indexes(self) -> tuple[dict[PType, int], ...]:
        cached = getattr(self, "_index_cache", None)
        if cached is None:
            cached = tuple(
                {t: i for i, t in enumerate(level)} for level in self.per_depth
            )
            object.__setattr__(self, "_index_cache", cached)
        return cached

    def feature_name(self, depth: int, index: int) -> str:
        if not 0 <= depth <= self.h_max:
            raise ValueError(f"depth {depth} outside 0..{self.h_max}")
        if not 0 <= index < self.size(depth):
            raise ValueError(f"index {index} outside universe at depth {depth}")
        return f"{self.prefix}{depth}_{index}"

    def feature_lookup(self, name: str) -> PType:
        mode, depth, index = parse_feature_name(name)
        if mode != self.label_mode:
            raise ValueError(
                f"{name!r} does not belong to a {self.label_mode}-mode universe"
            )
        if depth > self.h_max or index >= self.size(depth):
            raise ValueError(f"{name!r} outside this universe")
        return self.per_depth[depth][index]

    def names(self) -> list[str]:
        """All feature names, depth-major, index order within each depth."""
        return [
            self.feature_name(d, i)
            for d in range(self.h_max + 1)
            for i in range(self.size(d))
        ]


def build_universe(assignment: TypeAssignment) -> TypeUniverse:
    levels: list[set[PType]] = [set() for _ in range(assignment.h_max + 1)]
    for gid in assignment.graph_ids:
        for types in assignment.by_graph[gid].values():
            for depth, t in enumerate(types):
                if t is not EMPTY:
                    levels[depth].add(t)
    ordered = tuple(tuple(sorted(level, key=PType.key)) for level in levels)
    return TypeUniverse(assignment.label_mode, assignment.h_max, ordered)


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-depth sparse count matrices (graphs x universe types)."""

    universe: TypeUniverse
    graph_ids: tuple[str, ...]
    mats: tuple[sp.csr_matrix, ...]

    def row_index(self, graph_id: str) -> int:
        lookup = getattr(self, "_row_cache", None)
        if lookup is None:
            lookup = {gid: i for i, gid in enumerate(self.graph_ids)}
            object.__setattr__(self, "_row_cache", lookup)
        try:
            return lookup[graph_id]
        except KeyError:
            raise KeyError(f"unknown graph {graph_id!r}") from None

    def vector(self, graph_id: str, h: int | None = None) -> list[int]:
        """The concatenated exact count vector for depths ``0..h``."""
        h = self.universe.h_max if h is None else h
        row = self.row_index(graph_id)
        out: list[int] = []
        for s in range(h + 1):
            out.extend(int(x) for x in self.mats[s][row].toarray().ravel())
        return out


def featurize(assignment: TypeAssignment, universe: TypeUniverse) -> FeatureMatrix:
    if universe.h_max != assignment.h_max:
        raise ValueError(
            f"universe depth {universe.h_max} != assignment depth {assignment.h_max}"
        )
    graph_ids = assignment.graph_ids
    mats = []
    for depth in range(assignment.h_max + 1):
        rows: list[int] = []
        cols: list[int] = []
        data: list[int] = []
        for r, gid in enumerate(graph_ids):
            counts: Counter[PType] = Counter()
            for types in assignment.by_graph[gid].values():
                t = types[depth]
                if t is not EMPTY:
                    counts[t] += 1
            for t, c in counts.items():
                rows.append(r)
                cols.append(universe.index_of(t))
                data.append(c)
        mats.append(
            sp.csr_matrix(
                (data, (rows, cols)),
                shape=(len(graph_ids), universe.size(depth)),
                dtype=np.int64,
            )
        )
    return FeatureMatrix(universe, tuple(graph_ids), tuple(mats))


def kernel_value(fm: FeatureMatrix, p: str, q: str, h: int | None = None) -> int:
    """Exact kernel between two graphs: summed per-depth dot products.

    Computed with arbitrary-precision integers, so it cannot overflow.
    """
    h = fm.universe.h_max if h is None else h
    if not 0 <= h <= fm.universe.h_max:
        raise ValueError(f"h {h} outside featurized range 0..{fm.universe.h_max}")
    rp, rq = fm.row_index(p), fm.row_index(q)
    total = 0
    for s in range(h + 1):
        a = fm.mats[s].getrow(rp)
        b = fm.mats[s].getrow(rq)
        bmap = {int(j): int(v) for j, v in zip(b.indices, b.data)}
        for j, v in zip(a.indices, a.data):
            w = bmap.get(int(j))
            if w is not None:
                total += int(v) * w
    return total


@dataclass(frozen=True)
class GramMatrix:
    graph_ids: tuple[str, ...]
    values: np.ndarray
    h: int
    normalized: bool


def _count_gram(
    x: sp.csr_matrix, graph_ids: tuple[str, ...], h: int, normalize: bool
) -> GramMatrix:
    """Gram matrix of a non-negative integer count matrix (graphs x columns).

    Entries are exact int64 dot products of the rows.  By Cauchy-Schwarz no
    entry, and no partial sum of non-negative terms, exceeds the largest
    self-kernel, so ``OverflowError`` is raised when that reaches 2**62.
    """
    self_kernels = np.asarray(x.astype(np.float64).power(2).sum(axis=1))
    if self_kernels.max(initial=0.0) >= 2.0**62:
        raise OverflowError(
            "exact 64-bit kernel accumulation could overflow for this family"
        )
    values = np.asarray((x @ x.T).todense(), dtype=np.int64)
    if not normalize:
        return GramMatrix(graph_ids, values, h, False)
    diag = np.diagonal(values).astype(np.float64)
    if np.any(diag <= 0):
        bad = graph_ids[int(np.argmin(diag))]
        raise ValueError(f"cannot normalize: graph {bad!r} has zero self-kernel")
    scale = np.sqrt(np.outer(diag, diag))
    return GramMatrix(graph_ids, values.astype(np.float64) / scale, h, True)


def gram(fm: FeatureMatrix, h: int | None = None, normalize: bool = False) -> GramMatrix:
    """The full kernel matrix over the featurized family.

    The per-depth count matrices for depths ``0..h`` are joined side by side,
    so one dot product sums the per-depth kernels.  Integer results are
    exact; ``OverflowError`` is raised if the 64-bit accumulator could
    overflow.
    """
    h = fm.universe.h_max if h is None else h
    if not 0 <= h <= fm.universe.h_max:
        raise ValueError(f"h {h} outside featurized range 0..{fm.universe.h_max}")
    x = sp.hstack(fm.mats[: h + 1], format="csr", dtype=np.int64)
    return _count_gram(x, fm.graph_ids, h, normalize)


def hamming_distance(a: PType, b: PType) -> Fraction:
    """Layerwise symmetric-difference mass over union mass, as a fraction.

    Defined for types of equal depth.  The EMPTY type is at distance 0 from
    itself and 1 from every non-EMPTY type, regardless of depth.
    """
    if a.is_empty and b.is_empty:
        return Fraction(0)
    if a.is_empty or b.is_empty:
        return Fraction(1)
    if a.depth != b.depth:
        raise ValueError(f"depth mismatch: {a.depth} vs {b.depth}")
    num = 0
    den = 0
    for la, lb in zip(a.layers, b.layers):
        num += len(la ^ lb)
        den += len(la | lb)
    return Fraction(num, den) if den else Fraction(0)


def distance_report(a: PType, b: PType) -> dict:
    """JSON-ready record of a pairwise type distance."""
    d = hamming_distance(a, b)
    return {
        "typeA": a.to_jsonable(),
        "typeB": b.to_jsonable(),
        "distance": {"num": d.numerator, "den": d.denominator},
    }


def retrieve_instances(
    assignment: TypeAssignment, t: PType
) -> list[tuple[str, str]]:
    """All (graph, node) pairs whose type at ``t.depth`` equals ``t``."""
    if t.is_empty:
        raise ValueError("cannot retrieve instances of the EMPTY type")
    depth = t.depth
    if depth > assignment.h_max:
        raise ValueError(f"depth {depth} exceeds inferred range 0..{assignment.h_max}")
    hits = [
        (gid, nid)
        for gid in assignment.graph_ids
        for nid, types in assignment.by_graph[gid].items()
        if types[depth] == t
    ]
    return sorted(hits)


def features_to_csv(fm: FeatureMatrix) -> tuple[str, dict]:
    """Feature counts as CSV plus the sidecar mapping names to definitions."""
    universe = fm.universe
    names = universe.names()
    lines = ["graph_id," + ",".join(names)]
    for gid in fm.graph_ids:
        vec = fm.vector(gid)
        lines.append(gid + "," + ",".join(str(v) for v in vec))
    sidecar = {
        universe.feature_name(d, i): t.to_jsonable()
        for d in range(universe.h_max + 1)
        for i, t in enumerate(universe.per_depth[d])
    }
    return "\n".join(lines) + "\n", sidecar


def gram_to_csv(gm: GramMatrix) -> str:
    """Gram matrix as CSV with graph ids on both axes.

    Integer matrices print exact integers; normalized matrices print floats
    with 17 significant digits so re-runs are byte-identical.
    """
    header = "graph_id," + ",".join(gm.graph_ids)
    lines = [header]
    for i, gid in enumerate(gm.graph_ids):
        row = gm.values[i]
        if gm.normalized:
            cells = [format(float(x), ".17g") for x in row]
        else:
            cells = [str(int(x)) for x in row]
        lines.append(gid + "," + ",".join(cells))
    return "\n".join(lines) + "\n"
