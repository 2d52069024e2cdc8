"""Feature vectors and kernels over inferred neighborhood types.

Each depth ``s`` contributes one feature per distinct non-EMPTY type observed
anywhere in the family at that depth; a graph's coordinate is the number of
its nodes carrying exactly that type.  The type assignment already numbers
each depth's types in canonical order, so a node's type code is its feature
column, and a universe is always the assignment's own (``build_universe``).
The kernel at depth ``h`` is the sum over ``s = 0..h`` of the per-depth dot
products, computed exactly in integer arithmetic.  Features are named
``FA{depth}_{index}`` (application mode) or ``FG{depth}_{index}`` (generic
mode), in decimal without leading zeros, with indices assigned by the
canonical lexicographic order of the serialized types within each depth.

``hamming_distance`` compares two types of equal depth layer by layer: the
total symmetric-difference size over the total union size, as an exact
fraction in ``[0, 1]``.

Count matrices are dense int64 arrays (graphs x columns): typed universes
hold a few dozen types per depth, so the matrices stay small.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .model import DataFormatError
from .typeinf import PType, TypeAssignment


#: Label mode by the letter that names it in feature names (``FA2_0``) and
#: CLI method ids (``A3``).
LABEL_MODES = {"A": "application", "G": "generic"}
_LETTERS = {mode: letter for letter, mode in LABEL_MODES.items()}
_NAME_RE = re.compile(rf"F([{''.join(LABEL_MODES)}])(0|[1-9][0-9]*)_(0|[1-9][0-9]*)")


def parse_feature_name(name: str) -> tuple[str, int, int]:
    """Split ``FA<depth>_<index>`` / ``FG<depth>_<index>`` into (label mode, depth, index)."""
    m = _NAME_RE.fullmatch(name)
    if not m:
        raise ValueError(
            f"not a feature name: {name!r} (expected FA<depth>_<index> or FG<depth>_<index>)"
        )
    return LABEL_MODES[m.group(1)], int(m.group(2)), int(m.group(3))


@dataclass(frozen=True)
class TypeUniverse:
    """Distinct non-EMPTY types per depth, in canonical order."""

    label_mode: str
    h_max: int
    per_depth: tuple[tuple[PType, ...], ...]

    def size(self, depth: int) -> int:
        return len(self.per_depth[depth])

    def index_of(self, t: PType) -> int:
        return self.per_depth[t.depth].index(t)

    def feature_name(self, depth: int, index: int) -> str:
        if not 0 <= depth <= self.h_max:
            raise ValueError(f"depth {depth} outside 0..{self.h_max}")
        if not 0 <= index < self.size(depth):
            raise ValueError(f"index {index} outside universe at depth {depth}")
        return f"F{_LETTERS[self.label_mode]}{depth}_{index}"

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
    """The assignment's distinct non-EMPTY types per depth, already canonical."""
    return TypeUniverse(assignment.label_mode, assignment.h_max, assignment.types)


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-depth dense int64 count matrices (graphs x universe types)."""

    universe: TypeUniverse
    graph_ids: tuple[str, ...]
    mats: tuple[np.ndarray, ...]

    @cached_property
    def _rows(self) -> dict[str, int]:
        return {gid: i for i, gid in enumerate(self.graph_ids)}

    def row_index(self, graph_id: str) -> int:
        try:
            return self._rows[graph_id]
        except KeyError:
            raise KeyError(f"unknown graph {graph_id!r}") from None

    def _depth(self, h: int | None) -> int:
        """``h`` (the deepest featurized depth if ``None``), checked against that range."""
        h = self.universe.h_max if h is None else h
        if not 0 <= h <= self.universe.h_max:
            raise ValueError(f"h {h} outside featurized range 0..{self.universe.h_max}")
        return h


def featurize(assignment: TypeAssignment, universe: TypeUniverse) -> FeatureMatrix:
    """Per-depth counts of each of the assignment's types among each graph's nodes.

    A node's type code is its column, so ``universe`` must be
    ``build_universe(assignment)``; any other raises ``ValueError``.
    """
    if universe != build_universe(assignment):
        raise ValueError("universe is not the assignment's own (see build_universe)")
    rows = len(assignment.graph_ids)
    mats = []
    for level, codes in zip(assignment.types, assignment.codes):
        typed = codes >= 0
        owner = assignment.family.graph_of[typed]
        mats.append(_counts(owner, codes[typed], rows, len(level)))
    return FeatureMatrix(universe, assignment.graph_ids, tuple(mats))


def kernel_value(fm: FeatureMatrix, p: str, q: str, h: int | None = None) -> int:
    """Exact kernel between two graphs: summed per-depth dot products.

    Computed with arbitrary-precision integers, so it cannot overflow.
    """
    mats = fm.mats[: fm._depth(h) + 1]
    rp, rq = fm.row_index(p), fm.row_index(q)
    return sum(
        a * b
        for m in mats
        for a, b in zip(m[rp].tolist(), m[rq].tolist())
    )


@dataclass(frozen=True)
class GramMatrix:
    """Kernel values over ``graph_ids``: int64 exact, or float64 normalized."""

    graph_ids: tuple[str, ...]
    values: np.ndarray


def _counts(owner: np.ndarray, codes: np.ndarray, n_rows: int, width: int) -> np.ndarray:
    """int64 (rows x width) matrix counting each item's code in its row."""
    flat = np.bincount(owner * width + codes, minlength=n_rows * width)
    return flat.reshape(n_rows, width)


def _count_gram(x: np.ndarray, graph_ids: tuple[str, ...], normalize: bool) -> GramMatrix:
    """Gram matrix of a non-negative integer count matrix (graphs x columns).

    Entries are exact int64 dot products of the rows.  By Cauchy-Schwarz no
    entry, and no product or partial sum of non-negative terms in any order,
    exceeds the largest self-kernel, so ``OverflowError`` is raised when that
    reaches 2**62.  Below 2**53 every such integer is a float64, so the BLAS
    float64 product is exact; the self-kernels here are a float64 estimate,
    off by a relative ``columns * 2**-53`` at most, so the switch is at 2**52.
    """
    top = np.square(x, dtype=np.float64).sum(axis=1).max(initial=0.0)
    if top >= 2.0**62:
        raise OverflowError(
            "exact 64-bit kernel accumulation could overflow for this family"
        )
    if top < 2.0**52:
        xf = x.astype(np.float64)
        values = (xf @ xf.T).astype(np.int64)
    else:
        values = x @ x.T
    if not normalize:
        return GramMatrix(graph_ids, values)
    diag = np.diagonal(values).astype(np.float64)
    if np.any(diag <= 0):
        bad = graph_ids[int(np.argmin(diag))]
        raise DataFormatError(f"cannot normalize: graph {bad!r} has zero self-kernel")
    scale = np.sqrt(np.outer(diag, diag))
    return GramMatrix(graph_ids, values.astype(np.float64) / scale)


def gram(fm: FeatureMatrix, h: int | None = None, normalize: bool = False) -> GramMatrix:
    """The full kernel matrix over the featurized family.

    The per-depth count matrices for depths ``0..h`` are joined side by side,
    so one dot product sums the per-depth kernels.  Integer results are
    exact; ``OverflowError`` is raised if the 64-bit accumulator could
    overflow.
    """
    return _count_gram(np.hstack(fm.mats[: fm._depth(h) + 1]), fm.graph_ids, normalize)


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
    level = assignment.types[depth]
    if t not in level:
        return []
    hits = np.flatnonzero(assignment.codes[depth] == level.index(t))
    return sorted(assignment.node_at(v) for v in hits.tolist())


def features_to_csv(fm: FeatureMatrix) -> tuple[str, dict]:
    """Feature counts as CSV plus the sidecar mapping names to definitions."""
    names = fm.universe.names()
    lines = ["graph_id," + ",".join(names)]
    for gid, row in zip(fm.graph_ids, np.hstack(fm.mats).tolist()):
        lines.append(gid + "," + ",".join(map(str, row)))
    types = [t.to_jsonable() for level in fm.universe.per_depth for t in level]
    return "\n".join(lines) + "\n", dict(zip(names, types))


def gram_to_csv(gm: GramMatrix) -> str:
    """Gram matrix as CSV with graph ids on both axes.

    Integer matrices print exact integers; float (normalized) matrices print
    17 significant digits so re-runs are byte-identical.
    """
    cell = "{:.17g}".format if gm.values.dtype.kind == "f" else str
    lines = ["graph_id," + ",".join(gm.graph_ids)]
    for gid, row in zip(gm.graph_ids, gm.values):
        lines.append(gid + "," + ",".join(map(cell, row.tolist())))
    return "\n".join(lines) + "\n"
