from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_family
from provkit.baselines import eh_gram, vh_gram, wl_colorings, wl_gram
from provkit.fixtures import pattern_fixtures
from provkit.kernel import GramMatrix, _count_gram, build_universe, featurize, gram, gram_to_csv
from provkit.model import EDGE_LABEL_ORDER, GENERIC_LABELS, DataFormatError, GraphFamily, ProvGraph
from provkit.typeinf import PType, infer_types


def test_vh_counts_label_sets():
    g1 = ProvGraph("g1", {"a": frozenset({"ent", "x:P"}), "b": frozenset({"ent"})}, ())
    g2 = ProvGraph("g2", {"a": frozenset({"ent"}), "b": frozenset({"ent"})}, ())
    gm = vh_gram(GraphFamily((g1, g2)))
    # Shared feature is the bare {ent} set: 1 * 2.
    assert gm.values[0, 1] == 2
    assert gm.values[1, 1] == 4


@pytest.mark.parametrize("mode", ["generic", "application"])
@pytest.mark.parametrize("seed", range(10))
def test_depth_zero_kernel_equals_vertex_histogram(seed, mode):
    rng = random.Random(seed)
    fam = random_family(rng, 6, max_nodes=12, max_edges=25)
    assignment = infer_types(fam, 0, mode)
    fm = featurize(assignment, build_universe(assignment))
    pk0 = gram(fm, 0)
    vh = vh_gram(fam, mode)
    assert pk0.graph_ids == vh.graph_ids
    assert np.array_equal(pk0.values, vh.values)


def test_eh_counts_parallel_edges():
    nodes = {"a": frozenset({"ent"}), "b": frozenset({"ent"})}
    g1 = ProvGraph("g1", nodes, (("a", "b", "der"), ("a", "b", "der")))
    g2 = ProvGraph("g2", nodes, (("a", "b", "der"),))
    gm = eh_gram(GraphFamily((g1, g2)))
    assert gm.values.tolist() == [[4, 2], [2, 1]]


def test_histogram_overflow_refused():
    # VH, EH and WL all hand their per-graph count matrix to _count_gram.
    below = _count_gram(np.array([[2**31 - 1]], dtype=np.int64), ("g",), False)
    assert below.values[0, 0] == (2**31 - 1) ** 2
    with pytest.raises(OverflowError):
        _count_gram(np.array([[2**31]], dtype=np.int64), ("g",), False)


_BY_LABEL_MODE = {
    "infer_types": lambda fam, mode: infer_types(fam, 2, mode),
    "vh_gram": vh_gram,
    "wl_gram": lambda fam, mode: wl_gram(fam, 2, mode),
    "wl_colorings": lambda fam, mode: wl_colorings(fam, 2, mode),
}


@pytest.mark.parametrize("mode, msg", [
    ("generic", "node 'n2' has no generic label; cannot strip to generic mode"),
    ("bogus", "unknown label mode 'bogus'"),
], ids=["generic", "bogus"])
@pytest.mark.parametrize("name", list(_BY_LABEL_MODE))
def test_generic_mode_names_first_node_without_generic_label(name, mode, msg):
    g1 = ProvGraph("g1", {"a": frozenset({"ent"}), "n2": frozenset({"x:P"})}, ())
    g2 = ProvGraph("g2", {"n10": frozenset({"x:Q"}), "z": frozenset({"ent", "x:P"})}, ())
    fam = GraphFamily((g1, g2))
    with pytest.raises(ValueError) as err:
        _BY_LABEL_MODE[name](fam, mode)
    assert str(err.value) == msg
    # A node without a generic label is a fault of the data; an unknown mode is not.
    assert isinstance(err.value, DataFormatError) == (mode == "generic")
    assert wl_gram(fam, 2).values.tolist() == [[6, 0], [0, 6]]


class TestWl:
    def test_iteration_zero_is_label_histogram(self):
        rng = random.Random(4)
        fam = random_family(rng, 5, max_nodes=10, max_edges=20)
        assert np.array_equal(wl_gram(fam, 0).values, vh_gram(fam).values)

    def test_colorings_refine(self):
        rng = random.Random(5)
        fam = random_family(rng, 3, max_nodes=10, max_edges=20)
        levels = wl_colorings(fam, 3)
        for prev, cur in zip(levels, levels[1:]):
            # Nodes with equal refined colors must have had equal colors before.
            for gid in prev:
                seen = {}
                for nid, c in cur[gid].items():
                    if c in seen:
                        assert prev[gid][seen[c]] == prev[gid][nid]
                    seen[c] = nid

    @pytest.mark.parametrize("seed", range(5))
    def test_values_sum_iteration_dot_products(self, seed):
        rng = random.Random(100 + seed)
        fam = random_family(rng, 6, max_nodes=12, max_edges=25)
        ids = [g.graph_id for g in fam]
        levels = wl_colorings(fam, 3)
        for h in range(4):
            hists = [[Counter(level[gid].values()) for gid in ids] for level in levels[: h + 1]]
            want = [
                [
                    sum(sum(c * it[j][key] for key, c in it[i].items()) for it in hists)
                    for j in range(len(ids))
                ]
                for i in range(len(ids))
            ]
            assert wl_gram(fam, h).values.tolist() == want

    def test_wl_psd(self):
        rng = random.Random(6)
        fam = random_family(rng, 15, max_nodes=10, max_edges=20)
        gm = wl_gram(fam, 3)
        eig = np.linalg.eigvalsh(gm.values.astype(np.float64))
        assert eig.min() >= -1e-8 * max(np.trace(gm.values), 1)


#: Node ids such as "n10" and "n2" sort differently as strings and numbers.
NODE_IDS = st.integers(0, 12).map(lambda i: f"n{i}")
GENERIC = sorted(GENERIC_LABELS)
APP = ["x:A", "x:B"]


@st.composite
def wl_families(draw):
    """Families with shuffled edges, duplicate triples, parallel edges with
    different labels, self-loops, sinks, empty graphs and isomorphic copies."""
    graphs = []
    for gi in range(draw(st.integers(1, 4))):
        ids = draw(st.lists(NODE_IDS, max_size=8, unique=True))
        nodes = {
            nid: frozenset(draw(st.lists(st.sampled_from(GENERIC), min_size=1, max_size=2))
                           + draw(st.lists(st.sampled_from(APP), max_size=2)))
            for nid in ids
        }
        if ids and draw(st.integers(0, 9)) == 0:  # a node generic mode cannot keep
            nodes[draw(st.sampled_from(ids))] = frozenset({"x:A"})
        edges = []
        if ids:
            node = st.sampled_from(ids)
            edges = draw(st.lists(st.tuples(node, node, st.sampled_from(EDGE_LABEL_ORDER)),
                                  max_size=14))
            edges += edges[: draw(st.integers(0, len(edges)))]
            edges += [(s, d, "spe") for s, d, _ in edges[: draw(st.integers(0, len(edges)))]]
            edges += [(s, s, "der") for s in draw(st.lists(node, max_size=2))]
        graphs.append(ProvGraph(f"g{gi}", nodes, tuple(draw(st.permutations(edges)))))
    if draw(st.booleans()):  # an isomorphic copy, its node ids permuted
        g = draw(st.sampled_from(graphs))
        rename = dict(zip(g.nodes, draw(st.permutations(list(g.nodes)))))
        nodes = {rename[nid]: labels for nid, labels in g.nodes.items()}
        edges = tuple((rename[s], rename[d], lab) for s, d, lab in g.edges)
        graphs.append(ProvGraph("copy", nodes, edges))
    return GraphFamily(tuple(graphs))


def oracle_wl_gram(fam, h, mode, normalize) -> GramMatrix:
    """The WL Gram from ``wl_colorings``: Python-int sums of per-iteration
    histogram dot products, then the cosine formula."""
    ids = fam.graph_ids
    hists = [[Counter(level[gid].values()) for gid in ids] for level in wl_colorings(fam, h, mode)]
    n = len(ids)
    values = np.array(
        [[sum(sum(c * it[j][key] for key, c in it[i].items()) for it in hists) for j in range(n)]
         for i in range(n)],
        dtype=np.int64,
    ).reshape(n, n)
    if normalize:
        diag = np.diagonal(values).astype(np.float64)
        values = values.astype(np.float64) / np.sqrt(np.outer(diag, diag))
    return GramMatrix(ids, values, normalize)


@given(wl_families(), st.sampled_from(["application", "generic"]), st.booleans())
@settings(max_examples=80, deadline=None)
def test_wl_gram_matches_colorings_oracle(fam, mode, normalize):
    if mode == "generic" and any(not s & GENERIC_LABELS for s in fam.label_sets):
        with pytest.raises(ValueError) as want:
            wl_colorings(fam, 0, mode)
        with pytest.raises(ValueError) as got:
            wl_gram(fam, 0, mode, normalize)
        assert str(got.value) == str(want.value)
        return
    empty = np.any(np.diff(fam.node_offsets) == 0)
    for h in range(5):
        if normalize and empty:
            with pytest.raises(DataFormatError, match="zero self-kernel"):
                wl_gram(fam, h, mode, normalize)
            continue
        want = oracle_wl_gram(fam, h, mode, normalize)
        got = wl_gram(fam, h, mode, normalize)
        assert got.values.dtype == want.values.dtype
        assert got.values.tobytes() == want.values.tobytes()
        assert gram_to_csv(got) == gram_to_csv(want)


class TestPatternPair:
    """Same root 2-type, distinguishable by WL refinement."""

    def setup_method(self):
        self.p1, self.p2 = pattern_fixtures()
        self.family = GraphFamily((self.p1, self.p2))

    def test_roots_share_depth2_type(self):
        assignment = infer_types(self.family, 2, "generic")
        want = PType(
            (
                frozenset({"der", "gen"}),
                frozenset({"der", "gen", "use"}),
                frozenset({"act", "ent"}),
            )
        )
        assert assignment.get("pattern1", "root", 2) == want
        assert assignment.get("pattern2", "root", 2) == want

    def test_same_node_inventory(self):
        assert Counter(self.p1.nodes.values()) == Counter(self.p2.nodes.values())

    def test_wl_depth2_distinguishes(self):
        levels = wl_colorings(self.family, 2)
        h1 = Counter(levels[2]["pattern1"].values())
        h2 = Counter(levels[2]["pattern2"].values())
        assert h1 != h2
        assert levels[2]["pattern1"]["root"] != levels[2]["pattern2"]["root"]


@given(st.integers(0, 2**30), st.integers(1, 8), st.sampled_from(["pk", "vh", "eh", "wl"]),
       st.integers(0, 3), st.sampled_from(["application", "generic"]))
@settings(max_examples=150, deadline=None)
def test_normalized_gram_has_unit_diagonal_and_is_bitwise_symmetric(seed, count, kernel, h, mode):
    # xval scales by the largest self-kernel, which leaves a normalized Gram's
    # bits alone only if its diagonal is exactly 1.0; a mirrored CSV writer
    # needs the exact symmetry.
    fam = random_family(random.Random(seed), count, max_nodes=10, max_edges=20)
    try:
        if kernel == "pk":
            assignment = infer_types(fam, h, mode)
            gm = gram(featurize(assignment, build_universe(assignment)), h, normalize=True)
        elif kernel == "vh":
            gm = vh_gram(fam, mode, normalize=True)
        elif kernel == "eh":
            gm = eh_gram(fam, normalize=True)
        else:
            gm = wl_gram(fam, h, mode, normalize=True)
    except DataFormatError:
        assume(False)  # a graph without edges has no eh self-kernel
    assert (np.diagonal(gm.values) == 1.0).all()
    assert gm.values.tobytes() == gm.values.T.copy().tobytes()
