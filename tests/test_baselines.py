from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from conftest import random_family
from provkit.baselines import _hist_gram, eh_gram, vh_gram, wl_colorings, wl_gram
from provkit.fixtures import pattern_fixtures
from provkit.kernel import build_universe, featurize, gram
from provkit.model import GraphFamily, ProvGraph
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
    below = _hist_gram([Counter({"x": 2**31 - 1})], ["g"], 0, False)
    assert below.values[0, 0] == (2**31 - 1) ** 2
    with pytest.raises(OverflowError):
        _hist_gram([Counter({"x": 2**31})], ["g"], 0, False)


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
