from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_family
from provkit.fixtures import admission_fixture, feature_vector_fixture
from provkit.kernel import (
    LABEL_MODES,
    FeatureMatrix,
    StaleUniverseError,
    TypeUniverse,
    build_universe,
    distance_report,
    featurize,
    features_to_csv,
    gram,
    gram_to_csv,
    hamming_distance,
    kernel_value,
    parse_feature_name,
    retrieve_instances,
)
from provkit.model import GraphFamily
from provkit.typeinf import EMPTY, PType, infer_types


def t(*layers) -> PType:
    return PType(tuple(frozenset(l) for l in layers))


def pipeline(family, h, mode="generic"):
    assignment = infer_types(family, h, mode)
    universe = build_universe(assignment)
    return assignment, universe, featurize(assignment, universe)


class TestFeatureVectorFixture:
    def setup_method(self):
        self.family = GraphFamily((feature_vector_fixture(),))
        self.assignment, self.universe, self.fm = pipeline(self.family, 1)

    def test_universe_sizes(self):
        assert self.universe.size(0) == 3
        assert self.universe.size(1) == 4

    def test_universe_canonical_order(self):
        assert [x.key() for x in self.universe.per_depth[0]] == [
            (("act",),),
            (("ag",),),
            (("ent",),),
        ]
        assert list(self.universe.per_depth[1]) == [
            t({"der"}, {"ent"}),
            t({"der", "gen"}, {"act", "ent"}),
            t({"spe"}, {"ent"}),
            t({"use", "waw"}, {"act", "ag"}),
        ]

    def test_count_vector(self):
        assert self.fm.vector("vecfix") == [5, 2, 2, 2, 1, 1, 2]

    def test_self_kernel(self):
        assert kernel_value(self.fm, "vecfix", "vecfix", 1) == 43
        gm = gram(self.fm, 1)
        assert gm.values[0, 0] == 43

    def test_feature_names_and_lookup(self):
        names = self.universe.names()
        assert names == ["FG0_0", "FG0_1", "FG0_2", "FG1_0", "FG1_1", "FG1_2", "FG1_3"]
        assert self.universe.feature_lookup("FG1_3") == t({"use", "waw"}, {"act", "ag"})
        with pytest.raises(ValueError):
            self.universe.feature_lookup("FA1_0")
        with pytest.raises(ValueError):
            self.universe.feature_lookup("FG9_0")
        for malformed in ("FG1_0\n", "FG\u0661_0"):
            with pytest.raises(ValueError):
                self.universe.feature_lookup(malformed)


@pytest.mark.parametrize("h", [-1, 3], ids=["below", "above"])
def test_depth_outside_featurized_range_rejected(h):
    fm = pipeline(GraphFamily((admission_fixture(),)), 2, "application")[2]
    for call in (
        lambda: fm.vector("admission", h),
        lambda: kernel_value(fm, "admission", "admission", h),
        lambda: gram(fm, h),
    ):
        with pytest.raises(ValueError, match=rf"h {h} outside featurized range 0\.\.2"):
            call()
    assert len(fm.vector("admission")) == len(fm.vector("admission", 2)) == 16


@pytest.mark.parametrize("letter, mode", sorted(LABEL_MODES.items()))
def test_feature_names_spell_the_label_mode_letter(letter, mode):
    universe = TypeUniverse(mode, 1, ((t({"ent"}),), (t({"der"}, {"ent"}), t({"gen"}, {"act"}))))
    assert universe.names() == [f"F{letter}0_0", f"F{letter}1_0", f"F{letter}1_1"]
    assert parse_feature_name(f"F{letter}1_1") == (mode, 1, 1)
    assert universe.feature_lookup(f"F{letter}1_1") == t({"gen"}, {"act"})


class TestHamming:
    def test_worked_example(self):
        fam = GraphFamily((admission_fixture(),))
        assignment = infer_types(fam, 2, "generic")
        a = assignment.get("admission", "admitting3", 2)
        b = assignment.get("admission", "treating5", 2)
        assert hamming_distance(a, b) == Fraction(2, 5)

    def test_identity(self):
        x = t({"use"}, {"der"}, {"ent"})
        assert hamming_distance(x, x) == 0

    def test_empty_conventions(self):
        x = t({"use"}, {"ent"})
        assert hamming_distance(EMPTY, EMPTY) == 0
        assert hamming_distance(EMPTY, x) == 1
        assert hamming_distance(x, EMPTY) == 1

    def test_depth_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(t({"ent"}), t({"use"}, {"ent"}))

    def test_disjoint_types_at_distance_one(self):
        a = t({"use"}, {"ent"})
        b = t({"der"}, {"act"})
        assert hamming_distance(a, b) == 1

    def test_report_shape(self):
        rep = distance_report(t({"use"}, {"ent"}), t({"use"}, {"act", "ent"}))
        assert rep["distance"] == {"num": 1, "den": 3}
        assert rep["typeA"] == [["use"], ["ent"]]

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_metric_axioms_on_random_types(self, seed):
        rng = random.Random(seed)
        fam = random_family(rng, 3, max_nodes=10, max_edges=25)
        assignment = infer_types(fam, 2, "application")
        pool = [
            assignment.get(gid, nid, 2)
            for gid in assignment.graph_ids
            for nid in assignment.nodes(gid)
        ]
        pool = [x for x in pool if x is not EMPTY]
        if len(pool) < 3:
            return
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        dab, dbc, dac = hamming_distance(a, b), hamming_distance(b, c), hamming_distance(a, c)
        assert 0 <= dab <= 1
        assert dab == hamming_distance(b, a)
        assert (dab == 0) == (a == b)
        assert dac <= dab + dbc


class TestGram:
    def test_matches_kernel_value(self):
        rng = random.Random(5)
        fam = random_family(rng, 8, max_nodes=12, max_edges=30)
        _, _, fm = pipeline(fam, 3, "application")
        gm = gram(fm, 3)
        for i, p in enumerate(gm.graph_ids):
            for j, q in enumerate(gm.graph_ids):
                assert gm.values[i, j] == kernel_value(fm, p, q, 3)

    def test_psd_at_all_depths(self):
        rng = random.Random(9)
        fam = random_family(rng, 20, max_nodes=10, max_edges=25)
        _, _, fm = pipeline(fam, 4, "application")
        for h in range(5):
            gm = gram(fm, h)
            eig = np.linalg.eigvalsh(gm.values.astype(np.float64))
            assert eig.min() >= -1e-8 * max(np.trace(gm.values), 1)

    def test_normalized_unit_diagonal(self):
        rng = random.Random(10)
        fam = random_family(rng, 6, max_nodes=8, max_edges=16)
        _, _, fm = pipeline(fam, 2, "application")
        gm = gram(fm, 2, normalize=True)
        assert np.allclose(np.diagonal(gm.values), 1.0)
        assert gm.values.max() <= 1.0 + 1e-12

    def test_relabeling_application_labels_preserves_gram(self):
        rng = random.Random(11)
        fam = random_family(rng, 6, max_nodes=10, max_edges=20)
        mapping = {"app:A": "zz:1", "app:B": "zz:2", "app:C": "zz:3", "app:D": "zz:4"}
        renamed = GraphFamily(
            tuple(
                type(g)(
                    g.graph_id,
                    {
                        nid: frozenset(mapping.get(lab, lab) for lab in labels)
                        for nid, labels in g.nodes.items()
                    },
                    g.edges,
                )
                for g in fam
            )
        )
        _, _, fm1 = pipeline(fam, 2, "application")
        _, _, fm2 = pipeline(renamed, 2, "application")
        assert np.array_equal(gram(fm1, 2).values, gram(fm2, 2).values)

    def test_monotone_in_h(self):
        rng = random.Random(12)
        fam = random_family(rng, 5, max_nodes=10, max_edges=20)
        _, _, fm = pipeline(fam, 3, "application")
        prev = None
        for h in range(4):
            cur = gram(fm, h).values
            if prev is not None:
                assert (cur >= prev).all()
            prev = cur

    def test_overflow_refused(self):
        # Depth 0 alone has self-kernel (2**31 - 1)**2 < 2**62; adding depth 1
        # (2**16 squared) brings it to 2**62 + 1.
        universe = TypeUniverse(
            "generic", 1, ((t({"ent"}),), (t({"der"}, {"ent"}),))
        )
        mats = tuple(np.array([[c]], dtype=np.int64) for c in (2**31 - 1, 2**16))
        fm = FeatureMatrix(universe, ("g",), mats)
        assert gram(fm, 0).values[0, 0] == (2**31 - 1) ** 2
        with pytest.raises(OverflowError):
            gram(fm, 1)

    def test_stale_universe_detected(self):
        rng = random.Random(13)
        fam = random_family(rng, 3, max_nodes=8, max_edges=16)
        extra = random_family(random.Random(99), 1, max_nodes=8, max_edges=16).graphs[0]
        extra = type(extra)("extra", extra.nodes, extra.edges)
        bigger = GraphFamily(fam.graphs + (extra,))
        assignment_small = infer_types(fam, 2, "application")
        universe_small = build_universe(assignment_small)
        assignment_big = infer_types(bigger, 2, "application")
        with pytest.raises(StaleUniverseError):
            featurize(assignment_big, universe_small)

    def test_adding_graph_preserves_relative_type_order(self):
        rng = random.Random(14)
        fam = random_family(rng, 4, max_nodes=8, max_edges=16)
        added = tuple(
            type(g)(f"extra{i}", g.nodes, g.edges)
            for i, g in enumerate(random_family(random.Random(15), 2, max_nodes=8, max_edges=16))
        )
        bigger = GraphFamily(fam.graphs + added)
        u1 = build_universe(infer_types(fam, 2, "application"))
        u2 = build_universe(infer_types(bigger, 2, "application"))
        for d in range(3):
            old = [x for x in u2.per_depth[d] if x in set(u1.per_depth[d])]
            assert old == list(u1.per_depth[d])


class TestRetrieve:
    def test_fixture_single_hit(self):
        fam = GraphFamily((admission_fixture(),))
        assignment = infer_types(fam, 2, "generic")
        target = assignment.get("admission", "treating5", 2)
        assert retrieve_instances(assignment, target) == [("admission", "treating5")]

    def test_empty_rejected(self):
        fam = GraphFamily((admission_fixture(),))
        assignment = infer_types(fam, 1, "generic")
        with pytest.raises(ValueError):
            retrieve_instances(assignment, EMPTY)

    def test_instance_count_matches_feature_count(self):
        rng = random.Random(21)
        fam = random_family(rng, 5, max_nodes=10, max_edges=20)
        assignment, universe, fm = pipeline(fam, 2, "application")
        for d in range(3):
            assert fm.mats[d].dtype == np.int64
            assert fm.mats[d].shape == (len(fm.graph_ids), universe.size(d))
            for i, tt in enumerate(universe.per_depth[d]):
                hits = retrieve_instances(assignment, tt)
                col = sum(int(fm.mats[d][r, i]) for r in range(len(fm.graph_ids)))
                assert len(hits) == col


class TestCsv:
    def test_feature_csv_shape(self):
        fam = GraphFamily((feature_vector_fixture(),))
        _, universe, fm = pipeline(fam, 1)
        text, sidecar = features_to_csv(fm)
        lines = text.strip().splitlines()
        assert lines[0] == "graph_id,FG0_0,FG0_1,FG0_2,FG1_0,FG1_1,FG1_2,FG1_3"
        assert lines[1] == "vecfix,5,2,2,2,1,1,2"
        assert sidecar["FG1_0"] == [["der"], ["ent"]]

    def test_gram_csv_integer_and_stable(self):
        rng = random.Random(17)
        fam = random_family(rng, 4, max_nodes=8, max_edges=16)
        _, _, fm = pipeline(fam, 2, "application")
        a = gram_to_csv(gram(fm, 2))
        b = gram_to_csv(gram(fm, 2))
        assert a == b
        first_cell = a.splitlines()[1].split(",")[1]
        assert first_cell.isdigit()

    def test_gram_csv_normalized_17g(self):
        rng = random.Random(18)
        fam = random_family(rng, 3, max_nodes=8, max_edges=16)
        _, _, fm = pipeline(fam, 1, "application")
        text = gram_to_csv(gram(fm, 1, normalize=True))
        cell = text.splitlines()[1].split(",")[1]
        assert cell == "1"  # unit diagonal prints exactly
