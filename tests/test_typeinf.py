from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generic_graph, random_graph
from provkit.fixtures import admission_fixture
from provkit.kernel import build_universe, featurize
from provkit.model import GraphFamily, ProvGraph
from provkit.typeinf import (
    EMPTY,
    LabelWalk,
    PType,
    dump_types,
    enumerate_label_walks,
    infer_types,
    is_extension,
    type_from_walks,
)


def t(*layers) -> PType:
    return PType(tuple(frozenset(l) for l in layers))


def walk(labels, terminal) -> LabelWalk:
    return LabelWalk(tuple(labels), frozenset(terminal))


class TestAdmissionFixtureGolden:
    """The worked example: a single admission with two activities."""

    def setup_method(self):
        self.graph = admission_fixture()
        self.generic = generic_graph(self.graph)

    def test_two_step_walks_of_final_state(self):
        got = enumerate_label_walks(self.generic, "patient7_3", 2)
        assert got == {
            walk(("gen", "use"), {"ent"}),
            walk(("gen", "waw"), {"ag"}),
            walk(("der", "der"), {"ent"}),
            walk(("der", "gen"), {"act"}),
        }

    def test_depth2_type_of_final_state(self):
        assignment = infer_types(GraphFamily((self.graph,)), 2, "generic")
        assert assignment.get("admission", "patient7_3", 2) == t(
            {"gen", "der"}, {"use", "waw", "der", "gen"}, {"ag", "act", "ent"}
        )

    def test_activity_types_generic_mode(self):
        assignment = infer_types(GraphFamily((self.graph,)), 2, "generic")
        adm = [assignment.get("admission", "admitting3", d) for d in range(3)]
        tre = [assignment.get("admission", "treating5", d) for d in range(3)]
        assert adm[0] == tre[0] == t({"act"})
        assert adm[1] == tre[1] == t({"use", "waw"}, {"ag", "ent"})
        assert adm[2] == t({"use"}, {"der"}, {"ent"})
        assert tre[2] == t({"use"}, {"der", "gen"}, {"act", "ent"})
        assert adm[2] != tre[2]

    def test_activity_types_application_mode(self):
        assignment = infer_types(GraphFamily((self.graph,)), 2, "application")
        adm = [assignment.get("admission", "admitting3", d) for d in range(3)]
        tre = [assignment.get("admission", "treating5", d) for d in range(3)]
        assert adm[0] == t({"act", "mimic:Admitting"})
        assert tre[0] == t({"act", "mimic:Treating"})
        assert adm[0] != tre[0]
        assert adm[1] == tre[1] == t(
            {"use", "waw"}, {"ag", "ent", "mimic:Patient", "mimic:Ward"}
        )
        assert adm[2] == t({"use"}, {"der"}, {"ent", "mimic:Patient"})
        assert tre[2] == t(
            {"use"}, {"der", "gen"}, {"act", "ent", "mimic:Admitting", "mimic:Patient"}
        )

    def test_deeper_type_extends_shallower(self):
        assignment = infer_types(GraphFamily((self.graph,)), 2, "generic")
        deep = assignment.get("admission", "patient7_1", 2)
        shallow = assignment.get("admission", "patient7_0", 1)
        assert deep == t({"der"}, {"spe"}, {"ent"})
        assert shallow == t({"spe"}, {"ent"})
        assert is_extension(deep, shallow)

    def test_person_has_no_walks(self):
        assignment = infer_types(GraphFamily((self.graph,)), 3, "generic")
        assert assignment.get("admission", "person13", 0) == t({"ent"})
        for d in (1, 2, 3):
            assert assignment.get("admission", "person13", d) is EMPTY


class TestTypeFromWalks:
    def test_depth_zero_is_label_set(self):
        assert type_from_walks([walk((), {"ent", "x"})], 0) == t({"ent", "x"})

    def test_no_walks_is_empty(self):
        assert type_from_walks([], 3) is EMPTY

    def test_layer_positions(self):
        walks = [walk(("gen", "use"), {"ent"}), walk(("der", "der"), {"ag"})]
        assert type_from_walks(walks, 2) == t({"gen", "der"}, {"use", "der"}, {"ent", "ag"})

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            type_from_walks([walk(("gen",), {"ent"}), walk((), {"ent"})], 1)


class TestExtension:
    def test_requires_strictly_deeper(self):
        a = t({"spe"}, {"ent"})
        with pytest.raises(ValueError):
            is_extension(a, a)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            is_extension(EMPTY, t({"ent"}))
        with pytest.raises(ValueError):
            is_extension(t({"spe"}, {"ent"}), EMPTY)

    def test_mismatched_lower_layer(self):
        deep = t({"der"}, {"gen"}, {"ent"})
        shallow = t({"use"}, {"ent"})
        assert not is_extension(deep, shallow)


def oracle_assignment(graph, h, label_mode):
    g = generic_graph(graph) if label_mode == "generic" else graph
    out = {}
    for nid in g.nodes:
        out[nid] = tuple(
            type_from_walks(enumerate_label_walks(g, nid, d), d) for d in range(h + 1)
        )
    return out


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("mode", ["generic", "application"])
def test_inference_matches_walk_oracle(seed, mode):
    rng = random.Random(seed)
    graph = random_graph(rng, f"g{seed}")
    h = rng.randint(0, 4)
    assignment = infer_types(GraphFamily((graph,)), h, mode)
    expected = oracle_assignment(graph, h, mode)
    for nid, types in expected.items():
        for d, want in enumerate(types):
            assert assignment.get(graph.graph_id, nid, d) == want, (nid, d)


@given(st.integers(0, 2**30), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_emptiness_is_monotone(seed, h):
    rng = random.Random(seed)
    graph = random_graph(rng, "g", max_nodes=12, max_edges=25)
    assignment = infer_types(GraphFamily((graph,)), h, "application")
    for nid in graph.nodes:
        types = [assignment.get("g", nid, d) for d in range(h + 1)]
        seen_empty = False
        for x in types:
            if seen_empty:
                assert x is EMPTY
            seen_empty = seen_empty or x is EMPTY


def test_parallel_duplicate_edges_do_not_change_types():
    rng = random.Random(7)
    graph = random_graph(rng, "g")
    doubled = type(graph)(graph.graph_id, graph.nodes, graph.edges + graph.edges)
    a = infer_types(GraphFamily((graph,)), 3, "application")
    b = infer_types(GraphFamily((doubled,)), 3, "application")
    assert a.by_graph == b.by_graph


def test_insertion_order_does_not_change_types():
    rng = random.Random(11)
    graph = random_graph(rng, "g")
    shuffled_edges = list(graph.edges)
    rng.shuffle(shuffled_edges)
    shuffled_nodes = dict(reversed(list(graph.nodes.items())))
    other = type(graph)(graph.graph_id, shuffled_nodes, tuple(shuffled_edges))
    a = infer_types(GraphFamily((graph,)), 3, "application")
    b = infer_types(GraphFamily((other,)), 3, "application")
    assert a.by_graph == b.by_graph


def test_generic_mode_strips_application_labels():
    graph = admission_fixture()
    assignment = infer_types(GraphFamily((graph,)), 1, "generic")
    for nid in graph.nodes:
        for d in (0, 1):
            x = assignment.get("admission", nid, d)
            if x is not EMPTY:
                for layer in (x.layers[-1],):
                    assert not any(lab.startswith("mimic:") for lab in layer)


def test_dump_format_round_trips():
    graph = admission_fixture()
    assignment = infer_types(GraphFamily((graph,)), 2, "generic")
    lines = dump_types(assignment).splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == graph.n_nodes * 3
    by_key = {(r["graph"], r["node"], r["depth"]): r["type"] for r in records}
    assert by_key[("admission", "admitting3", 2)] == [["use"], ["der"], ["ent"]]
    assert by_key[("admission", "person13", 2)] is None
    for r in records:
        if r["type"] is not None:
            assert PType.from_jsonable(r["type"]) == assignment.get(
                r["graph"], r["node"], r["depth"]
            )


def test_h_zero_no_empty_types():
    rng = random.Random(3)
    graph = random_graph(rng, "g")
    assignment = infer_types(GraphFamily((graph,)), 0, "application")
    for nid in graph.nodes:
        x = assignment.get("g", nid, 0)
        assert x.depth == 0 and x.layers[0] == graph.nodes[nid]


#: More application labels than one 63-bit tau_0 word holds.
WIDE_LABELS = [f"app:L{i:02d}" for i in range(70)]


def wide_family(rng: random.Random) -> GraphFamily:
    """2-4 small graphs whose nodes together carry all 70 ``WIDE_LABELS``."""
    graphs = [random_graph(rng, f"g{i}", max_nodes=7, max_edges=14, app_label_prob=0.0)
              for i in range(rng.randint(2, 4))]
    nodes = [dict(g.nodes) for g in graphs]
    slots = [(i, nid) for i, ns in enumerate(nodes) for nid in ns]
    for lab in WIDE_LABELS:
        i, nid = rng.choice(slots)
        nodes[i][nid] = nodes[i][nid] | {lab}
    return GraphFamily(tuple(
        type(g)(g.graph_id, ns, g.edges) for g, ns in zip(graphs, nodes)
    ))


@given(st.integers(0, 2**30), st.integers(0, 5), st.sampled_from(["generic", "application"]))
@settings(max_examples=30, deadline=None)
def test_family_inference_matches_walk_oracle(seed, h, mode):
    family = wide_family(random.Random(seed))
    assert len(family.node_label_universe) > 63
    assignment = infer_types(family, h, mode)
    fm = featurize(assignment, build_universe(assignment))
    for graph in family:
        expected = oracle_assignment(graph, h, mode)
        counts = Counter()
        for nid, types in expected.items():
            for d, want in enumerate(types):
                assert assignment.get(graph.graph_id, nid, d) == want, (nid, d)
                if want is not EMPTY:
                    counts[d, want] += 1
        got = Counter()
        row = fm.row_index(graph.graph_id)
        for d, level in enumerate(fm.universe.per_depth):
            for col, x in enumerate(level):
                if fm.mats[d][row, col]:
                    got[d, x] = int(fm.mats[d][row, col])
        assert got == counts


#: Id characters that JSON must escape or that are not ASCII.
ID_CHARS = st.sampled_from(list('ab"\\/\n\t\x00\x7fé☃ \U0001f600'))


@st.composite
def awkward_families(draw):
    gids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=4),
                         min_size=1, max_size=3, unique=True))
    rng = random.Random(draw(st.integers(0, 2**30)))
    graphs = []
    for gid in gids:
        base = random_graph(rng, gid, max_nodes=6, max_edges=12)
        ids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=4),
                            min_size=len(base.nodes), max_size=len(base.nodes), unique=True))
        rename = dict(zip(base.nodes, ids))
        graphs.append(type(base)(
            gid,
            {rename[n]: labels for n, labels in base.nodes.items()},
            tuple((rename[s], rename[d], lab) for s, d, lab in base.edges),
        ))
    return GraphFamily(tuple(graphs))


@given(awkward_families(), st.integers(0, 3), st.sampled_from(["generic", "application"]))
@settings(max_examples=40, deadline=None)
def test_dump_bytes_equal_per_record_json(family, h, mode):
    assignment = infer_types(family, h, mode)
    want = "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
        for r in assignment.iter_records()
    )
    assert dump_types(assignment) == want
    assert want.count("\n") == sum(g.n_nodes for g in family) * (h + 1)


def test_generic_mode_rejects_node_without_generic_label():
    graph = ProvGraph("g", {"a": frozenset({"ent"}), "b": frozenset({"app:A"})}, ())
    with pytest.raises(ValueError, match="node 'b' has no generic label"):
        infer_types(GraphFamily((graph,)), 1, "generic")
    assignment = infer_types(GraphFamily((graph,)), 1, "application")
    assert assignment.get("g", "b", 0) == t({"app:A"})
