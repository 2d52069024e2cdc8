from __future__ import annotations

import gc
import json
import random
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generic_graph, kind_mismatches, random_family, random_graph
from provkit.cli import main
from provkit.model import (
    EDGE_KINDS,
    EDGE_LABEL_ORDER,
    Dataset,
    GraphFamily,
    ProvGraph,
    read_json,
)
from provkit.provjson import DataFormatError, ProvJsonWarning, load_family, load_provjson
from provkit.storage import (
    FORMAT_TAG,
    MANIFEST_NAME,
    dataset_texts,
    load_dataset,
    load_internal,
    save_internal,
)


def g(nodes, edges, gid="g"):
    return ProvGraph(gid, {k: frozenset(v) for k, v in nodes.items()}, tuple(edges))


class TestProvGraph:
    def test_empty_label_set_rejected(self):
        with pytest.raises(ValueError):
            g({"a": set()}, [])

    def test_unknown_edge_label_rejected(self):
        with pytest.raises(ValueError):
            g({"a": {"ent"}, "b": {"ent"}}, [("a", "b", "derivedFrom")])

    def test_dangling_edge_rejected(self):
        with pytest.raises(ValueError):
            g({"a": {"ent"}}, [("a", "b", "der")])

    def test_parallel_edges_kept(self):
        graph = g({"a": {"ent"}, "b": {"ent"}}, [("a", "b", "der")] * 3)
        assert graph.n_edges == 3

    def test_equality_ignores_insertion_order(self):
        e = [("a", "b", "der"), ("a", "b", "alt"), ("b", "a", "spe")]
        x = g({"a": {"ent"}, "b": {"ent"}}, e)
        y = g({"b": {"ent"}, "a": {"ent"}}, list(reversed(e)))
        assert x == y

    def test_strip_requires_generic_label(self):
        graph = g({"a": {"app:only"}}, [])
        with pytest.raises(ValueError):
            generic_graph(graph)

    @pytest.mark.parametrize(
        "graph_id, nodes, edges, message",
        [
            ("g", {1: {"ent"}, "1": {"act"}}, (), "graph and node ids must be strings"),
            (7, {"a": {"ent"}}, (), "graph and node ids must be strings"),
            ("g", {"a": {"ent", 5}}, (), "labels must be strings"),
            ("g", {"a": {"ent", ("x",)}}, (), "labels must be strings"),
            ("g", {"a": [["x"]]}, (), "labels must be strings"),
            ("g", {"a": {"ent"}, "1": {"ent"}}, (("a", 1, "der"),), "destination node 1"),
            ("g", {"a": {"ent"}}, (("a", "a", 5),), "unknown edge label 5"),
            ("g", {"a": "ent"}, (), "node 'a' needs a list, tuple or set of labels"),
        ],
        ids=["int-node-id-beside-its-string", "int-graph-id", "int-label", "tuple-label",
             "unhashable-label", "int-edge-end", "int-edge-label", "string-label-set"],
    )
    def test_non_string_fields_rejected_not_coerced(self, graph_id, nodes, edges, message):
        with pytest.raises(ValueError, match=message):
            ProvGraph(graph_id, nodes, edges)

    def test_edges_may_be_any_iterable_of_triples(self):
        edges = iter([["b", "a", "der"], ("a", "b", "der")])
        graph = ProvGraph("g", {"a": {"ent"}, "b": {"ent"}}, edges)
        assert graph.edges == (("a", "b", "der"), ("b", "a", "der"))
        assert graph.nodes == {"a": frozenset({"ent"}), "b": frozenset({"ent"})}


@pytest.mark.parametrize(
    "graph_id, nodes, edges",
    [
        ("g", {"a": []}, []),
        ("g", {"a": ["ent"], "b": ["ent"]}, [["a", "b", "derivedFrom"]]),
        ("g", {"a": ["ent"]}, [["a", "b", "der"]]),
        ("g", {1: ["ent"], "1": ["act"]}, []),
        ("g", {"a": ["ent"], 2: ["ent"], "c": ["act"]}, []),
        ("g", {1: ["ent"]}, []),
        (7, {"a": ["ent"]}, []),
        ([1], {"a": ["ent"]}, []),
    ],
    ids=["empty-label-set", "unknown-edge-label", "undeclared-edge-end",
         "int-node-id-beside-its-string", "mixed-node-ids", "int-node-id",
         "int-graph-id", "unhashable-graph-id"],
)
def test_one_fault_one_error(tmp_path, graph_id, nodes, edges):
    """A malformed graph gets the same DataFormatError from every entry point."""
    record = {"id": graph_id, "label": "a", "edges": edges,
              "nodes": [{"id": nid, "labels": labels} for nid, labels in nodes.items()]}
    path = tmp_path / "g.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    frozen = {nid: frozenset(labels) for nid, labels in nodes.items()}
    messages = set()
    for build in (
        lambda: ProvGraph(graph_id, frozen, edges),
        lambda: GraphFamily.from_records([(graph_id, frozen.items(), edges)]),
        lambda: load_internal(path),
    ):
        with pytest.raises(DataFormatError) as caught:
            build()
        messages.add(str(caught.value))
    assert len(messages) == 1 and messages.pop().startswith(f"graph {graph_id!r}: ")
    assert main(["types", "--data", str(path)]) == 3


_LISTINGS = (["ent"], ["act"], ["ag"], ["ent", "x:A"], ["x:A", "ent"], ["act", "x:B"], ["ent", "x:A", "x:B"])


@st.composite
def _records(draw):
    """1-6 graph records with 1-5 nodes each, 0-6 edges each, and label
    listings from a small pool, some of them one set in two orders."""
    records = []
    for i in range(draw(st.integers(1, 6))):
        ids = [f"n{j}" for j in range(draw(st.integers(1, 5)))]
        nodes = [(nid, draw(st.sampled_from(_LISTINGS))) for nid in ids]
        edge = st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(EDGE_LABEL_ORDER))
        records.append((f"g{i}", nodes, draw(st.lists(edge, max_size=6))))
    return records


def _assert_same_columns(got: GraphFamily, want: GraphFamily) -> None:
    for f in fields(GraphFamily):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


class TestJoin:
    @given(_records(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_joined_chunks_equal_the_whole(self, records, data):
        cuts = data.draw(st.sets(st.integers(1, len(records) - 1)) if len(records) > 1 else st.just(set()))
        bounds = [0, *sorted(cuts), len(records)]
        chunks = [records[a:b] for a, b in zip(bounds, bounds[1:])]
        joined = GraphFamily._join(GraphFamily.from_records(chunk) for chunk in chunks)
        _assert_same_columns(joined, GraphFamily.from_records(records))

    def test_label_set_first_seen_in_a_later_chunk(self):
        records = [("a", [("n", ["ent"])], []),
                   ("b", [("m", ["act", "x:B"]), ("n", ["ent"])], [("m", "n", "use")])]
        joined = GraphFamily._join(GraphFamily.from_records([r]) for r in records)
        assert joined.label_sets == (frozenset({"ent"}), frozenset({"act", "x:B"}))
        _assert_same_columns(joined, GraphFamily.from_records(records))

    def test_graph_id_repeated_across_chunks_refused(self):
        one = GraphFamily.from_records([("g", [("n", ["ent"])], [])])
        two = GraphFamily.from_records([("h", [("n", ["ent"])], []), ("g", [("n", ["act"])], [])])
        with pytest.raises(DataFormatError, match=r"^graph 'g': duplicate graph id$"):
            GraphFamily._join([one, two])


def test_read_json_reports_the_file(tmp_path):
    good = tmp_path / "good.json"
    good.write_text('{"a": [1]}', encoding="utf-8")
    assert read_json(good) == {"a": [1]}
    assert read_json(str(good)) == {"a": [1]}
    with pytest.raises(DataFormatError, match=r"no such file: .*nope\.json"):
        read_json(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"bad\.json: not valid JSON"):
        read_json(bad)


class TestProvJson:
    def test_single_entity(self):
        graph = load_provjson({"entity": {"e1": {}}}, graph_id="d")
        assert graph.nodes == {"e1": frozenset({"ent"})}
        assert graph.n_edges == 0

    def test_generation_edge_direction(self):
        doc = {
            "entity": {"e1": {}},
            "activity": {"a1": {}},
            "wasGeneratedBy": {"_:g1": {"prov:entity": "e1", "prov:activity": "a1"}},
        }
        graph = load_provjson(doc, graph_id="d")
        assert graph.edges == (("e1", "a1", "gen"),)

    def test_prov_type_modes(self):
        doc = {"entity": {"e1": {"prov:type": "mimic:Patient"}}}
        app = load_provjson(doc, "application", graph_id="d")
        gen = load_provjson(doc, "generic", graph_id="d")
        assert app.nodes["e1"] == {"ent", "mimic:Patient"}
        assert gen.nodes["e1"] == {"ent"}

    def test_prov_type_qualified_and_list(self):
        doc = {
            "entity": {
                "e1": {"prov:type": {"$": "x:A", "type": "prov:QUALIFIED_NAME"}},
                "e2": {"prov:type": ["x:A", {"$": "x:B"}]},
            }
        }
        graph = load_provjson(doc, graph_id="d")
        assert graph.nodes["e1"] == {"ent", "x:A"}
        assert graph.nodes["e2"] == {"ent", "x:A", "x:B"}

    def test_auto_declares_missing_endpoint(self):
        doc = {
            "activity": {"a1": {}},
            "used": {"_:u1": {"prov:activity": "a1", "prov:entity": "e9"}},
        }
        with pytest.warns(ProvJsonWarning, match="auto-declared"):
            graph = load_provjson(doc, graph_id="d")
        assert graph.nodes["e9"] == {"ent"}

    def test_unsupported_section_warned_and_skipped(self):
        doc = {"entity": {"e1": {}}, "bundle": {"b1": {}}}
        with pytest.warns(ProvJsonWarning, match="bundle"):
            graph = load_provjson(doc, graph_id="d")
        assert set(graph.nodes) == {"e1"}

    def test_parallel_relations_kept(self):
        doc = {
            "entity": {"e1": {}, "e2": {}},
            "wasDerivedFrom": {
                "_:d1": {"prov:generatedEntity": "e1", "prov:usedEntity": "e2"},
                "_:d2": {"prov:generatedEntity": "e1", "prov:usedEntity": "e2"},
            },
        }
        graph = load_provjson(doc, graph_id="d")
        assert graph.edges == (("e1", "e2", "der"), ("e1", "e2", "der"))

    def test_file_loading_and_errors(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text('{"entity": {"e1": {}}}')
        assert load_dataset(p).family == GraphFamily((g({"e1": {"ent"}}, [], "doc"),))
        with pytest.raises(DataFormatError, match="must be a JSON object"):
            load_provjson(p)
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(DataFormatError, match="not valid JSON"):
            load_dataset(bad)
        with pytest.raises(DataFormatError):
            load_provjson({}, graph_id="d")

    def test_all_twelve_relations(self):
        doc = {
            "entity": {"e1": {}, "e2": {}},
            "activity": {"a1": {}, "a2": {}},
            "agent": {"ag1": {}, "ag2": {}},
            "wasDerivedFrom": {"r1": {"prov:generatedEntity": "e1", "prov:usedEntity": "e2"}},
            "specializationOf": {"r2": {"prov:specificEntity": "e1", "prov:generalEntity": "e2"}},
            "alternateOf": {"r3": {"prov:alternate1": "e1", "prov:alternate2": "e2"}},
            "wasInvalidatedBy": {"r4": {"prov:entity": "e1", "prov:activity": "a1"}},
            "wasGeneratedBy": {"r5": {"prov:entity": "e1", "prov:activity": "a1"}},
            "used": {"r6": {"prov:activity": "a1", "prov:entity": "e1"}},
            "wasAttributedTo": {"r7": {"prov:entity": "e1", "prov:agent": "ag1"}},
            "wasAssociatedWith": {"r8": {"prov:activity": "a1", "prov:agent": "ag1"}},
            "actedOnBehalfOf": {"r9": {"prov:delegate": "ag1", "prov:responsible": "ag2"}},
            "wasStartedBy": {"r10": {"prov:activity": "a1", "prov:trigger": "e1"}},
            "wasEndedBy": {"r11": {"prov:activity": "a1", "prov:trigger": "e2"}},
            "wasInformedBy": {"r12": {"prov:informed": "a1", "prov:informant": "a2"}},
        }
        graph = load_provjson(doc, graph_id="d")
        assert graph.n_edges == 12
        assert kind_mismatches(GraphFamily((graph,))) == []

    @pytest.mark.parametrize("value", [True, 3, {"$": 3}, ["x:A", None]])
    def test_non_string_prov_type_rejected(self, tmp_path, value):
        doc = {"entity": {"e1": {"prov:type": value}}}
        for mode in ("application", "generic"):
            with pytest.raises(DataFormatError, match="'e1'"):
                load_provjson(doc, mode, graph_id="d")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["types", "--data", str(path), "--h", "0"]) == 3

    @pytest.mark.parametrize("endpoint", [5, None, ["e1"], {"$": "e1"}])
    def test_non_string_relation_endpoint_rejected(self, tmp_path, endpoint):
        doc = {
            "entity": {"e1": {}},
            "activity": {"a1": {}},
            "used": {"_:u1": {"prov:activity": "a1", "prov:entity": endpoint}},
        }
        with pytest.raises(DataFormatError, match="'_:u1'"):
            load_provjson(doc, graph_id="d")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["types", "--data", str(path), "--h", "0"]) == 3

    def test_array_under_node_id_unions_labels(self):
        doc = {"entity": {
            "e1": [{"prov:type": "x:A"}, {"prov:type": ["x:B", {"$": "x:C"}]}, {}],
            "e2": [],
        }}
        app = load_provjson(doc, graph_id="d")
        assert app.nodes == {
            "e1": frozenset({"ent", "x:A", "x:B", "x:C"}), "e2": frozenset({"ent"}),
        }
        assert load_provjson(doc, "generic", graph_id="d").nodes["e1"] == {"ent"}

    def test_array_under_relation_id_yields_one_edge_each(self):
        doc = {
            "entity": {"e1": {}, "e2": {}},
            "activity": {"a1": {}},
            "used": {"_:u1": [
                {"prov:activity": "a1", "prov:entity": "e1"},
                {"prov:activity": "a1", "prov:entity": "e2"},
                {"prov:activity": "a1", "prov:entity": "e1"},
            ]},
            "wasGeneratedBy": {"_:g1": {"prov:entity": "e2", "prov:activity": "a1"}},
        }
        graph = load_provjson(doc, graph_id="d")
        assert graph.edges == (
            ("a1", "e1", "use"), ("a1", "e1", "use"), ("a1", "e2", "use"), ("e2", "a1", "gen"),
        )
        with pytest.raises(DataFormatError, match="'_:u2'"):
            load_provjson({**doc, "used": {"_:u2": [{"prov:activity": "a1"}]}}, graph_id="d")


class TestStorage:
    def make_dataset(self, seed=0, count=5):
        rng = random.Random(seed)
        graphs = tuple(random_graph(rng, f"g{i}", max_nodes=8, max_edges=12) for i in range(count))
        labels = {g.graph_id: rng.choice(["red", "blue"]) for g in graphs}
        return Dataset(GraphFamily(graphs), labels, {"source": "test"})

    def test_round_trip_identity(self, tmp_path):
        ds = self.make_dataset()
        save_internal(ds, tmp_path / "d")
        loaded = load_internal(tmp_path / "d")
        assert loaded.family == ds.family
        assert loaded.class_labels == ds.class_labels
        assert loaded.meta == ds.meta

    def test_save_is_byte_stable(self, tmp_path):
        ds = self.make_dataset()
        save_internal(ds, tmp_path / "a")
        save_internal(load_internal(tmp_path / "a"), tmp_path / "b")
        for name in ("graphs.jsonl", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_labels_sorted_in_records(self, tmp_path):
        ds = self.make_dataset()
        save_internal(ds, tmp_path / "d")
        for line in (tmp_path / "d" / "graphs.jsonl").read_text().splitlines():
            rec = json.loads(line)
            for node in rec["nodes"]:
                assert node["labels"] == sorted(node["labels"])

    def test_duplicate_graph_id_rejected(self, tmp_path):
        p = tmp_path / "x.jsonl"
        rec = {"id": "g1", "label": "a", "nodes": [{"id": "n", "labels": ["ent"]}], "edges": []}
        p.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(DataFormatError):
            load_internal(p)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nodes", [{"id": "n", "labels": "ent"}]),
            ("nodes", [{"id": "n", "labels": ["ent"]}, {"id": "n", "labels": ["act"]}]),
            ("id", 7),
            ("edges", [["n", "n"]]),
            ("nodes", [{"id": 1, "labels": ["ent"]}]),
            ("nodes", [{"id": "n", "labels": ["ent", 5]}]),
            ("edges", [["n", "n", "derivedFrom"]]),
            ("edges", [["n", "n", "der"], ["zz", "n", "der"]]),
            ("edges", [["n", "zz", "der"]]),
            ("nodes", [{"id": "n", "labels": []}]),
            ("nodes", [{"id": "n", "labels": ["ent", ""]}]),
        ],
        ids=[
            "string-labels", "duplicate-node", "int-graph-id", "two-item-edge",
            "int-node-id", "int-label", "unknown-edge-label", "undeclared-source",
            "undeclared-destination", "empty-label-list", "empty-label",
        ],
    )
    def test_malformed_record_rejected(self, tmp_path, field, value):
        rec = {"id": "g1", "label": "a", "nodes": [{"id": "n", "labels": ["ent"]}], "edges": []}
        rec[field] = value
        p = tmp_path / "x.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        with pytest.raises(DataFormatError, match=repr(rec["id"])):
            load_internal(p)

    def test_bare_jsonl_loading(self, tmp_path):
        p = tmp_path / "x.jsonl"
        rec = {"id": "g1", "label": "a", "nodes": [{"id": "n", "labels": ["ent"]}], "edges": []}
        p.write_text(json.dumps(rec) + "\n")
        ds = load_internal(p)
        assert len(ds) == 1 and ds.class_labels == {"g1": "a"}

    def test_missing_path(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_internal(tmp_path / "nope")

    def test_load_dataset_reads_every_input_kind(self, tmp_path):
        ds = self.make_dataset()
        save_internal(ds, tmp_path / "d")
        manifest = (tmp_path / "d" / MANIFEST_NAME).read_text(encoding="utf-8")
        (tmp_path / "d" / "other.json").write_text(manifest, encoding="utf-8")
        for name in ("d", f"d/{MANIFEST_NAME}", "d/other.json", "d/graphs.jsonl"):
            loaded = load_dataset(tmp_path / name)
            assert loaded.family == ds.family, name
            assert loaded.class_labels == ds.class_labels, name
        doc = {"entity": {"e1": {"prov:type": "x:A"}}, "activity": {"a1": {}},
               "used": {"_:u1": {"prov:activity": "a1", "prov:entity": "e1"}}}
        (tmp_path / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
        loaded = load_dataset(tmp_path / "doc.json")
        assert loaded.family == load_family(doc, graph_id="doc")
        assert loaded.class_labels == {"doc": "unlabeled"}
        assert loaded.meta == {"source": str(tmp_path / "doc.json")}

    @pytest.mark.parametrize("manifest", [{"format": "provkit-dataset/0"}, {}, [], "x"],
                             ids=["wrong-tag", "no-tag", "array", "string"])
    def test_untagged_manifest_rejected(self, tmp_path, manifest):
        p = tmp_path / MANIFEST_NAME
        p.write_text(json.dumps(manifest), encoding="utf-8")
        for load in (load_internal, load_dataset):
            with pytest.raises(DataFormatError, match="unrecognized manifest format"):
                load(p)

    def test_tagged_manifest_under_any_name(self, tmp_path):
        rec = {"id": "g1", "label": "a", "nodes": [{"id": "n", "labels": ["ent"]}], "edges": []}
        (tmp_path / "x.jsonl").write_text(json.dumps(rec) + "\n", encoding="utf-8")
        manifest = {"format": FORMAT_TAG, "files": ["x.jsonl"], "meta": {"m": 1}}
        (tmp_path / "any.json").write_text(json.dumps(manifest), encoding="utf-8")
        for load in (load_internal, load_dataset):
            ds = load(tmp_path / "any.json")
            assert ds.class_labels == {"g1": "a"} and ds.meta == {"m": 1}

    def test_dataset_label_consistency(self):
        fam = GraphFamily((ProvGraph("g1", {"n": frozenset({"ent"})}, ()),))
        with pytest.raises(ValueError):
            Dataset(fam, {})
        with pytest.raises(ValueError):
            Dataset(fam, {"g1": "a", "g2": "b"})


#: Id characters JSON escapes or that are not ASCII; digits make "n10" < "n2".
ID_CHARS = st.sampled_from(list('n0129"\\é☃ \U0001f600'))
LABELS = ["ent", "act", "ag", "x:A", 'x:"q"', "x:é"]


@st.composite
def shuffled_graphs(draw):
    """Graphs with shuffled node and edge insertion, duplicate triples,
    empty graphs and awkward ids."""
    gids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=3), max_size=4, unique=True))
    graphs = []
    for gid in gids:
        ids = draw(st.lists(
            st.integers(0, 12).map(lambda i: f"n{i}") | st.text(ID_CHARS, min_size=1, max_size=3),
            max_size=8, unique=True,
        ))
        nodes = {
            nid: frozenset(draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3)))
            for nid in ids
        }
        edges = draw(st.lists(st.tuples(
            st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(EDGE_LABEL_ORDER),
        ), max_size=12)) if ids else []
        edges += edges[: draw(st.integers(0, len(edges)))]
        graphs.append(ProvGraph(
            gid,
            dict(draw(st.permutations(list(nodes.items())))),
            tuple(draw(st.permutations(edges))),
        ))
    return tuple(graphs)


def reference_line(graph: ProvGraph, label: str) -> str:
    """One saved record as per-record ``json.dumps`` writes it."""
    record = {
        "id": graph.graph_id,
        "label": label,
        "nodes": [
            {"id": nid, "labels": sorted(labels)} for nid, labels in sorted(graph.nodes.items())
        ],
        "edges": [list(e) for e in sorted(graph.edges)],
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@given(shuffled_graphs())
@settings(max_examples=60, deadline=None)
def test_columns_round_trip_graphs_and_bytes(graphs):
    family = GraphFamily(graphs)
    assert family.graphs == graphs
    assert len(family) == len(graphs)
    labels = {g.graph_id: f'c"{i % 2}é' for i, g in enumerate(graphs)}
    ds = Dataset(family, labels, {"k": "v"})
    text = dataset_texts(ds)["graphs.jsonl"]
    assert text == "\n".join(reference_line(g, labels[g.graph_id]) for g in graphs) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        save_internal(ds, Path(tmp) / "d")
        loaded = load_internal(Path(tmp) / "d")
        assert loaded == ds and loaded.family.graphs == graphs
        # The same records with every node and label list reversed.
        unsorted = Path(tmp) / "unsorted.jsonl"
        records = [json.loads(line) for line in text.splitlines() if line]
        for rec in records:
            rec["nodes"] = [{"id": n["id"], "labels": n["labels"][::-1]} for n in rec["nodes"][::-1]]
        unsorted.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        again = load_internal(unsorted).family
        assert again.label_sets == family.label_sets
        assert again == family


@given(st.integers(0, 2**32), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_views_equal_validated_graphs(seed, count):
    family = random_family(random.Random(seed), count)
    for view in family.graphs:
        again = ProvGraph(view.graph_id, view.nodes, view.edges)
        assert view == again and list(view.nodes) == sorted(view.nodes)
        assert type(view.edges) is tuple and list(view.edges) == sorted(view.edges)
        # Views share the family's label sets instead of copying them.
        assert all(any(labels is s for s in family.label_sets) for labels in view.nodes.values())
    assert GraphFamily(family.graphs) == family


#: Edge label -> PROV-JSON relation section, source field, destination field.
PROV_RELATIONS = {
    "der": ("wasDerivedFrom", "prov:generatedEntity", "prov:usedEntity"),
    "spe": ("specializationOf", "prov:specificEntity", "prov:generalEntity"),
    "alt": ("alternateOf", "prov:alternate1", "prov:alternate2"),
    "wib": ("wasInvalidatedBy", "prov:entity", "prov:activity"),
    "gen": ("wasGeneratedBy", "prov:entity", "prov:activity"),
    "use": ("used", "prov:activity", "prov:entity"),
    "wat": ("wasAttributedTo", "prov:entity", "prov:agent"),
    "waw": ("wasAssociatedWith", "prov:activity", "prov:agent"),
    "abo": ("actedOnBehalfOf", "prov:delegate", "prov:responsible"),
    "wsb": ("wasStartedBy", "prov:activity", "prov:trigger"),
    "web": ("wasEndedBy", "prov:activity", "prov:trigger"),
    "wifb": ("wasInformedBy", "prov:informed", "prov:informant"),
}
SECTION_LABEL = {section: lab for lab, (section, _, _) in PROV_RELATIONS.items()}
PROV_SECTIONS = {"ent": "entity", "act": "activity", "ag": "agent"}


@st.composite
def prov_documents(draw):
    """A random graph rendered as a PROV-JSON document, with the graph each
    label mode should load and the warnings the loader should give.

    ``prov:type`` comes as a string, a list or a ``{"$": ...}`` object; node
    and relation ids sometimes hold arrays of records; some endpoints are
    never declared; a node may be declared in two sections; unknown and
    ``prefix`` sections appear anywhere in the document.
    """
    ids = draw(st.lists(
        st.integers(0, 12).map(lambda i: f"n{i}") | st.text(ID_CHARS, min_size=1, max_size=3),
        min_size=1, max_size=8, unique=True,
    ))
    kinds = {nid: draw(st.sets(st.sampled_from(sorted(PROV_SECTIONS)), min_size=1, max_size=2))
             for nid in ids}
    apps = {nid: draw(st.lists(st.sampled_from(["x:A", 'x:"q"', "x:é", ""]), max_size=3))
            for nid in ids}
    declared = [ids[0]] + [nid for nid in ids[1:] if draw(st.booleans())]

    def prov_type(labels):
        if len(labels) == 1 and draw(st.booleans()):
            return labels[0] if draw(st.booleans()) else {"$": labels[0], "type": "prov:QUALIFIED_NAME"}
        return [lab if draw(st.booleans()) else {"$": lab} for lab in labels]

    sections: dict[str, dict] = {}
    for nid in declared:
        first, *rest = draw(st.permutations(sorted(kinds[nid])))
        cut = draw(st.integers(0, len(apps[nid])))
        records = [{"prov:type": prov_type(part)}
                   for part in (apps[nid][:cut], apps[nid][cut:]) if part]
        entry = records[0] if len(records) == 1 and draw(st.booleans()) else records
        if not records and draw(st.booleans()):
            entry = {"prov:label": "no type"}
        sections.setdefault(PROV_SECTIONS[first], {})[nid] = entry
        for kind in rest:
            sections.setdefault(PROV_SECTIONS[kind], {})[nid] = {}
    edges = draw(st.lists(st.tuples(
        st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(sorted(PROV_RELATIONS)),
    ), max_size=12))
    for i, (src, dst, lab) in enumerate(edges):
        section, src_field, dst_field = PROV_RELATIONS[lab]
        members = sections.setdefault(section, {})
        record = {src_field: src, dst_field: dst, "prov:role": "x:r"}
        last = next(reversed(members), None)
        if last is not None and draw(st.booleans()):  # an array under one relation id
            members[last] = (members[last] if isinstance(members[last], list) else [members[last]])
            members[last].append(record)
        else:
            members[f"_:r{i}"] = record
    unknown = draw(st.sampled_from([[], ["bundle"], ["x:custom", "bundle"]]))
    for name in unknown:
        sections[name] = {"b1": {}}
    if draw(st.booleans()):
        sections["prefix"] = {"x": "http://example.org/"}
    doc = json.loads(json.dumps(dict(draw(st.permutations(list(sections.items()))))))

    # Undeclared endpoints take the kind of their first reference in document order.
    nodes = {nid: set(kinds[nid]) for nid in declared}
    expected_warnings = []
    for section, members in doc.items():
        if section not in SECTION_LABEL:
            continue
        lab = SECTION_LABEL[section]
        _, src_field, dst_field = PROV_RELATIONS[lab]
        for entry in members.values():
            for rec in entry if isinstance(entry, list) else [entry]:
                for endpoint, kind in zip((rec[src_field], rec[dst_field]), EDGE_KINDS[lab]):
                    if endpoint not in nodes:
                        nodes[endpoint] = {kind}
                        expected_warnings.append(
                            f"d: auto-declared {endpoint!r} as {kind!r} (referenced by {section})")
    if unknown:
        expected_warnings.append(f"d: skipped unsupported sections: {sorted(unknown)}")
    generic = ProvGraph("d", {nid: frozenset(labels) for nid, labels in nodes.items()}, tuple(edges))
    application = ProvGraph("d", {
        nid: frozenset(labels | set(filter(None, apps[nid])) if nid in declared else labels)
        for nid, labels in nodes.items()
    }, tuple(edges))
    return doc, {"generic": generic, "application": application}, expected_warnings


@given(prov_documents())
@settings(max_examples=80, deadline=None)
def test_provjson_loads_to_the_rendered_graph(case):
    doc, expected, expected_warnings = case
    for mode, graph in expected.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            family = load_family(doc, mode, graph_id="d")
        assert [str(w.message) for w in caught if w.category is ProvJsonWarning] == expected_warnings
        assert family == GraphFamily((graph,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ProvJsonWarning)
            assert load_provjson(doc, mode, graph_id="d") == graph
        ds = Dataset(family, {"d": "c"}, {"source": "doc.json"})
        with tempfile.TemporaryDirectory() as tmp:
            save_internal(ds, Path(tmp) / "ds")
            assert load_internal(Path(tmp) / "ds") == ds


@pytest.mark.parametrize("enabled", [True, False])
def test_ingest_restores_the_callers_gc_state(tmp_path, enabled):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope", encoding="utf-8")
    good_doc = {"entity": {"e1": {}}, "used": {"_:u1": {"prov:activity": "a1", "prov:entity": "e1"}}}
    bad_endpoint = {"entity": {"e1": {}}, "used": {"_:u1": {"prov:activity": 5, "prov:entity": "e1"}}}
    save_internal(Dataset(GraphFamily((g({"a": {"ent"}}, []),)), {"g": "c"}), tmp_path / "ds")
    bad_record = tmp_path / "bad.jsonl"
    bad_record.write_text('{"id": "g", "label": "c"}\n', encoding="utf-8")
    bad_line = tmp_path / "line.jsonl"
    bad_line.write_text("{nope\n", encoding="utf-8")

    good_json = tmp_path / "good.json"
    good_json.write_text(json.dumps(good_doc), encoding="utf-8")

    def cli_types():
        assert main(["types", "--data", str(good_json), "--out", str(tmp_path / "t.jsonl")]) == 0
        assert main(["types", "--data", str(bad_json)]) == 3

    loads = [
        (lambda: load_family(good_doc, graph_id="d"), None),
        (lambda: load_dataset(bad_json), DataFormatError),
        (lambda: load_family(bad_endpoint, graph_id="d"), DataFormatError),
        (lambda: load_internal(tmp_path / "ds"), None),
        (lambda: load_internal(bad_record), DataFormatError),
        (lambda: load_internal(bad_line), DataFormatError),
        (cli_types, None),
    ]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for load, error in loads:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ProvJsonWarning)
                if error is None:
                    load()
                else:
                    with pytest.raises(error):
                        load()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
