from __future__ import annotations

import json
import random

import pytest

from conftest import random_graph
from provkit.fixtures import admission_fixture
from provkit.model import (
    Dataset,
    GraphFamily,
    ProvGraph,
    dependency_subgraph,
    graph_summary,
    validate_labels,
)
from provkit.provjson import DataFormatError, ProvJsonWarning, load_provjson
from provkit.storage import load_internal, save_internal


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
            graph.strip_application_labels()


class TestValidate:
    def test_clean_graph_has_no_advisories(self):
        assert validate_labels(admission_fixture()) == []

    def test_kind_mismatch_reported(self):
        graph = g({"a": {"act"}, "b": {"act"}}, [("a", "b", "use")])
        out = validate_labels(graph)
        assert len(out) == 1 and "destination" in out[0]

    def test_never_rejects(self):
        rng = random.Random(0)
        graph = random_graph(rng)
        advisories = validate_labels(graph)
        assert isinstance(advisories, list)


class TestDependencySubgraph:
    def test_chain(self):
        graph = g(
            {"a": {"ent"}, "b": {"ent"}, "c": {"ent"}, "d": {"ent"}},
            [("a", "b", "der"), ("b", "c", "der"), ("d", "a", "alt")],
        )
        sub = dependency_subgraph(graph, "c")
        assert set(sub.nodes) == {"a", "b", "c", "d"}
        sub2 = dependency_subgraph(graph, "b")
        assert set(sub2.nodes) == {"a", "b", "d"}
        assert sub2.n_edges == 2

    def test_source_only(self):
        graph = g({"a": {"ent"}, "b": {"ent"}}, [("a", "b", "der")])
        sub = dependency_subgraph(graph, "a")
        assert set(sub.nodes) == {"a"} and sub.n_edges == 0

    def test_cycle_includes_node_itself(self):
        graph = g({"a": {"ent"}, "b": {"ent"}}, [("a", "b", "der"), ("b", "a", "der")])
        sub = dependency_subgraph(graph, "a")
        assert set(sub.nodes) == {"a", "b"} and sub.n_edges == 2

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            dependency_subgraph(g({"a": {"ent"}}, []), "zz")


def test_graph_summary_counts_multilabels():
    graph = g(
        {"a": {"ent", "x:P"}, "b": {"act"}},
        [("a", "b", "gen"), ("a", "b", "gen")],
    )
    s = graph_summary(graph)
    assert (s.n_nodes, s.n_edges) == (2, 2)
    assert s.node_labels == {"ent": 1, "x:P": 1, "act": 1}
    assert s.edge_labels == {"gen": 2}


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
        graph = load_provjson(p)
        assert graph.graph_id == "doc"
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(DataFormatError):
            load_provjson(bad)
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
        assert validate_labels(graph) == []


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
        ],
        ids=[
            "string-labels", "duplicate-node", "int-graph-id", "two-item-edge",
            "int-node-id", "int-label",
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

    def test_dataset_label_consistency(self):
        fam = GraphFamily((ProvGraph("g1", {"n": frozenset({"ent"})}, ()),))
        with pytest.raises(ValueError):
            Dataset(fam, {})
        with pytest.raises(ValueError):
            Dataset(fam, {"g1": "a", "g2": "b"})
