"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed (``setup``), names
the ``provkit`` CLI invocations that make up one timed iteration
(``steps``), hashes the artifacts those invocations leave (``artifacts``),
checks them against independent computations (``checks``), and replays the
same library calls in-process under the tracer (``replay``).  The replay
follows the order in which ``provkit.cli`` calls the public functions.

Only ``--seed`` changes the simulated inputs; every other ``SimParams``
field keeps its default unless the smoke sizes shrink the run length.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from provkit import baselines, kernel, mlpipe, pgsim, provjson, storage, typeinf
from provkit.model import Dataset, GraphFamily, ProvGraph
from provkit.typeinf import PType, enumerate_label_walks, type_from_walks

#: The CV seed is fixed; the workload seed only changes the graphs.
CV_SEED = 0
#: Seeds the choice of sampled graphs, nodes and pairs, so the sampled
#: positions are the same for every workload seed.
SAMPLE_SEED = 20_101_034
APP = "application"


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``SMOKE`` a seconds-long check."""

    gram_runs: int = 3       # typed-gram: disposal runs in the dataset
    xval_runs: int = 6       # xval: targeting runs in the dataset
    ticks: int | None = None  # None keeps the SimParams default
    k: int = 10
    repeats: int = 10


FULL = Sizes()
SMOKE = Sizes(gram_runs=1, xval_runs=1, ticks=40, k=3, repeats=2)


class CheckFailed(Exception):
    """An artifact disagrees with its independent computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def report_digest(path: Path) -> str:
    """Hash of an xval report without its one wall-time field."""
    blob = json.loads(Path(path).read_text(encoding="utf-8"))
    blob.pop("featurize_seconds")
    text = json.dumps(blob, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


# --- traced library calls shared by set-up and replay ----------------------


def _count_run(tr):
    def after(graphs):
        tr.count("pgsim.graphs", len(graphs))
        tr.count("pgsim.edges", sum(g.n_edges for g in graphs))
    return after


def simulate_dataset(tr, params: pgsim.SimParams, out: Path) -> Dataset:
    """``provkit simulate``: generate, then save_internal into ``out``."""
    with tr.patched(pgsim, "simulate_run", "pgsim.simulate_run", _count_run(tr)):
        ds = tr.call("pgsim.generate_dataset", pgsim.generate_dataset, params)
    tr.call("storage.save_internal", storage.save_internal, ds, out)
    tr.count("storage.bytes_written", dir_bytes(out))
    return ds


def load_dataset(tr, path: Path) -> Dataset:
    ds = tr.call("storage.load_internal", storage.load_internal, path)
    tr.count("storage.bytes_read", dir_bytes(path))
    return ds


def infer(tr, family: GraphFamily, h: int) -> typeinf.TypeAssignment:
    assign = tr.call("typeinf.infer_types", typeinf.infer_types, family, h, APP)
    tr.count("typeinf.nodes", sum(g.n_nodes for g in family))
    tr.count("typeinf.edges", sum(g.n_edges for g in family))
    return assign


def universe(tr, assign) -> kernel.TypeUniverse:
    u = tr.call("kernel.build_universe", kernel.build_universe, assign)
    for d in range(6):
        tr.gauge(f"kernel.universe_size.d{d}", u.size(d) if d <= u.h_max else 0)
    return u


def typed_gram(tr, family: GraphFamily, h: int) -> kernel.GramMatrix:
    assign = infer(tr, family, h)
    fm = tr.call("kernel.featurize", kernel.featurize, assign, universe(tr, assign))
    return tr.call("kernel.gram", kernel.gram, fm, h, normalize=True)


def cross_validate(tr, gm, labels, sizes: Sizes, threads: int) -> mlpipe.CvReport:
    def after(model):
        tr.count("mlpipe.folds", 1)
        tr.count("svm.smo_iters", sum(m.n_iter for m in model.models))
        tr.count("svm.unconverged", sum(not m.converged for m in model.models))
        tr.count("svm.support_vectors", sum(len(m.support) for m in model.models))

    with tr.patched(mlpipe, "svm_train", "svm.svm_train", after):
        return tr.call(
            "mlpipe.repeated_kfold", mlpipe.repeated_kfold, gm.values, labels,
            k=sizes.k, repeats=sizes.repeats, seed=CV_SEED, threads=threads,
        )


# --- checks shared by several workloads ------------------------------------


def sample_nodes(graphs, n_graphs: int = 3, n_nodes: int = 8):
    rng = random.Random(SAMPLE_SEED)
    picks = sorted(rng.sample(range(len(graphs)), min(n_graphs, len(graphs))))
    out = []
    for gi in picks:
        ids = sorted(graphs[gi].nodes)
        out.extend((graphs[gi], nid) for nid in rng.sample(ids, min(n_nodes, len(ids))))
    return out


def check_oracle(samples, h: int, type_of) -> None:
    """``type_of(graph, node, depth)`` must equal the walk-enumeration oracle."""
    for g, nid in samples:
        for d in range(h + 1):
            want = type_from_walks(enumerate_label_walks(g, nid, d), d)
            got = type_of(g, nid, d)
            expect(got == want, f"{g.graph_id}/{nid} depth {d}: {got!r} != oracle {want!r}")


def check_reload(path: Path, mode: str, runs: int, seed: int) -> None:
    """A simulated dataset reloads with 30 graphs per run and its own meta."""
    ds = storage.load_internal(path)
    want = runs * pgsim.SimParams().n_players
    expect(len(ds) == want, f"{mode}: {len(ds)} graphs, expected {want}")
    expect(set(ds.class_labels.values()) <= set(pgsim.TEAMS), f"{mode}: unexpected class labels")
    expect(ds.meta.get("mode") == mode and ds.meta.get("seed") == seed,
           f"{mode}: manifest meta {ds.meta.get('mode')}/{ds.meta.get('seed')}")


def in_process_type_of(h: int):
    """Per-graph ``infer_types``; types never cross graphs, so this is exact."""
    cache: dict[str, typeinf.TypeAssignment] = {}

    def type_of(g: ProvGraph, nid: str, d: int) -> PType:
        if g.graph_id not in cache:
            cache[g.graph_id] = typeinf.infer_types(GraphFamily((g,)), h, APP)
        return cache[g.graph_id].get(g.graph_id, nid, d)

    return type_of


def read_csv(path: Path) -> tuple[list[str], dict[str, list[str]]]:
    rows = list(csv.reader(io.StringIO(Path(path).read_text(encoding="utf-8"))))
    return rows[0][1:], {r[0]: r[1:] for r in rows[1:]}


def t_depth(feature_name: str) -> int:
    """Depth of a feature name such as ``FA3_12``."""
    return int(feature_name[2:].split("_")[0])


# --- workloads -------------------------------------------------------------


@dataclass
class Workload:
    seed: int
    sizes: Sizes
    threads: int = 1
    #: Edges the timed iteration consumes.
    edges: int = 0
    state: dict = field(default_factory=dict)

    name = ""

    def params(self, mode: str, runs: int) -> pgsim.SimParams:
        extra = {} if self.sizes.ticks is None else {"max_ticks": self.sizes.ticks}
        return pgsim.SimParams(mode=mode, seed=self.seed, n_sims=runs, **extra)

    def setup(self, d: Path, tr) -> dict:
        """Write the inputs under ``d``; the returned state feeds the checks."""
        raise NotImplementedError

    def steps(self, inp: Path, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def artifacts(self, out: Path) -> dict[str, str]:
        raise NotImplementedError

    def checks(self, inp: Path, out: Path) -> list[tuple[str, object]]:
        raise NotImplementedError

    def replay(self, inp: Path, tr) -> None:
        raise NotImplementedError


class TypedGram(Workload):
    """``featurize`` then ``gram --normalize`` at A3 on a disposal dataset:
    JSONL ingest, h=3 inference, universe build and featurize dominate, with
    no simulator and no SVM timed.  12*3+11 = 47 label bits fit one word."""

    name = "typed-gram"

    def setup(self, d, tr):
        ds = simulate_dataset(tr, self.params("disposal", self.sizes.gram_runs), d / "disposal")
        self.edges = sum(g.n_edges for g in ds.family)
        return {"graphs": list(ds.family)}

    def steps(self, inp, out):
        data = str(inp / "disposal")
        return [
            ["featurize", "--data", data, "--method", "A3", "--out", str(out / "features.csv")],
            ["gram", "--data", data, "--method", "A3", "--normalize",
             "--out", str(out / "gram.csv")],
        ]

    def artifacts(self, out):
        return {name: sha256(out / name)
                for name in ("features.csv", "features.names.json", "gram.csv")}

    def checks(self, inp, out):
        graphs = self.state["graphs"]
        samples = sample_nodes(graphs)
        picked = list({g.graph_id: g for g, _ in samples}.values())
        type_of = in_process_type_of(3)

        def oracle():
            check_oracle(samples, 3, type_of)

        def features():
            header, rows = read_csv(out / "features.csv")
            names = json.loads((out / "features.names.json").read_text(encoding="utf-8"))
            expect(sorted(header) == sorted(names), "feature columns differ from the names sidecar")
            expect(list(rows) == [g.graph_id for g in graphs], "feature rows out of order")
            for g in picked:
                want = Counter()
                for nid in g.nodes:
                    for d in range(4):
                        t = type_of(g, nid, d)
                        if not t.is_empty:
                            want[(d, json.dumps(t.to_jsonable()))] += 1
                got = {
                    (t_depth(name), json.dumps(names[name])): int(v)
                    for name, v in zip(header, rows[g.graph_id]) if v != "0"
                }
                expect(got == dict(want), f"{g.graph_id}: feature row disagrees")

        def gram_pairs():
            fam = GraphFamily(tuple(picked))
            assign = typeinf.infer_types(fam, 3, APP)
            fm = kernel.featurize(assign, kernel.build_universe(assign))
            raw = kernel.gram(fm, 3).values
            header, rows = read_csv(out / "gram.csv")
            col = {gid: i for i, gid in enumerate(header)}
            ids = [g.graph_id for g in picked]
            for i, p in enumerate(ids):
                for j, q in enumerate(ids):
                    kv = kernel.kernel_value(fm, p, q)
                    expect(int(raw[i, j]) == kv, f"gram[{p},{q}] {raw[i, j]} != {kv}")
                    cell = format(float(np.float64(kv) / np.sqrt(
                        np.float64(raw[i, i]) * np.float64(raw[j, j]))), ".17g")
                    got = rows[p][col[q]]
                    expect(got == cell, f"normalized gram[{p},{q}] {got} != {cell}")

        return [("set-up dataset reloads through load_internal",
                 lambda: check_reload(inp / "disposal", "disposal", self.sizes.gram_runs, self.seed)),
                ("h=3 types match walk oracle", oracle),
                ("feature rows match per-graph inference", features),
                ("gram entries match kernel_value", gram_pairs)]

    def replay(self, inp, tr):
        data = inp / "disposal"
        ds = load_dataset(tr, data)  # featurize
        assign = infer(tr, ds.family, 3)
        fm = tr.call("kernel.featurize", kernel.featurize, assign, universe(tr, assign))
        tr.call("kernel.features_to_csv", kernel.features_to_csv, fm)
        ds = load_dataset(tr, data)  # gram --normalize
        gm = typed_gram(tr, ds.family, 3)
        tr.call("kernel.gram_to_csv", kernel.gram_to_csv, gm)


class Xval(Workload):
    """The paper's experiment on a targeting dataset: A3 and WL h=3 repeated
    SMO cross-validation with ``--threads`` set to nproc, then ``compare``."""

    name = "xval"
    reports = ("a3.json", "wl3.json")

    def setup(self, d, tr):
        ds = simulate_dataset(tr, self.params("targeting", self.sizes.xval_runs), d / "targeting")
        self.edges = sum(g.n_edges for g in ds.family)
        return {"graphs": list(ds.family)}

    def steps(self, inp, out):
        data = str(inp / "targeting")
        cv = ["--threads", str(self.threads), "--k", str(self.sizes.k),
              "--repeats", str(self.sizes.repeats), "--seed", str(CV_SEED)]
        return [
            ["xval", "--data", data, "--method", "A3", "--normalize", *cv,
             "--out", str(out / self.reports[0])],
            ["xval", "--data", data, "--kernel", "wl", "--h", "3", "--normalize", *cv,
             "--out", str(out / self.reports[1])],
            ["compare", str(out / self.reports[0]), str(out / self.reports[1]),
             "--out", str(out / "verdict.json")],
        ]

    def artifacts(self, out):
        digests = {name: report_digest(out / name) for name in self.reports}
        digests["verdict.json"] = sha256(out / "verdict.json")
        return digests

    def checks(self, inp, out):
        def reports():
            parsed = []
            for name in self.reports:
                blob = json.loads((out / name).read_text(encoding="utf-8"))
                acc = blob["accuracies"]
                expect(len(acc) == self.sizes.k * self.sizes.repeats,
                       f"{name}: {len(acc)} fold accuracies")
                expect(all(0.0 <= a <= 1.0 for a in acc), f"{name}: accuracy outside [0, 1]")
                expect(blob["mean"] == float(np.mean(acc)), f"{name}: mean disagrees")
                parsed.append(mlpipe.CvReport.from_jsonable(blob))
            want = mlpipe.compare_reports(*parsed, "a3", "wl3")
            got = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
            expect(got == want, f"compare verdict {got} != in-process {want}")

        def oracle():
            check_oracle(sample_nodes(self.state["graphs"]), 3, in_process_type_of(3))

        return [("set-up dataset reloads through load_internal",
                 lambda: check_reload(inp / "targeting", "targeting", self.sizes.xval_runs, self.seed)),
                ("reports and verdict agree", reports),
                ("h=3 types match walk oracle", oracle)]

    def replay(self, inp, tr):
        data = inp / "targeting"
        results = []
        for kern in ("pk", "wl"):
            ds = load_dataset(tr, data)
            if kern == "pk":
                gm = typed_gram(tr, ds.family, 3)
            else:
                gm = tr.call("baselines.wl_gram", baselines.wl_gram, ds.family, 3, APP,
                             normalize=True)
            labels = np.array(ds.labels_in_family_order())
            results.append(cross_validate(tr, gm, labels, self.sizes, self.threads))
        tr.call("mlpipe.compare_reports", mlpipe.compare_reports, *results, "a3", "wl3")


#: PROV-JSON relation section and endpoint fields for each simulator edge label.
_PROV_RELATIONS = {
    "use": ("used", "prov:activity", "prov:entity"),
    "gen": ("wasGeneratedBy", "prov:entity", "prov:activity"),
    "der": ("wasDerivedFrom", "prov:generatedEntity", "prov:usedEntity"),
    "spe": ("specializationOf", "prov:specificEntity", "prov:generalEntity"),
    "waw": ("wasAssociatedWith", "prov:activity", "prov:agent"),
}
_PROV_SECTIONS = {"ent": "entity", "act": "activity", "ag": "agent"}


def prov_document(graphs: list[ProvGraph]) -> dict:
    """One PROV-JSON document holding every graph, ids prefixed by graph id."""
    doc: dict[str, dict] = {}
    n = 0
    for g in graphs:
        for nid, labels in sorted(g.nodes.items()):
            (kind,) = labels & set(_PROV_SECTIONS)
            app = sorted(labels - {kind})
            attrs = {"prov:type": app[0] if len(app) == 1 else app} if app else {}
            doc.setdefault(_PROV_SECTIONS[kind], {})[f"{g.graph_id}:{nid}"] = attrs
        for src, dst, lab in g.edges:
            section, src_field, dst_field = _PROV_RELATIONS[lab]
            doc.setdefault(section, {})[f"_:{lab}{n}"] = {
                src_field: f"{g.graph_id}:{src}",
                dst_field: f"{g.graph_id}:{dst}",
            }
            n += 1
    return doc


class ProvjsonDeep(Workload):
    """``types`` at A5 and two ``explain`` calls on one PROV-JSON document:
    covers the PROV-JSON loader, ``dump_types``, the explain path and h=5,
    whose 12*5+11 = 71 label bits do not fit one 64-bit word."""

    name = "provjson-deep"
    doc_name = "players.json"

    def setup(self, d, tr):
        d.mkdir(parents=True, exist_ok=True)
        params = self.params("disposal", 1)
        with tr.patched(pgsim, "simulate_run", "pgsim.simulate_run", _count_run(tr)):
            graphs = pgsim.simulate_run(params, 0)
        (d / self.doc_name).write_text(
            json.dumps(prov_document(graphs), sort_keys=True), encoding="utf-8")
        self.edges = sum(g.n_edges for g in graphs)
        # F and G: the two depth-5 features with the most instances.
        assign = typeinf.infer_types(GraphFamily(tuple(graphs)), 5, APP)
        u = kernel.build_universe(assign)
        counts = Counter(
            types[5] for gid in assign.graph_ids
            for types in assign.by_graph[gid].values() if not types[5].is_empty
        )
        top = sorted(counts, key=lambda t: (-counts[t], u.index_of(t)))[:2]
        expect(len(top) == 2, "fewer than two depth-5 types")
        f, g = (u.feature_name(5, u.index_of(t)) for t in top)
        return {"graphs": graphs, "assign": assign, "F": f, "G": g,
                "F_type": top[0], "G_type": top[1]}

    def steps(self, inp, out):
        doc = str(inp / self.doc_name)
        f, g = self.state["F"], self.state["G"]
        return [
            ["types", "--data", doc, "--method", "A5", "--out", str(out / "types.jsonl")],
            ["explain", "--data", doc, "--feature", f, "--out", str(out / "explain.json")],
            ["explain", "--data", doc, "--feature", f, "--distance-to", g,
             "--out", str(out / "distance.json")],
        ]

    def artifacts(self, out):
        return {name: sha256(out / name)
                for name in ("types.jsonl", "explain.json", "distance.json")}

    def checks(self, inp, out):
        st = self.state
        stem = Path(self.doc_name).stem

        def oracle():
            samples = sample_nodes(st["graphs"])
            wanted = {f"{g.graph_id}:{nid}" for g, nid in samples}
            found: dict[tuple[str, int], PType] = {}
            with open(out / "types.jsonl", encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    if rec["node"] in wanted:
                        found[(rec["node"], rec["depth"])] = PType.from_jsonable(rec["type"])
            check_oracle(samples, 5, lambda g, nid, d: found[(f"{g.graph_id}:{nid}", d)])

        def explain():
            blob = json.loads((out / "explain.json").read_text(encoding="utf-8"))
            assign = st["assign"]
            want = sorted(
                [stem, f"{gid}:{nid}"]
                for gid in assign.graph_ids
                for nid, types in assign.by_graph[gid].items()
                if types[5] == st["F_type"]
            )
            expect(blob["feature"] == st["F"], "explain names another feature")
            expect(blob["type"] == st["F_type"].to_jsonable(), "explain type disagrees")
            expect(blob["instances"] == want,
                   f"{len(blob['instances'])} instances, expected {len(want)}")

        def distance():
            blob = json.loads((out / "distance.json").read_text(encoding="utf-8"))
            want = kernel.distance_report(st["F_type"], st["G_type"])
            expect(blob == want, f"distance {blob['distance']} != {want['distance']}")

        return [("h=5 types match walk oracle", oracle),
                ("explain instances match per-graph inference", explain),
                ("explain distance matches hamming_distance", distance)]

    def replay(self, inp, tr):
        path = inp / self.doc_name
        f, g = self.state["F"], self.state["G"]

        def load():
            doc = json.loads(path.read_text(encoding="utf-8"))
            graph = tr.call("provjson.load_provjson", provjson.load_provjson, doc, APP,
                            graph_id=path.stem)
            return GraphFamily((graph,))

        assign = infer(tr, load(), 5)  # types
        text = tr.call("typeinf.dump_types", typeinf.dump_types, assign)
        tr.count("typeinf.dump_bytes", len(text.encode("utf-8")))
        for distance_to in (None, g):  # explain, then explain --distance-to
            assign = infer(tr, load(), 5)
            u = universe(tr, assign)
            t_f = u.feature_lookup(f)
            if distance_to is None:
                hits = tr.call("kernel.retrieve_instances", kernel.retrieve_instances,
                               assign, t_f)
                tr.count("kernel.instances", len(hits))
            else:
                with tr.patched(kernel, "hamming_distance", "kernel.hamming_distance"):
                    tr.call("kernel.distance_report", kernel.distance_report,
                            t_f, u.feature_lookup(distance_to))


WORKLOADS = {w.name: w for w in (TypedGram, Xval, ProvjsonDeep)}


def nproc() -> int:
    return len(os.sched_getaffinity(0))
