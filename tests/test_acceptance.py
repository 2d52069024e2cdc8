"""Acceptance checks: one test per shipping criterion, run with plain pytest.

Each test prints a single ``criterion NN ... PASS``/``FAIL`` line (shown
with ``pytest -s``; under ``pytest -v`` the per-test outcome row carries
the same information).  The two simulated datasets are built once per
session and shared between the structure, classification, metric, and
determinism checks so the module stays inside its end-to-end time budget.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from conftest import generic_graph, random_family, walk_oracle_types
from provkit.baselines import eh_gram, vh_gram, wl_colorings, wl_gram
from provkit.cli import main as cli_main
from provkit.fixtures import admission_fixture, feature_vector_fixture, pattern_fixtures
from provkit.kernel import build_universe, featurize, gram, hamming_distance
from provkit.mlpipe import mannwhitney_u, repeated_kfold
from provkit.model import EDGE_LABELS, GraphFamily, ProvGraph
from provkit.pgsim import APPLICATION_LABELS, SimParams, generate_dataset
from provkit.storage import dataset_texts
from provkit.typeinf import (
    LabelWalk,
    PType,
    enumerate_label_walks,
    infer_types,
    is_extension,
)

EDGE_LABEL_LIST = sorted(EDGE_LABELS)
APP_POOL = ("app:A", "app:B", "app:C", "app:D")


def t(*layers) -> PType:
    return PType(tuple(frozenset(l) for l in layers))


def criterion(number: int, title: str):
    """Wrap a test so it reports its verdict on one printed line."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({title}): FAIL")
                raise
            print(f"criterion {number:2d} ({title}): PASS")

        return wrapper

    return deco


@pytest.fixture(scope="session")
def pipelines():
    """Both simulated datasets, typed and kernelized once for the session."""
    out = {}
    for mode in ("targeting", "disposal"):
        t0 = time.perf_counter()
        ds = generate_dataset(SimParams(mode=mode, seed=0))
        sim_seconds = time.perf_counter() - t0
        t1 = time.perf_counter()
        assign = infer_types(ds.family, 3, "application")
        fm = featurize(assign, build_universe(assign))
        gm = gram(fm, 3, normalize=True)
        featurize_seconds = time.perf_counter() - t1
        out[mode] = {
            "ds": ds,
            "assign": assign,
            "gram": gm,
            "sim_seconds": sim_seconds,
            "featurize_seconds": featurize_seconds,
        }
    return out


@criterion(1, "golden worked examples")
def test_01_golden_worked_examples():
    graph = admission_fixture()
    walks = enumerate_label_walks(generic_graph(graph), "patient7_3", 2)
    assert walks == {
        LabelWalk(("gen", "use"), frozenset({"ent"})),
        LabelWalk(("gen", "waw"), frozenset({"ag"})),
        LabelWalk(("der", "der"), frozenset({"ent"})),
        LabelWalk(("der", "gen"), frozenset({"act"})),
    }

    fam = GraphFamily((graph,))
    gen = infer_types(fam, 2, "generic")
    app = infer_types(fam, 2, "application")

    assert gen.get("admission", "patient7_3", 2) == t(
        {"gen", "der"}, {"use", "waw", "der", "gen"}, {"ag", "act", "ent"}
    )

    adm = [gen.get("admission", "admitting3", d) for d in range(3)]
    tre = [gen.get("admission", "treating5", d) for d in range(3)]
    assert adm[0] == tre[0] == t({"act"})
    assert adm[1] == tre[1] == t({"use", "waw"}, {"ag", "ent"})
    assert adm[2] == t({"use"}, {"der"}, {"ent"})
    assert tre[2] == t({"use"}, {"der", "gen"}, {"act", "ent"})

    adm_a = [app.get("admission", "admitting3", d) for d in range(3)]
    tre_a = [app.get("admission", "treating5", d) for d in range(3)]
    assert adm_a[0] == t({"act", "mimic:Admitting"})
    assert tre_a[0] == t({"act", "mimic:Treating"})
    assert adm_a[1] == tre_a[1] == t(
        {"use", "waw"}, {"ag", "ent", "mimic:Patient", "mimic:Ward"}
    )
    assert adm_a[2] == t({"use"}, {"der"}, {"ent", "mimic:Patient"})
    assert tre_a[2] == t(
        {"use"}, {"der", "gen"}, {"act", "ent", "mimic:Admitting", "mimic:Patient"}
    )

    assert hamming_distance(adm[2], tre[2]) == Fraction(2, 5)

    deep = gen.get("admission", "patient7_1", 2)
    shallow = gen.get("admission", "patient7_0", 1)
    assert deep == t({"der"}, {"spe"}, {"ent"})
    assert shallow == t({"spe"}, {"ent"})
    assert is_extension(deep, shallow)


@criterion(2, "feature vector counts")
def test_02_feature_vector_counts():
    g = feature_vector_fixture()
    assign = infer_types(GraphFamily((g,)), 1, "generic")
    universe = build_universe(assign)
    assert universe.size(0) == 3 and universe.size(1) == 4
    fm = featurize(assign, universe)
    assert fm.vector("vecfix") == [5, 2, 2, 2, 1, 1, 2]


def _random_multigraph(rng: random.Random, gid: str) -> ProvGraph:
    n = rng.randint(1, 25)
    ids = [f"n{i}" for i in range(n)]
    nodes = {}
    for nid in ids:
        labels = {rng.choice(("ent", "act", "ag"))}
        for _ in range(rng.randint(0, 2)):
            labels.add(rng.choice(APP_POOL))
        nodes[nid] = frozenset(labels)
    m = rng.randint(0, 60)
    edges = tuple(
        (rng.choice(ids), rng.choice(ids), rng.choice(EDGE_LABEL_LIST))
        for _ in range(m)
    )
    return ProvGraph(gid, nodes, edges)


@criterion(3, "inference matches the walk oracle")
def test_03_inference_matches_walk_oracle():
    rng = random.Random(20260819)
    t0 = time.perf_counter()
    for i in range(1000):
        g = _random_multigraph(rng, f"g{i}")
        mode = "application" if i % 2 else "generic"
        assign = infer_types(GraphFamily((g,)), 4, mode)
        gg = generic_graph(g) if mode == "generic" else g
        oracle = walk_oracle_types(gg, 4)
        for nid in gg.nodes:
            got = tuple(assign.get(g.graph_id, nid, d) for d in range(5))
            want = oracle[nid]
            assert got == want
    assert time.perf_counter() - t0 < 120


@criterion(4, "depth-zero kernel equals the vertex histogram")
def test_04_depth_zero_equals_vertex_histogram():
    for seed in range(100):
        rng = random.Random(seed)
        fam = random_family(rng, 5, max_nodes=12, max_edges=25)
        mode = "application" if seed % 2 else "generic"
        assign = infer_types(fam, 0, mode)
        fm = featurize(assign, build_universe(assign))
        assert np.array_equal(gram(fm, 0).values, vh_gram(fam, mode).values)


@criterion(5, "gram matrices are numerically PSD")
def test_05_gram_matrices_psd():
    for seed in (11, 12, 13):
        rng = random.Random(seed)
        fam = random_family(rng, 50, max_nodes=15, max_edges=35)
        assign = infer_types(fam, 5, "application")
        fm = featurize(assign, build_universe(assign))
        mats = [gram(fm, h).values for h in range(6)]
        mats.append(vh_gram(fam).values)
        mats.append(eh_gram(fam).values)
        mats.append(wl_gram(fam, 3).values)
        for m in mats:
            m = m.astype(np.float64)
            assert np.linalg.eigvalsh(m).min() >= -1e-8 * np.trace(m)


@criterion(6, "type distance is a metric")
def test_06_type_distance_is_a_metric(pipelines):
    pool: dict[int, list[PType]] = defaultdict(list)
    for mode in ("targeting", "disposal"):
        assign = pipelines[mode]["assign"]
        for gid in assign.graph_ids[:40]:
            for types in assign.by_graph[gid].values():
                for depth, tt in enumerate(types):
                    if not tt.is_empty:
                        pool[depth].append(tt)
    depths = sorted(pool)
    rng = random.Random(7)
    for _ in range(10_000):
        depth = rng.choice(depths)
        a, b, c = (rng.choice(pool[depth]) for _ in range(3))
        dab = hamming_distance(a, b)
        assert 0 <= dab <= 1
        assert dab == hamming_distance(b, a)
        assert hamming_distance(a, a) == 0
        if dab == 0:
            assert a == b
        assert hamming_distance(a, c) <= dab + hamming_distance(b, c)


@criterion(7, "same 2-type, different WL colorings")
def test_07_patterns_split_wl_not_types():
    p1, p2 = pattern_fixtures()
    fam = GraphFamily((p1, p2))
    assign = infer_types(fam, 2, "generic")
    want = t({"der", "gen"}, {"der", "gen", "use"}, {"act", "ent"})
    assert assign.get("pattern1", "root", 2) == want
    assert assign.get("pattern2", "root", 2) == want
    levels = wl_colorings(fam, 2, "generic")
    assert levels[2]["pattern1"]["root"] != levels[2]["pattern2"]["root"]


@criterion(8, "simulated dataset structure")
def test_08_simulated_dataset_structure(pipelines):
    full = set(APPLICATION_LABELS)
    for mode in ("targeting", "disposal"):
        ds = pipelines[mode]["ds"]
        assert len(ds) == 1200
        counts = Counter(ds.class_labels.values())
        assert counts == {"Valor": 400, "Mystic": 400, "Instinct": 400}
        declared = ds.meta["application_labels"]
        assert len(declared) == 8 and set(declared) == full
        assert ds.family.application_label_universe <= full

    targeting = pipelines["targeting"]["ds"]
    for g in targeting.family:
        for labels in g.nodes.values():
            assert "pg:Disposing" not in labels
    assert targeting.family.application_label_universe == full - {"pg:Disposing"}

    disposal = pipelines["disposal"]["ds"]
    assert disposal.family.application_label_universe == full
    for g in disposal.family:
        if disposal.class_labels[g.graph_id] == "Valor":
            for labels in g.nodes.values():
                assert "pg:Disposing" not in labels


#: SHA-256 of each saved file of the default datasets, ``SimParams(mode=m, seed=0)``.
DEFAULT_DATASET_SHA256 = {
    "targeting": {
        "graphs.jsonl": "f0fb88d57998fbe9edbfafbae5d07f154719cd85563a1c4590cbc972029911de",
        "manifest.json": "fc4d754eee5f1bfa74d542a5058798cbc6d59a46f039b838cb0aaaf6b2764d5c",
    },
    "disposal": {
        "graphs.jsonl": "5839b6635354d85797e9ae1da80776b5c44acee634de0f9a74169446994d15b2",
        "manifest.json": "06c5f0fda30d8fce0e4a15bba5aeaf1f479988367cea577694d3532c673214a5",
    },
}


def test_default_datasets_are_byte_pinned(pipelines):
    for mode, want in DEFAULT_DATASET_SHA256.items():
        texts = dataset_texts(pipelines[mode]["ds"])
        got = {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
               for name, text in texts.items()}
        assert got == want, mode


@criterion(9, "classification beats chance within the time budget")
def test_09_classification_beats_chance(pipelines):
    total_seconds = 0.0
    for mode in ("targeting", "disposal"):
        p = pipelines[mode]
        labels = np.array(p["ds"].labels_in_family_order())
        t0 = time.perf_counter()
        report = repeated_kfold(
            p["gram"].values,
            labels,
            k=10,
            repeats=10,
            C=1.0,
            seed=0,
            featurize_seconds=p["featurize_seconds"],
        )
        cv_seconds = time.perf_counter() - t0
        total_seconds += p["sim_seconds"] + p["featurize_seconds"] + cv_seconds
        assert len(report.accuracies) == 100
        assert report.mean >= 0.60, f"{mode}: mean accuracy {report.mean:.4f}"
        # The first repeat covers each of the 1200 graphs exactly once, so
        # its fold accuracies aggregate into one binomial draw against 1/3.
        n = len(labels)
        correct = round(sum(a * (n // 10) for a in report.accuracies[:10]))
        p_value = stats.binom.sf(correct - 1, n, 1.0 / 3.0)
        assert p_value < 0.001
    assert total_seconds < 600


def _exact_u_and_p(a, b):
    pooled = list(a) + list(b)
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and pooled[order[j]] == pooled[order[i]]:
            j += 1
        midrank = (i + j + 1) / 2
        for kk in range(i, j):
            ranks[order[kk]] = midrank
        i = j
    n1 = len(a)
    u_obs = sum(ranks[:n1]) - n1 * (n1 + 1) / 2
    mu = n1 * len(b) / 2
    hits = 0
    total = 0
    for combo in itertools.combinations(range(len(pooled)), n1):
        u = sum(ranks[i] for i in combo) - n1 * (n1 + 1) / 2
        if abs(u - mu) >= abs(u_obs - mu):
            hits += 1
        total += 1
    return u_obs, hits / total


@criterion(10, "rank statistic matches exact enumeration")
def test_10_rank_statistic_exact():
    rng = random.Random(5)
    values = (0.0, 1.0, 2.0, 2.0, 3.5, 7.0)
    for n1 in range(1, 9):
        for n2 in range(1, 9):
            for _ in range(3):
                a = [rng.choice(values) for _ in range(n1)]
                b = [rng.choice(values) for _ in range(n2)]
                u, p = mannwhitney_u(a, b)
                u_want, p_want = _exact_u_and_p(a, b)
                assert u == u_want
                assert p == p_want
    same = [rng.random() for _ in range(6)]
    u, p = mannwhitney_u(same, list(same))
    assert u == len(same) ** 2 / 2
    assert p == 1.0


@criterion(11, "featurization time scales about linearly in edges")
def test_11_featurization_scaling():
    rng = random.Random(17)

    def family_with(m_per_graph: int) -> GraphFamily:
        graphs = []
        for i in range(12):
            ids = [f"n{j}" for j in range(80)]
            nodes = {nid: frozenset({rng.choice(("ent", "act", "ag"))}) for nid in ids}
            edges = tuple(
                (rng.choice(ids), rng.choice(ids), rng.choice(EDGE_LABEL_LIST))
                for _ in range(m_per_graph)
            )
            graphs.append(ProvGraph(f"m{m_per_graph}_{i}", nodes, edges))
        return GraphFamily(tuple(graphs))

    def featurize_seconds(fam: GraphFamily) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            assign = infer_types(fam, 3, "generic")
            featurize(assign, build_universe(assign))
            best = min(best, time.perf_counter() - t0)
        return best

    families = [family_with(m) for m in (400, 800, 1600, 3200)]
    times = [featurize_seconds(fam) for fam in families]
    for smaller, larger in zip(times, times[1:]):
        assert larger <= 2.5 * smaller, f"scaling ratios {times}"


@criterion(12, "CLI artifacts byte-identical across reruns and threads")
def test_12_cli_determinism(tmp_path):
    sim = (
        "simulate", "--mode", "disposal", "--sims", "1", "--players", "3",
        "--grid", "12", "--pokemons", "15", "--pokestops", "3",
        "--ticks", "50", "--seed", "11",
    )
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    assert cli_main([*sim, "--out", str(d1)]) == 0
    assert cli_main([*sim, "--out", str(d2)]) == 0
    for name in ("graphs.jsonl", "manifest.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def artifacts(threads: str, tag: str) -> tuple[bytes, ...]:
        feats = tmp_path / f"f{tag}.csv"
        gram_csv = tmp_path / f"g{tag}.csv"
        types_out = tmp_path / f"t{tag}.jsonl"
        data = str(d1)
        assert cli_main(["featurize", "--data", data, "--method", "A2",
                         "--threads", threads, "--out", str(feats)]) == 0
        assert cli_main(["gram", "--data", data, "--method", "A2",
                         "--threads", threads, "--out", str(gram_csv)]) == 0
        assert cli_main(["types", "--data", data, "--h", "2",
                         "--threads", threads, "--out", str(types_out)]) == 0
        return (
            feats.read_bytes(),
            feats.with_suffix(".names.json").read_bytes(),
            gram_csv.read_bytes(),
            types_out.read_bytes(),
        )

    first = artifacts("1", "a")
    rerun = artifacts("1", "b")
    threaded = artifacts("4", "c")
    assert first == rerun
    assert first == threaded
    # sanity: the staged gram really is the integer artifact
    header = (tmp_path / "ga.csv").read_text(encoding="utf-8").splitlines()
    assert header[1].split(",")[1].isdigit()
