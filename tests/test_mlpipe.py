import json
import math
import random
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import random_family
from provkit import cli, mlpipe

from provkit.mlpipe import (
    CvReport,
    _fold_assignment,
    balance_undersample,
    compare_reports,
    mannwhitney_u,
    repeated_kfold,
)
from provkit.svm import svm_train
from provkit.model import Dataset, GraphFamily, ProvGraph
from provkit.pgsim import SimParams, generate_dataset
from provkit.storage import dataset_texts, save_internal


def pairwise_u(a, b):
    """U via its defining pair count: wins plus half-ties for the first sample."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def exact_p_oracle(a, b):
    """Brute-force two-sided p over every split of the pooled values."""
    pooled = list(a) + list(b)
    n1 = len(a)
    mu = n1 * len(b) / 2.0
    obs = abs(pairwise_u(a, b) - mu)
    hits = total = 0
    for subset in combinations(range(len(pooled)), n1):
        rest = [pooled[i] for i in range(len(pooled)) if i not in set(subset)]
        picked = [pooled[i] for i in subset]
        total += 1
        if abs(pairwise_u(picked, rest) - mu) >= obs - 1e-12:
            hits += 1
    return hits / total


class TestMannWhitney:
    def test_textbook_separation(self):
        u, p = mannwhitney_u([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        assert p == pytest.approx(0.1)

    def test_identical_samples(self):
        u, p = mannwhitney_u([2.0, 2.0, 2.0], [2.0, 2.0])
        assert u == 3.0  # n1*n2/2
        assert p == 1.0

    def test_rank_u_equals_pairwise_u(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a = rng.integers(0, 6, size=rng.integers(1, 30)).astype(float)
            b = rng.integers(0, 6, size=rng.integers(1, 30)).astype(float)
            u, _ = mannwhitney_u(a, b)
            assert u == pytest.approx(pairwise_u(a, b))

    def test_exact_path_matches_enumeration_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 6))
            a = rng.integers(0, 4, size=n1).astype(float)
            b = rng.integers(0, 4, size=n2).astype(float)
            _, p = mannwhitney_u(a, b)
            assert p == pytest.approx(exact_p_oracle(a, b), abs=1e-12)

    def test_boundary_eight_eight_is_exact(self):
        rng = np.random.default_rng(17)
        a = rng.integers(0, 5, size=8).astype(float)
        b = rng.integers(0, 5, size=8).astype(float)
        _, p = mannwhitney_u(a, b)
        assert p == pytest.approx(exact_p_oracle(a, b), abs=1e-12)

    def test_normal_path_matches_scipy_asymptotic(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.integers(0, 8, size=15).astype(float)
            b = rng.integers(0, 8, size=20).astype(float)
            u, p = mannwhitney_u(a, b)
            ref = stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
            assert u == pytest.approx(float(ref.statistic))
            assert p == pytest.approx(float(ref.pvalue), rel=1e-10)

    def test_nine_vs_two_uses_normal_approximation(self):
        # One sample above eight is enough to switch off enumeration.
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        b = [0.5, 9.5]
        u, p = mannwhitney_u(a, b)
        ref = stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
        assert (u, p) == (pytest.approx(float(ref.statistic)), pytest.approx(float(ref.pvalue)))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mannwhitney_u([], [1.0])


class TestCvReport:
    def test_summary_statistics(self):
        rep = CvReport([0.5, 0.7])
        assert rep.mean == pytest.approx(0.6)
        half = 1.96 * np.std([0.5, 0.7], ddof=1) / np.sqrt(2)
        assert rep.ci95 == (pytest.approx(0.6 - half), pytest.approx(0.6 + half))
        blob = rep.to_jsonable()
        assert set(blob) == {"accuracies", "mean", "ci95"}

    def test_single_fold_has_degenerate_interval(self):
        rep = CvReport([0.8])
        assert rep.ci95 == (0.8, 0.8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CvReport([])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_derived_values_are_the_stored_formulas(self, acc):
        # The mean and interval written out here are the oracle.
        mean = float(np.mean(acc))
        half = 1.96 * float(np.std(acc, ddof=1)) / math.sqrt(len(acc)) if len(acc) > 1 else 0.0
        rep = CvReport(acc)
        blob = rep.to_jsonable()
        assert blob == {"accuracies": acc, "mean": mean, "ci95": [mean - half, mean + half]}
        assert CvReport.from_jsonable(json.loads(json.dumps(blob))) == rep

    @pytest.mark.parametrize("acc", [[1.5, 2.0], [-3, 0.5], ["0.5", "0.7"], [0.5, math.nan],
                                     [True, 0.5]],
                             ids=["above-one", "negative", "strings", "nan", "bool"])
    def test_impossible_accuracy_rejected(self, acc):
        with pytest.raises(ValueError, match=r"is not a number in \[0, 1\]"):
            CvReport(acc)

    def test_integer_accuracies_read_as_floats(self):
        assert CvReport([0, 1]).accuracies == (0.0, 1.0)


def tiny_graph(gid):
    return ProvGraph(gid, {"e": {"ent"}}, [])


def make_dataset(sizes):
    graphs, labels = [], {}
    i = 0
    for cls, count in sizes.items():
        for _ in range(count):
            gid = f"g{i}"
            graphs.append(tiny_graph(gid))
            labels[gid] = cls
            i += 1
    return Dataset(family=GraphFamily(tuple(graphs)), class_labels=labels, meta={})


class TestBalance:
    def test_downsamples_to_minority(self):
        ds = balance_undersample(make_dataset({"a": 5, "b": 3, "c": 7}), seed=1)
        counts = {}
        for gid in ds.class_labels:
            counts[ds.class_labels[gid]] = counts.get(ds.class_labels[gid], 0) + 1
        assert counts == {"a": 3, "b": 3, "c": 3}

    def test_minority_kept_whole_and_order_preserved(self):
        base = make_dataset({"a": 6, "b": 2})
        minority = [g for g, c in base.class_labels.items() if c == "b"]
        ds = balance_undersample(base, seed=4)
        kept = [g.graph_id for g in ds.family.graphs]
        assert set(minority).issubset(kept)
        original = [g.graph_id for g in base.family.graphs]
        assert kept == [g for g in original if g in set(kept)]

    def test_deterministic_per_seed(self):
        base = make_dataset({"a": 9, "b": 4})
        one = [g.graph_id for g in balance_undersample(base, seed=2).family.graphs]
        two = [g.graph_id for g in balance_undersample(base, seed=2).family.graphs]
        other = [g.graph_id for g in balance_undersample(base, seed=3).family.graphs]
        assert one == two
        assert one != other  # 9-choose-4 leaves plenty of room


def _reference_balance(dataset: Dataset, seed: int = 0) -> Dataset:
    """Undersampling through ``ProvGraph`` views and a fully validated rebuild.

    Independent oracle for ``balance_undersample``, which must equal it.
    """
    rng = np.random.default_rng(seed)
    by_class: dict[str, list[str]] = {}
    for gid in dataset.family.graph_ids:
        by_class.setdefault(dataset.class_labels[gid], []).append(gid)
    m = min(len(ids) for ids in by_class.values())
    keep: set[str] = set()
    for cls in sorted(by_class):
        ids = by_class[cls]
        if len(ids) > m:
            chosen = rng.choice(len(ids), size=m, replace=False)
            keep.update(ids[i] for i in sorted(chosen))
        else:
            keep.update(ids)
    graphs = tuple(g for g in dataset.family.graphs if g.graph_id in keep)
    labels = {gid: dataset.class_labels[gid] for gid in (g.graph_id for g in graphs)}
    meta = dict(dataset.meta)
    meta["balance_seed"] = int(seed)
    return Dataset(family=GraphFamily(graphs), class_labels=labels, meta=meta)


@given(st.integers(0, 2**32), st.integers(1, 12), st.integers(1, 3), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_balance_matches_reference(family_seed, count, n_classes, seed):
    rng = random.Random(family_seed)
    family = random_family(rng, count, max_nodes=6, max_edges=12)
    labels = {gid: f"c{rng.randrange(n_classes)}" for gid in family.graph_ids}
    ds = Dataset(family, labels, {"k": "v"})
    got, want = balance_undersample(ds, seed), _reference_balance(ds, seed)
    assert got == want
    for name in ("node_offsets", "node_sets", "edge_offsets", "src", "dst", "edge_labels"):
        assert getattr(got.family, name).dtype == getattr(want.family, name).dtype, name
    assert dataset_texts(got) == dataset_texts(want)


@pytest.mark.parametrize("method", [["--method", "A2"], ["--kernel", "wl", "--h", "2"]])
def test_xval_balance_report_bytes_match_reference(tmp_path, monkeypatch, method):
    params = SimParams(mode="disposal", n_sims=1, max_ticks=30, seed=3)
    ds = generate_dataset(params)
    labels = dict(ds.class_labels)
    for gid in ds.family.graph_ids[:9]:
        labels[gid] = "Valor"  # unbalanced, so the undersampling drops graphs
    save_internal(Dataset(ds.family, labels, ds.meta), tmp_path / "ds")
    texts = []
    for balance in (balance_undersample, _reference_balance):
        # cmd_xval imports balance_undersample from mlpipe when it runs.
        monkeypatch.setattr(mlpipe, "balance_undersample", balance)
        out = tmp_path / f"{balance.__name__}.json"
        assert cli.main(["xval", "--data", str(tmp_path / "ds"), *method, "--k", "3",
                         "--repeats", "1", "--balance", "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        report.pop("featurize_seconds")
        texts.append(json.dumps(report, sort_keys=True))
    assert texts[0] == texts[1]


def _reference_folds(labels, k, rng):
    """Fold ids assigned element by element along each permutation."""
    folds = np.empty(len(labels), dtype=np.int64)
    counts = {cls: int((labels == cls).sum()) for cls in np.unique(labels)}
    if min(counts.values()) < k:
        for pos, idx in enumerate(rng.permutation(len(labels))):
            folds[idx] = pos % k
        return folds
    for cls in sorted(counts):
        for pos, g in enumerate(rng.permutation(np.flatnonzero(labels == cls))):
            folds[g] = pos % k
    return folds


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [2, 5, 10])
def test_fold_assignment_matches_reference(seed, k):
    rng = np.random.default_rng(100 + seed)
    labels = np.array([str(x) for x in rng.integers(0, 3, size=int(rng.integers(12, 60)))])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the unstratified fallback
        got = _fold_assignment(labels, k, np.random.default_rng(seed))
        want = _reference_folds(labels, k, np.random.default_rng(seed))
    assert got.tolist() == want.tolist()


def block_kernel(labels, same=2.0, diag=1.0):
    arr = np.array(labels)
    k = np.where(arr[:, None] == arr[None, :], same, 0.0)
    return k + diag * np.eye(len(labels))


class TestRepeatedKfold:
    def test_block_kernel_is_fully_learnable(self):
        labels = ["a"] * 10 + ["b"] * 10
        rep = repeated_kfold(block_kernel(labels), labels, k=5, repeats=2, seed=0)
        assert len(rep.accuracies) == 10
        assert rep.mean == 1.0

    def test_threads_do_not_change_results(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(24, 5))
        k = x @ x.T
        labels = ["a", "b"] * 12
        one = repeated_kfold(k, labels, k=4, repeats=3, seed=5, threads=1)
        four = repeated_kfold(k, labels, k=4, repeats=3, seed=5, threads=4)
        assert one.accuracies == four.accuracies

    def test_seed_changes_fold_assignment(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 3))
        k = x @ x.T
        labels = ["a", "b", "c"] * 10
        r1 = repeated_kfold(k, labels, k=5, repeats=2, seed=1)
        r2 = repeated_kfold(k, labels, k=5, repeats=2, seed=2)
        assert r1.accuracies != r2.accuracies

    def test_small_class_falls_back_with_warning(self):
        labels = ["a"] * 9 + ["b"] * 3
        k = block_kernel(labels)
        with pytest.warns(UserWarning, match="unstratified"):
            rep = repeated_kfold(k, labels, k=6, repeats=1, seed=0)
        assert len(rep.accuracies) == 6

    def test_bad_k_rejected(self):
        labels = ["a", "b"] * 3
        with pytest.raises(ValueError):
            repeated_kfold(block_kernel(labels), labels, k=1)
        with pytest.raises(ValueError):
            repeated_kfold(block_kernel(labels), labels, k=7)


def _reference_repeated_kfold(kernel, labels, k, repeats, C, seed):
    """One SVM per fold, trained on a copy of that fold's training kernel.

    Independent oracle for ``repeated_kfold``, which solves every fold's
    problems together over the whole Gram and must agree with it bit for bit.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    arr = np.array([str(x) for x in labels])
    children = np.random.SeedSequence(seed).spawn(repeats)
    accuracies = []
    for r in range(repeats):
        folds = _fold_assignment(arr, k, np.random.default_rng(children[r]))
        for f in range(k):
            test = np.flatnonzero(folds == f)
            train = np.flatnonzero(folds != f)
            model = svm_train(kernel[np.ix_(train, train)], arr[train], C=C)
            pred = model.predict(kernel[np.ix_(test, train)])
            accuracies.append(float(np.mean(np.array(pred) == arr[test])))
    return accuracies


@pytest.mark.parametrize(
    "n, n_classes, k, repeats, C, normalize",
    [
        (23, 2, 5, 3, 1.0, True),     # n not divisible by k
        (40, 4, 4, 2, 1.0, True),
        (37, 4, 10, 2, 0.5, False),   # some class below k: unstratified folds
        (30, 2, 3, 2, 100.0, False),
    ],
)
@pytest.mark.parametrize("seed", [0, 7])
def test_repeated_kfold_matches_per_fold_reference(n, n_classes, k, repeats, C, normalize, seed):
    rng = np.random.default_rng(seed)
    labels = [f"c{i % n_classes}" for i in range(n)]
    rng.shuffle(labels)
    # Count features that lean toward each graph's class, so folds learn something.
    x = rng.integers(0, 3, size=(n, 6)) + np.array(
        [[2 * (int(c[1:]) == col % n_classes) for col in range(6)] for c in labels])
    kernel = (x @ x.T).astype(np.float64)
    if normalize:
        kernel /= np.sqrt(np.outer(np.diagonal(kernel), np.diagonal(kernel)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the unstratified fallback
        got = repeated_kfold(kernel, labels, k=k, repeats=repeats, C=C, seed=seed)
        want = _reference_repeated_kfold(kernel, labels, k, repeats, C, seed)
    assert list(got.accuracies) == want


def test_fold_without_two_training_classes_is_rejected():
    labels = ["a"] * 5 + ["b"]
    kernel = np.eye(6) + 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the unstratified fallback
        with pytest.raises(ValueError, match="at least two classes"):
            _reference_repeated_kfold(kernel, labels, 6, 1, 1.0, 0)
        with pytest.raises(ValueError, match="at least two classes"):
            repeated_kfold(kernel, labels, k=6, repeats=1)


class TestCompare:
    def test_clear_winner(self):
        good = CvReport([0.9, 0.92, 0.91, 0.89, 0.9] * 4)
        bad = CvReport([0.5, 0.52, 0.51, 0.49, 0.5] * 4)
        out = compare_reports(good, bad, "strong", "weak")
        assert out["verdict"] == "A"
        assert out["meanDiff"] > 0
        assert out["p"] < 0.05
        swapped = compare_reports(bad, good, "weak", "strong")
        assert swapped["verdict"] == "B"

    def test_identical_reports_tie(self):
        rep = CvReport([0.7] * 10)
        out = compare_reports(rep, rep, "x", "y")
        assert out["verdict"] == "="
        assert out["p"] == 1.0
        assert out["meanDiff"] == 0.0

    def test_wire_format(self):
        rep = CvReport([0.7, 0.8] * 10)
        out = compare_reports(rep, rep, "x", "y")
        assert set(out) == {"methodA", "methodB", "meanDiff", "U", "p", "verdict"}

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -1.0, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        rep = CvReport([0.7, 0.8] * 10)
        with pytest.raises(ValueError, match=r"outside \(0, 1\)"):
            compare_reports(rep, rep, "x", "y", alpha=alpha)
