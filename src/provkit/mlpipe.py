"""Evaluation pipeline: class balancing, repeated k-fold CV, rank tests.

All randomness is driven by numpy ``SeedSequence`` spawning so that runs are
reproducible for a given seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .model import Dataset, GraphFamily
from .svm import svm_train


@dataclass(frozen=True)
class CvReport:
    """Per-fold accuracies plus summary statistics for one method."""

    accuracies: tuple[float, ...]
    mean: float
    ci95: tuple[float, float]
    featurize_seconds: float

    def to_jsonable(self) -> dict:
        return {
            "accuracies": list(self.accuracies),
            "mean": self.mean,
            "ci95": list(self.ci95),
            "featurize_seconds": self.featurize_seconds,
        }

    @classmethod
    def from_jsonable(cls, blob: dict) -> "CvReport":
        try:
            return cls(
                accuracies=tuple(float(a) for a in blob["accuracies"]),
                mean=float(blob["mean"]),
                ci95=(float(blob["ci95"][0]), float(blob["ci95"][1])),
                featurize_seconds=float(blob.get("featurize_seconds", 0.0)),
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed CV report: {exc}") from exc

    @classmethod
    def from_accuracies(
        cls, accuracies: list[float], featurize_seconds: float = 0.0
    ) -> "CvReport":
        acc = tuple(float(a) for a in accuracies)
        if not acc:
            raise ValueError("no accuracies")
        mean = float(np.mean(acc))
        if len(acc) > 1:
            half = 1.96 * float(np.std(acc, ddof=1)) / math.sqrt(len(acc))
        else:
            half = 0.0
        return cls(
            accuracies=acc,
            mean=mean,
            ci95=(mean - half, mean + half),
            featurize_seconds=float(featurize_seconds),
        )


def balance_undersample(dataset: Dataset, seed: int = 0) -> Dataset:
    """Undersample majority classes down to the minority class size.

    The minority class is kept whole; which majority members survive is a
    deterministic function of the seed.  Surviving graphs keep their
    original family order.
    """
    rng = np.random.default_rng(seed)
    by_class: dict[str, list[str]] = {}
    for g in dataset.family.graphs:
        by_class.setdefault(dataset.class_labels[g.graph_id], []).append(g.graph_id)
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


def _fold_assignment(
    labels: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = len(labels)
    folds = np.empty(n, dtype=np.int64)
    counts = {cls: int((labels == cls).sum()) for cls in np.unique(labels)}
    if min(counts.values()) < k:
        warnings.warn(
            f"smallest class has {min(counts.values())} members, fewer than k={k}; "
            "falling back to unstratified folds",
            UserWarning,
            stacklevel=3,
        )
        perm = rng.permutation(n)
        for pos, idx in enumerate(perm):
            folds[idx] = pos % k
        return folds
    for cls in sorted(counts):
        idx = np.flatnonzero(labels == cls)
        perm = rng.permutation(idx)
        for pos, g in enumerate(perm):
            folds[g] = pos % k
    return folds


def repeated_kfold(
    kernel: np.ndarray,
    labels: list[str] | np.ndarray,
    k: int = 10,
    repeats: int = 10,
    C: float = 1.0,
    seed: int = 0,
    tol: float = 1e-3,
    featurize_seconds: float = 0.0,
    threads: int = 1,
) -> CvReport:
    """Repeated stratified k-fold CV of a kernel SVM on a precomputed Gram.

    Returns per-fold accuracies in (repeat, fold) order.  ``threads`` is
    accepted for compatibility and has no effect.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    arr = np.array([str(x) for x in labels])
    n = len(arr)
    if kernel.shape != (n, n):
        raise ValueError(f"kernel shape {kernel.shape} does not match {n} labels")
    if k < 2 or k > n:
        raise ValueError(f"k={k} out of range for {n} graphs")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    children = np.random.SeedSequence(seed).spawn(repeats)
    accuracies = []
    for r in range(repeats):
        folds = _fold_assignment(arr, k, np.random.default_rng(children[r]))
        for f in range(k):
            test = np.flatnonzero(folds == f)
            train = np.flatnonzero(folds != f)
            model = svm_train(kernel[np.ix_(train, train)], arr[train], C=C, tol=tol)
            pred = model.predict(kernel[np.ix_(test, train)])
            accuracies.append(float(np.mean(np.array(pred) == arr[test])))
    return CvReport.from_accuracies(accuracies, featurize_seconds)


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def mannwhitney_u(a, b) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test with midranks for ties.

    Returns ``(U, p)`` where U counts pairs won by the first sample (ties
    count half).  Small problems (neither side above 8 observations) are
    solved by exact enumeration of rank assignments, measuring deviation
    from the null mid-point; larger ones use the normal approximation with
    tie and continuity corrections.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    u = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2.0)
    mu = n1 * n2 / 2.0
    dev = abs(u - mu)
    if max(n1, n2) <= 8:
        total = 0
        hits = 0
        idx = range(n1 + n2)
        for subset in combinations(idx, n1):
            total += 1
            u_s = sum(ranks[i] for i in subset) - n1 * (n1 + 1) / 2.0
            if abs(u_s - mu) >= dev - 1e-12:
                hits += 1
        return u, hits / total
    n = n1 + n2
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(((tie_counts**3) - tie_counts).sum()) / (n * (n - 1))
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var <= 0:
        return u, 1.0
    z = max(dev - 0.5, 0.0) / math.sqrt(var)
    return u, min(1.0, math.erfc(z / math.sqrt(2.0)))


def compare_reports(
    report_a: CvReport,
    report_b: CvReport,
    name_a: str,
    name_b: str,
    alpha: float = 0.05,
) -> dict:
    """Rank-test two CV reports; verdict names the better method or '='."""
    u, p = mannwhitney_u(report_a.accuracies, report_b.accuracies)
    diff = report_a.mean - report_b.mean
    if p < alpha and diff > 0:
        verdict = "A"
    elif p < alpha and diff < 0:
        verdict = "B"
    else:
        verdict = "="
    return {
        "methodA": name_a,
        "methodB": name_b,
        "meanDiff": diff,
        "U": u,
        "p": p,
        "verdict": verdict,
    }
