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

from .model import Dataset
from .svm import OvrSvm, smo_lockstep
from .svm import svm_train  # noqa: F401  (perfbench/workloads.py patches mlpipe.svm_train)


@dataclass(frozen=True)
class CvReport:
    """One method's per-fold accuracies; the mean and interval are theirs."""

    accuracies: tuple[float, ...]

    def __post_init__(self) -> None:
        acc = tuple(self.accuracies)
        if not acc:
            raise ValueError("no accuracies")
        for a in acc:  # NaN fails the range test too
            if not isinstance(a, (int, float)) or isinstance(a, bool) or not 0.0 <= a <= 1.0:
                raise ValueError(f"accuracy {a!r} is not a number in [0, 1]")
        object.__setattr__(self, "accuracies", tuple(float(a) for a in acc))

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% interval of the mean; one fold gives ``(mean, mean)``."""
        acc, mean = self.accuracies, self.mean
        half = 1.96 * float(np.std(acc, ddof=1)) / math.sqrt(len(acc)) if len(acc) > 1 else 0.0
        return (mean - half, mean + half)

    def to_jsonable(self) -> dict:
        return {"accuracies": list(self.accuracies), "mean": self.mean, "ci95": list(self.ci95)}

    @classmethod
    def from_jsonable(cls, blob: dict) -> "CvReport":
        """The report of ``blob``'s accuracies, which its stated mean must match."""
        try:
            report, stated = cls(blob["accuracies"]), blob["mean"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed CV report: {exc}") from exc
        if not isinstance(stated, (int, float)) or isinstance(stated, bool):
            raise ValueError(f"stated mean {stated!r} is not a number")
        if not math.isclose(stated, report.mean, rel_tol=1e-9):
            raise ValueError(f"stated mean {stated!r} is not its accuracies' mean {report.mean!r}")
        return report


def balance_undersample(dataset: Dataset, seed: int = 0) -> Dataset:
    """Undersample majority classes down to the minority class size.

    The minority class is kept whole; which majority members survive is a
    deterministic function of the seed.  Surviving graphs keep their
    original family order.
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
    family = dataset.family.select([gid in keep for gid in dataset.family.graph_ids])
    labels = {gid: dataset.class_labels[gid] for gid in family.graph_ids}
    meta = dict(dataset.meta)
    meta["balance_seed"] = int(seed)
    return Dataset(family=family, class_labels=labels, meta=meta)


def _fold_assignment(
    labels: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = len(labels)
    folds = np.empty(n, dtype=np.int64)
    counts = {cls: int((labels == cls).sum()) for cls in sorted(set(labels.tolist()))}
    if min(counts.values()) < k:
        warnings.warn(
            f"smallest class has {min(counts.values())} members, fewer than k={k}; "
            "falling back to unstratified folds",
            UserWarning,
            stacklevel=3,
        )
        folds[rng.permutation(n)] = np.arange(n) % k
        return folds
    for cls in sorted(counts):
        perm = rng.permutation(np.flatnonzero(labels == cls))
        folds[perm] = np.arange(len(perm)) % k
    return folds


def repeated_kfold(
    kernel: np.ndarray,
    labels: list[str] | np.ndarray,
    k: int = 10,
    repeats: int = 10,
    C: float = 1.0,
    seed: int = 0,
    threads: int = 1,
) -> CvReport:
    """Repeated stratified k-fold CV of a kernel SVM on a precomputed Gram.

    Every one-vs-rest problem of every repeat and fold is one row of a
    single ``smo_lockstep`` call over the whole Gram, with the fold's test
    points left out (label 0); no training kernel is copied.  Each fold is
    then predicted from its test-vs-training kernel rows.  Returns per-fold
    accuracies in (repeat, fold) order, the same bits as training each fold
    on its own, as a ``CvReport``.  ``C`` is absolute, on the Gram as given.
    ``threads`` is accepted for compatibility and has no effect.
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
    splits, rows = [], []  # (train, test, classes, first row) per repeat x fold; label rows
    for r in range(repeats):
        folds = _fold_assignment(arr, k, np.random.default_rng(children[r]))
        for f in range(k):
            train = np.flatnonzero(folds != f)
            classes = tuple(sorted(set(arr[train].tolist())))
            if len(classes) < 2:
                raise ValueError("training requires at least two classes")
            splits.append((train, np.flatnonzero(folds == f), classes, len(rows)))
            rows += [np.where(folds == f, 0.0, np.where(arr == cls, 1.0, -1.0)) for cls in classes]
    y = np.array(rows)
    alpha, b, n_iter, ok = smo_lockstep(kernel, y, C)
    coef = alpha * y
    accuracies = []
    for train, test, classes, first in splits:
        rows = slice(first, first + len(classes))
        model = OvrSvm(classes, coef[rows][:, train], b[rows], n_iter[rows], ok[rows])
        pred = model.predict(kernel[np.ix_(test, train)])
        accuracies.append(float(np.mean(np.array(pred) == arr[test])))
    return CvReport(accuracies)


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's midrank (a tie group shares the mean of its 1-based
    ranks, an exact half-integer), and the size of each tie group."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group], counts


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
    ranks, tie_counts = _midranks(pooled)
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
    """Rank-test two CV reports; verdict names the better method or '='.

    ``alpha`` must lie in (0, 1): outside it every verdict would be fixed.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha!r} outside (0, 1)")
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
