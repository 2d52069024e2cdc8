"""Soft-margin SVM on precomputed kernel matrices.

The binary solver is sequential minimal optimization on the dual problem

    minimize (1/2) a' Q a - e' a   s.t.  y' a = 0,  0 <= a_i <= C

with Q_ij = y_i y_j K_ij.  Working pairs are chosen by the maximal-violating
rule with a second-order gain heuristic for the partner index; convergence is
declared when the maximal KKT violation drops to ``tol``.  Multiclass
problems train one-vs-rest and predict by argmax of decision values, with
ties resolved toward the lowest class in sorted order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


class ConvergenceWarning(UserWarning):
    pass


@dataclass
class BinarySvm:
    """One binary dual solution over a fixed training kernel."""

    target: str
    alpha: np.ndarray
    y: np.ndarray
    b: float
    C: float
    n_iter: int
    converged: bool

    @property
    def dual_coef(self) -> np.ndarray:
        return self.alpha * self.y

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.alpha > 1e-12)

    def decision(self, k_rows: np.ndarray) -> np.ndarray:
        """Decision values for rows of test-vs-training kernel values."""
        k_rows = np.atleast_2d(np.asarray(k_rows, dtype=np.float64))
        return k_rows @ self.dual_coef + self.b


def smo_solve(
    kernel: np.ndarray,
    y: np.ndarray,
    C: float,
    tol: float = 1e-3,
    max_iter: int = 200_000,
) -> tuple[np.ndarray, float, int, bool, list[float]]:
    """Solve the binary dual; returns (alpha, bias, iterations, converged, objective trace)."""
    k = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if k.shape != (n, n):
        raise ValueError(f"kernel shape {k.shape} does not match {n} labels")
    if C < 0:
        raise ValueError("C must be >= 0")
    alpha = np.zeros(n)
    if C == 0:
        return alpha, 0.0, 0, True, [0.0]
    grad = -np.ones(n)  # Q a - e at a = 0
    diag = np.diagonal(k).copy()
    objective = 0.0
    history = [0.0]
    pos = y > 0
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        neg_yg = -y * grad
        up = (pos & (alpha < C)) | (~pos & (alpha > 0))
        low = (pos & (alpha > 0)) | (~pos & (alpha < C))
        if not up.any() or not low.any():
            converged = True
            break
        m = neg_yg[up].max()
        big_m = neg_yg[low].min()
        if m - big_m <= tol:
            converged = True
            break
        i = int(np.flatnonzero(up)[np.argmax(neg_yg[up])])
        k_i = k[i]
        # Second-order partner: maximize violation^2 / curvature among I_low.
        vio = m - neg_yg
        valid = low & (vio > 0)
        if not valid.any():
            converged = True
            break
        curv = diag[i] + diag - 2.0 * k_i
        curv = np.where(curv > 1e-12, curv, 1e-12)
        gain = np.where(valid, vio * vio / curv, -np.inf)
        j = int(np.argmax(gain))
        # Step delta moves alpha_i by +y_i*delta and alpha_j by -y_j*delta.
        a = max(curv[j], 1e-12)
        d = y[i] * grad[i] - y[j] * grad[j]
        delta = -d / a
        lo_i, hi_i = ((-alpha[i], C - alpha[i]) if y[i] > 0 else (alpha[i] - C, alpha[i]))
        lo_j, hi_j = ((alpha[j] - C, alpha[j]) if y[j] > 0 else (-alpha[j], C - alpha[j]))
        lo, hi = max(lo_i, lo_j), min(hi_i, hi_j)
        delta = min(max(delta, lo), hi)
        if delta == 0.0:
            converged = True
            break
        alpha[i] += y[i] * delta
        alpha[j] -= y[j] * delta
        np.clip(alpha, 0.0, C, out=alpha)
        k_j = k[j]
        grad += delta * y * (k_i - k_j)
        objective += d * delta + 0.5 * a * delta * delta
        history.append(objective)
    else:
        warnings.warn(
            f"SMO hit the iteration cap ({max_iter}) before reaching tol={tol}",
            ConvergenceWarning,
            stacklevel=2,
        )
    neg_yg = -y * grad
    up = (pos & (alpha < C)) | (~pos & (alpha > 0))
    low = (pos & (alpha > 0)) | (~pos & (alpha < C))
    if up.any() and low.any():
        b = 0.5 * (neg_yg[up].max() + neg_yg[low].min())
    elif up.any():
        b = float(neg_yg[up].max())
    elif low.any():
        b = float(neg_yg[low].min())
    else:
        b = 0.0
    return alpha, float(b), it, converged, history


@dataclass
class OvrSvm:
    """One-vs-rest ensemble over sorted class names."""

    classes: tuple[str, ...]
    models: tuple[BinarySvm, ...]
    C: float

    def decision_matrix(self, k_rows: np.ndarray) -> np.ndarray:
        k_rows = np.atleast_2d(np.asarray(k_rows, dtype=np.float64))
        return np.column_stack([m.decision(k_rows) for m in self.models])

    def predict(self, k_rows: np.ndarray) -> list[str]:
        scores = self.decision_matrix(k_rows)
        picks = np.argmax(scores, axis=1)  # first max wins: lowest class on ties
        return [self.classes[int(i)] for i in picks]


def svm_train(
    kernel: np.ndarray,
    labels: list[str] | np.ndarray,
    C: float = 1.0,
    tol: float = 1e-3,
    max_iter: int = 200_000,
) -> OvrSvm:
    labels = [str(x) for x in labels]
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise ValueError("training requires at least two classes")
    k = np.asarray(kernel, dtype=np.float64)
    models = []
    arr = np.array(labels)
    for cls in classes:
        y = np.where(arr == cls, 1.0, -1.0)
        alpha, b, it, ok, _ = smo_solve(k, y, C, tol, max_iter)
        models.append(
            BinarySvm(
                target=cls,
                alpha=alpha,
                y=y,
                b=b,
                C=C,
                n_iter=it,
                converged=ok,
            )
        )
    return OvrSvm(classes=classes, models=tuple(models), C=C)


def svm_predict(model: OvrSvm, k_rows: np.ndarray) -> list[str]:
    return model.predict(k_rows)
