"""Soft-margin SVM on precomputed kernel matrices.

The binary solver is sequential minimal optimization on the dual problem

    minimize (1/2) a' Q a - e' a   s.t.  y' a = 0,  0 <= a_i <= C

with Q_ij = y_i y_j K_ij.  Working pairs are chosen by the maximal-violating
rule with a second-order gain heuristic for the partner index (WSS-2 of Fan,
Chen & Lin, JMLR 2005), ties going to the lowest index; convergence is
declared when the maximal KKT violation drops to ``tol``.  Each iteration
writes into buffers allocated once per solve and updates the working sets
only at the two indices whose multipliers moved.  Multiclass problems train
one-vs-rest and predict by argmax of decision values, with ties resolved
toward the lowest class in sorted order.
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
    if C == 0:
        return np.zeros(n), 0.0, 0, True, [0.0]
    C = float(C)
    grad = -np.ones(n)  # Q a - e at a = 0
    diag = np.diagonal(k).copy()
    neg_y = -y
    y_list = y.tolist()
    alpha = [0.0] * n
    # Only alpha_i and alpha_j move per step, so the working-set masks are
    # updated at i and j alone.  The score buffers hold -y*grad on I_up
    # (-inf elsewhere) and on I_low (+inf elsewhere).
    up = y > 0
    low = ~up
    n_up, n_low = int(up.sum()), int(low.sum())
    up_score = np.full(n, -np.inf)
    low_score = np.full(n, np.inf)
    neg_yg, vio, curv, gain, step, diff = (np.empty(n) for _ in range(6))
    valid = np.empty(n, dtype=bool)
    objective = 0.0
    history = [0.0]
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        if not n_up or not n_low:
            converged = True
            break
        np.multiply(neg_y, grad, out=neg_yg)
        np.copyto(up_score, neg_yg, where=up)
        np.copyto(low_score, neg_yg, where=low)
        i = int(up_score.argmax())  # first index of the maximum
        m = up_score[i]
        if m - low_score[low_score.argmin()] <= tol:
            converged = True
            break
        k_i = k[i]
        # Second-order partner: maximize violation^2 / curvature among I_low.
        np.subtract(m, low_score, out=vio)
        np.greater(vio, 0.0, out=valid)
        np.add(diag[i], diag, out=curv)
        np.multiply(2.0, k_i, out=step)
        np.subtract(curv, step, out=curv)
        np.fmax(curv, 1e-12, out=curv)
        np.multiply(vio, vio, out=vio)
        np.divide(vio, curv, out=vio)
        gain.fill(-np.inf)
        np.copyto(gain, vio, where=valid)
        j = int(gain.argmax())
        if gain[j] == -np.inf:  # no valid partner
            converged = True
            break
        # Step delta moves alpha_i by +y_i*delta and alpha_j by -y_j*delta.
        y_i, y_j = y_list[i], y_list[j]
        a_i, a_j = alpha[i], alpha[j]
        a = float(curv[j])
        d = y_i * float(grad[i]) - y_j * float(grad[j])
        delta = -d / a
        lo_i, hi_i = ((-a_i, C - a_i) if y_i > 0 else (a_i - C, a_i))
        lo_j, hi_j = ((a_j - C, a_j) if y_j > 0 else (-a_j, C - a_j))
        lo, hi = max(lo_i, lo_j), min(hi_i, hi_j)
        delta = min(max(delta, lo), hi)
        if delta == 0.0:
            converged = True
            break
        for t, y_t, value in ((i, y_i, a_i + y_i * delta), (j, y_j, a_j - y_j * delta)):
            value = alpha[t] = min(max(value, 0.0), C)
            now_up = value < C if y_t > 0 else value > 0
            now_low = value > 0 if y_t > 0 else value < C
            n_up += now_up - bool(up[t])
            n_low += now_low - bool(low[t])
            up[t], low[t] = now_up, now_low
            if not now_up:
                up_score[t] = -np.inf
            if not now_low:
                low_score[t] = np.inf
        np.multiply(delta, y, out=step)
        np.subtract(k_i, k[j], out=diff)
        np.multiply(step, diff, out=step)
        grad += step
        objective += d * delta + 0.5 * a * delta * delta
        history.append(objective)
    else:
        warnings.warn(
            f"SMO hit the iteration cap ({max_iter}) before reaching tol={tol}",
            ConvergenceWarning,
            stacklevel=2,
        )
    alpha = np.array(alpha)
    np.multiply(neg_y, grad, out=neg_yg)
    if n_up and n_low:
        b = 0.5 * (neg_yg[up].max() + neg_yg[low].min())
    elif n_up:
        b = float(neg_yg[up].max())
    elif n_low:
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
