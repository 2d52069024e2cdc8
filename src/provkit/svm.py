"""Soft-margin SVM on precomputed kernel matrices.

The binary solver is sequential minimal optimization on the dual problem

    minimize (1/2) a' Q a - e' a   s.t.  y' a = 0,  0 <= a_i <= C

with Q_ij = y_i y_j K_ij.  Working pairs are chosen by the maximal-violating
rule with a second-order gain heuristic for the partner index (WSS-2 of Fan,
Chen & Lin, JMLR 2005), ties going to the lowest index; convergence is
declared when the maximal KKT violation drops to ``tol``.  ``C`` is
absolute: it bounds alpha on the Gram as given, and the Gram s*K with bound
C has the same decision function as K with bound s*C.

``smo_lockstep`` is the one solver.  It steps many binary problems over one
shared Gram together, each problem a row of +1/-1 labels in which 0 leaves a
point out, so the cross-validation folds and one-vs-rest classes of a whole
run are solved in one call without copying a training kernel per fold.
Every row takes exactly the steps, and ends with exactly the bits, of a
plain one-problem SMO loop on its training points alone (that loop is the
test oracle); a row that has converged leaves the state arrays.
Multiclass problems train one-vs-rest and predict by argmax of decision
values, with ties resolved toward the lowest class in sorted order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


class ConvergenceWarning(UserWarning):
    pass


#: Signs of the working pair's moves: alpha_i + y_i*delta, alpha_j - y_j*delta.
_PAIR_SIGN = np.array([1.0, -1.0])


def smo_lockstep(
    kernel: np.ndarray,
    labels: np.ndarray,
    C: float,
    tol: float = 1e-3,
    max_iter: int = 200_000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve P binary duals over one N x N Gram together, one SMO step each per pass.

    ``labels`` is (P, N): +1 and -1 put a point in that problem's training
    set, 0 leaves it out.  Returns per-problem (alpha (P, N), bias (P,),
    iterations (P,), converged (P,)); a left-out point keeps alpha 0.
    Every problem steps as a one-problem SMO loop would on a Gram cut down
    to its training points.  Warns once per call with the number of
    problems stopped at ``max_iter``.
    """
    k = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"labels must be a (problems, points) matrix, not shape {y.shape}")
    n_rows, n = y.shape
    if k.shape != (n, n):
        raise ValueError(f"kernel shape {k.shape} does not match {n} labels")
    if not ((y == 0.0) | (np.abs(y) == 1.0)).all():
        raise ValueError("labels must be +1, -1 or 0")
    if C < 0:
        raise ValueError("C must be >= 0")
    alpha = np.zeros((n_rows, n))
    bias = np.zeros(n_rows)
    n_iter = np.zeros(n_rows, dtype=np.int64)
    converged = np.ones(n_rows, dtype=bool)
    if C == 0:
        return alpha, bias, n_iter, converged
    C = float(C)
    diag = np.diagonal(k).copy()  # contiguous: read whole every pass
    # -y*grad is kept only in two score matrices: on I_up (-inf elsewhere)
    # and on I_low (+inf elsewhere).  A left-out point is in neither, so it
    # is never picked.  At alpha = 0 the score is y.
    up = np.where(y > 0, 1.0, -np.inf)
    low = np.where(y < 0, -1.0, np.inf)
    rows = np.arange(n_rows)  # the problem behind each row of up/low
    vio_buf, curv_buf = np.empty((n_rows, n)), np.empty((n_rows, n))

    def settle(done: np.ndarray, ok: bool) -> None:
        for p, u, lo in zip(rows[done].tolist(), up[done], low[done]):
            bias[p] = _bias(y[p], u, lo)
        n_iter[rows[done]] = it
        converged[rows[done]] = ok

    it = 0
    while len(rows) and it < max_iter:
        it += 1
        i = up.argmax(axis=1)  # first index of the maximum
        m = up[np.arange(len(rows)), i]
        # An empty I_up or I_low makes the gap -inf, so such a row stops
        # here, converged, as a one-problem loop stops on it.
        done = m - low.min(axis=1) <= tol
        if done.any():
            settle(done, True)
            keep = ~done
            rows, up, low, i, m = (x[keep] for x in (rows, up, low, i, m))
            if not len(rows):
                break
        at = np.arange(len(rows))
        vio, curv = vio_buf[: len(rows)], curv_buf[: len(rows)]
        # Curvature K_ii + K_tt - 2 K_it against every t, floored.
        np.take(k, i, axis=0, out=curv, mode="clip")
        np.multiply(curv, 2.0, out=curv)
        np.copyto(vio, diag)
        np.add(vio, diag[i][:, None], out=vio)
        np.subtract(vio, curv, out=curv)
        np.fmax(curv, 1e-12, out=curv)
        # Second-order partner: maximize violation^2 / curvature among the
        # points of I_low with a positive violation.  Those gains are >= 0;
        # every other point scores -1 (a masked copy costs a branch per
        # element), so a row whose best score is negative has converged.
        np.subtract(m[:, None], low, out=vio)
        invalid = vio <= 0.0
        np.maximum(vio, 0.0, out=vio)
        np.multiply(vio, vio, out=vio)
        np.divide(vio, curv, out=vio)
        np.subtract(vio, invalid, out=vio)
        j = vio.argmax(axis=1)
        no_partner = vio[at, j] < 0.0
        # Step delta moves alpha_i by +y_i*delta and alpha_j by -y_j*delta:
        # column t of the (rows, 2) pair arrays moves by move_t*delta.
        pair = np.stack((i, j), axis=1)
        y_pair, a_pair = y[rows[:, None], pair], alpha[rows[:, None], pair]
        move = y_pair * _PAIR_SIGN
        a = curv[at, j]
        d = low[at, j] - m  # y_i*grad_i - y_j*grad_j
        lo = np.where(move > 0, -a_pair, a_pair - C).max(axis=1)
        hi = np.where(move > 0, C - a_pair, a_pair).min(axis=1)
        delta = np.minimum(np.maximum(-d / a, lo), hi)
        done = no_partner | (delta == 0.0)
        if done.any():
            settle(done, True)
            keep = ~done
            rows, up, low, pair, y_pair, a_pair, move, a, d, delta = (
                x[keep] for x in (rows, up, low, pair, y_pair, a_pair, move, a, d, delta))
            at = np.arange(len(rows))
        ki, kj = vio_buf[: len(rows)], curv_buf[: len(rows)]  # free once j is picked
        np.take(k, pair[:, 0], axis=0, out=ki, mode="clip")
        np.take(k, pair[:, 1], axis=0, out=kj, mode="clip")
        np.subtract(ki, kj, out=ki)
        np.multiply(ki, delta[:, None], out=ki)
        np.subtract(up, ki, out=up)
        np.subtract(low, ki, out=low)
        value = np.minimum(np.maximum(a_pair + move * delta[:, None], 0.0), C)
        alpha[rows[:, None], pair] = value
        at = at[:, None]
        score = up[at, pair]
        score = np.where(score > -np.inf, score, low[at, pair])
        below_c, above_0 = value < C, value > 0
        up[at, pair] = np.where(np.where(y_pair > 0, below_c, above_0), score, -np.inf)
        low[at, pair] = np.where(np.where(y_pair > 0, above_0, below_c), score, np.inf)
    if len(rows):
        settle(np.ones(len(rows), dtype=bool), False)
        warnings.warn(
            f"SMO stopped at the iteration cap in {len(rows)} of {n_rows} solves "
            f"(max_iter={max_iter}, tol={tol})",
            ConvergenceWarning,
            stacklevel=2,
        )
    return alpha, bias, n_iter, converged


def _bias(y: np.ndarray, up: np.ndarray, low: np.ndarray) -> float:
    """One problem's bias from its final scores: the midpoint of its two
    KKT bounds, or the one bound it has."""
    in_up, in_low = up > -np.inf, low < np.inf

    def neg_yg(scores: np.ndarray, member: np.ndarray) -> np.ndarray:
        # The scores are -y*grad up to the signs of zeros.  A gradient
        # accumulated from -1 never holds -0.0, so adding 0.0 to -y*score
        # restores them, and the bias matches a one-problem loop's bits.
        y_m = y[member]
        return -y_m * (-y_m * scores[member] + 0.0)

    if in_up.any() and in_low.any():
        b = 0.5 * (neg_yg(up, in_up).max() + neg_yg(low, in_low).min())
    elif in_up.any():
        b = neg_yg(up, in_up).max()
    elif in_low.any():
        b = neg_yg(low, in_low).min()
    else:
        b = 0.0
    return float(b)


@dataclass
class OvrSvm:
    """One-vs-rest ensemble over sorted class names: row ``c`` of each array is
    ``smo_lockstep``'s class ``c`` against the rest, ``dual_coef = alpha * y``."""

    classes: tuple[str, ...]
    dual_coef: np.ndarray
    bias: np.ndarray
    n_iter: np.ndarray
    converged: np.ndarray

    def decision_matrix(self, k_rows: np.ndarray) -> np.ndarray:
        k_rows = np.atleast_2d(np.asarray(k_rows, dtype=np.float64))
        # One product per class: a single GEMM for all could round differently.
        return np.column_stack([k_rows @ coef + b for coef, b in zip(self.dual_coef, self.bias)])

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
    """One-vs-rest SVM on a precomputed Gram, with ``C`` absolute on that Gram."""
    labels = [str(x) for x in labels]
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise ValueError("training requires at least two classes")
    arr = np.array(labels)
    y = np.where(arr == np.array(classes)[:, None], 1.0, -1.0)
    alpha, b, n_iter, ok = smo_lockstep(kernel, y, C, tol, max_iter)
    return OvrSvm(classes, alpha * y, b, n_iter, ok)
