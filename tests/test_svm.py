import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provkit.svm import (
    ConvergenceWarning,
    OvrSvm,
    smo_lockstep,
    svm_train,
)


def linear_gram(points):
    x = np.asarray(points, dtype=np.float64)
    return x @ x.T


def test_separable_line_is_learned_exactly():
    pts = [[-2.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [2.0, 1.0]]
    k = linear_gram(pts)
    labels = ["neg", "neg", "pos", "pos"]
    model = svm_train(k, labels, C=10.0, tol=1e-6)
    assert model.predict(k) == labels


def test_three_clusters_ovr():
    rng = np.random.default_rng(7)
    centers = {"a": (0.0, 0.0), "b": (10.0, 0.0), "c": (0.0, 10.0)}
    pts, labels = [], []
    for cls, (cx, cy) in centers.items():
        for _ in range(8):
            pts.append([cx + rng.normal(0, 0.3), cy + rng.normal(0, 0.3), 1.0])
            labels.append(cls)
    k = linear_gram(pts)
    model = svm_train(k, labels, C=5.0, tol=1e-6)
    assert model.classes == ("a", "b", "c")
    assert model.predict(k) == labels


def test_tie_goes_to_lowest_class():
    # Perfectly symmetric two-point problem: the midpoint scores zero for
    # both one-vs-rest models, so argmax must fall back to sorted order.
    k = np.array([[1.0, -1.0], [-1.0, 1.0]])
    model = svm_train(k, ["b", "a"], C=1.0, tol=1e-8)
    mid = np.array([[0.0, 0.0]])
    scores = model.decision_matrix(mid)
    assert scores[0, 0] == pytest.approx(scores[0, 1], abs=1e-9)
    assert model.predict(mid) == ["a"]


def test_c_zero_degenerates_to_constant_class():
    k = linear_gram([[1.0], [2.0], [3.0], [4.0]])
    model = svm_train(k, ["x", "y", "x", "y"], C=0.0)
    assert np.all(model.dual_coef == 0.0)
    assert np.all(model.bias == 0.0)
    assert np.all(model.n_iter == 0)
    assert model.predict(k) == ["x"] * 4


def test_single_class_rejected():
    with pytest.raises(ValueError):
        svm_train(np.eye(3), ["same", "same", "same"], C=1.0)


def test_alpha_stays_in_box_and_kkt_holds():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 4))
    k = x @ x.T
    y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    if abs(y.sum()) == 30:  # pragma: no cover - astronomically unlikely
        y[0] = -y[0]
    for c in (0.5, 2.0):
        alpha, _, _, converged = smo_lockstep(k, y[None], C=c, tol=1e-4)
        alpha = alpha[0]
        assert converged[0]
        assert np.all(alpha >= -1e-12) and np.all(alpha <= c + 1e-12)
        grad = (y[:, None] * y[None, :] * k) @ alpha - 1.0
        neg_yg = -y * grad
        up = ((y > 0) & (alpha < c - 1e-9)) | ((y < 0) & (alpha > 1e-9))
        low = ((y > 0) & (alpha > 1e-9)) | ((y < 0) & (alpha < c - 1e-9))
        assert neg_yg[up].max() - neg_yg[low].min() <= 1e-4 + 1e-9
        assert abs(float(y @ alpha)) < 1e-9


def test_objective_trace_never_increases():
    # The solver keeps no trace, so it is read from outside: the same solve
    # capped after t passes, for every t up to its full run, gives the
    # objective 1/2 a'Qa - e'a after each step.
    rng = np.random.default_rng(11)
    x = rng.normal(size=(25, 3))
    k = x @ x.T
    y = np.where(np.arange(25) % 2 == 0, 1.0, -1.0)[None]
    q = y.T * y * k
    n_iter = int(smo_lockstep(k, y, C=1.0, tol=1e-6)[2][0])
    assert n_iter > 10
    hist = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        for t in range(1, n_iter + 1):
            alpha = smo_lockstep(k, y, C=1.0, tol=1e-6, max_iter=t)[0][0]
            hist.append(0.5 * alpha @ q @ alpha - alpha.sum())
    hist = np.array(hist)
    assert np.all(np.diff(hist) <= 1e-9 * (1.0 + np.abs(hist[:-1])))


def test_duplicated_point_leaves_decision_function_alone():
    pts = [[-3.0, 1.0], [-1.5, 1.0], [-1.0, 1.0], [1.0, 1.0], [1.5, 1.0], [3.0, 1.0]]
    labels = ["n", "n", "n", "p", "p", "p"]
    k = linear_gram(pts)
    base = svm_train(k, labels, C=1.0, tol=1e-9)
    dup_pts = pts + [pts[2]]
    dup = svm_train(linear_gram(dup_pts), labels + ["n"], C=1.0, tol=1e-9)
    probe = linear_gram(pts)  # decision values at the original points
    probe_dup = np.asarray(pts, dtype=np.float64) @ np.asarray(dup_pts).T
    np.testing.assert_allclose(
        base.decision_matrix(probe), dup.decision_matrix(probe_dup), atol=1e-6
    )


def test_all_zero_kernel_trains_and_predicts_constant():
    k = np.zeros((6, 6))
    model = svm_train(k, ["a", "b", "a", "b", "a", "b"], C=1.0)
    preds = model.predict(np.zeros((4, 6)))
    assert len(set(preds)) == 1


def test_support_and_dual_coef_shapes():
    pts = [[-2.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [2.0, 1.0]]
    model = svm_train(linear_gram(pts), ["n", "n", "p", "p"], C=1.0, tol=1e-8)
    assert isinstance(model, OvrSvm)
    assert model.dual_coef.shape == (2, 4)
    support = np.flatnonzero(np.abs(model.dual_coef[0]) > 1e-12)
    assert set(support).issubset(range(4))


def test_decision_columns_are_the_binary_solutions_bit_for_bit():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(24, 3))
    k = x @ x.T
    labels = np.array(["a", "b", "c"] * 8)
    model = svm_train(k, labels, C=1.0)
    scores = model.decision_matrix(k)
    for c, cls in enumerate(model.classes):
        y = np.where(labels == cls, 1.0, -1.0)
        alpha, b, _, _ = smo_lockstep(k, y[None], C=1.0)
        assert scores[:, c].tobytes() == (k @ (alpha[0] * y) + b[0]).tobytes()


def test_kernel_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="kernel shape"):
        smo_lockstep(np.eye(3), np.array([[1.0, -1.0]]), C=1.0)
    with pytest.raises(ValueError):
        svm_train(np.eye(3), ["a", "b"], C=1.0)


def _reference_smo(kernel, y, C, tol=1e-3, max_iter=200_000):
    """The plain SMO loop: fresh masks and temporaries every iteration.

    Independent oracle for each row of ``smo_lockstep``, which must agree
    with it bit for bit.
    """
    k = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if k.shape != (n, n):
        raise ValueError(f"kernel shape {k.shape} does not match {n} labels")
    if C < 0:
        raise ValueError("C must be >= 0")
    alpha = np.zeros(n)
    if C == 0:
        return alpha, 0.0, 0, True
    grad = -np.ones(n)  # Q a - e at a = 0
    diag = np.diagonal(k).copy()
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
    return alpha, float(b), it, converged


@st.composite
def smo_problems(draw):
    """PSD Grams of small integer count matrices, raw or cosine-normalized,
    with duplicated rows, one-sided labels and iteration caps."""
    n = draw(st.integers(2, 24))
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=width, max_size=width),
                         min_size=n, max_size=n))
    x = np.array(rows, dtype=np.int64)
    dups = draw(st.integers(0, n // 2))
    x[n - dups :] = x[:dups]
    k = (x @ x.T).astype(np.float64)
    if draw(st.booleans()):
        diag = np.diagonal(k).copy()
        diag[diag == 0] = 1.0
        k = k / np.sqrt(np.outer(diag, diag))
    y = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    if draw(st.booleans()):
        y[:] = y[0]  # one-sided labels
    C = draw(st.sampled_from([0, 1e-3, 1, 1.0, 100]))
    max_iter = draw(st.sampled_from([3, 200_000]))
    return k, y, C, max_iter


@given(smo_problems())
@settings(max_examples=300, deadline=None)
def test_smo_matches_reference_bit_for_bit(problem):
    k, y, C, max_iter = problem
    with warnings.catch_warnings(record=True) as want_warned:
        warnings.simplefilter("always")
        want = _reference_smo(k, y, C, 1e-3, max_iter)
    with warnings.catch_warnings(record=True) as got_warned:
        warnings.simplefilter("always")
        alpha, b, n_iter, converged = smo_lockstep(k, y[None], C, 1e-3, max_iter)
    assert alpha[0].tobytes() == want[0].tobytes()
    assert b[0] == want[1] and np.signbit(b[0]) == np.signbit(want[1])
    assert (n_iter[0], converged[0]) == want[2:4]
    assert [w.category for w in got_warned] == [w.category for w in want_warned]
    assert all(w.category is ConvergenceWarning for w in got_warned)



@st.composite
def lockstep_batches(draw):
    """A batch of problems over one PSD Gram: random exclusion masks,
    one-sided and all-excluded rows, several bounds, caps and tolerances."""
    n = draw(st.integers(1, 16))
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=width, max_size=width),
                         min_size=n, max_size=n))
    x = np.array(rows, dtype=np.int64)
    k = (x @ x.T).astype(np.float64)
    if draw(st.booleans()):
        diag = np.diagonal(k).copy()
        diag[diag == 0] = 1.0
        k = k / np.sqrt(np.outer(diag, diag))
    y = []
    for _ in range(draw(st.integers(1, 6))):
        row = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
        shape = draw(st.sampled_from(["mixed", "one-sided", "all-excluded"]))
        if shape == "one-sided":
            row[:] = row[0]
        if shape == "all-excluded":
            row[:] = 0.0
        else:
            row[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
        y.append(row)
    C = draw(st.sampled_from([0, 1e-3, 1, 100]))
    max_iter = draw(st.sampled_from([3, 200_000]))
    # A negative tolerance never stops on the gap, so rows end on "no
    # partner" or at the cap; the cap is kept low for the serial oracle.
    tol = draw(st.sampled_from([1e-3, -1.0]))
    if tol < 0:
        max_iter = min(max_iter, 60)
    return k, np.array(y), C, tol, max_iter


@given(lockstep_batches())
@settings(max_examples=200, deadline=None)
def test_lockstep_rows_match_reference_on_their_training_points(batch):
    k, y, C, tol, max_iter = batch
    with warnings.catch_warnings(record=True) as got_warned:
        warnings.simplefilter("always")
        alpha, b, n_iter, converged = smo_lockstep(k, y, C, tol, max_iter)
    capped = 0
    for p, row in enumerate(y):
        idx = np.flatnonzero(row)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            want = _reference_smo(k[np.ix_(idx, idx)], row[idx], C, tol, max_iter)
        assert alpha[p][idx].tobytes() == want[0].tobytes()
        assert alpha[p][row == 0].tobytes() == np.zeros(len(row) - len(idx)).tobytes()
        assert b[p] == want[1] and np.signbit(b[p]) == np.signbit(want[1])
        assert (n_iter[p], converged[p]) == want[2:4]
        capped += not want[3]
    assert [w.category for w in got_warned] == [ConvergenceWarning] * bool(capped)
    if capped:
        assert f"in {capped} of {len(y)} solves" in str(got_warned[0].message)


def test_lockstep_rejects_labels_outside_plus_minus_one_and_zero():
    with pytest.raises(ValueError, match="must be"):
        smo_lockstep(np.eye(2), np.array([[1.0, 2.0]]), C=1.0)
    with pytest.raises(ValueError, match="matrix"):
        smo_lockstep(np.eye(2), np.array([1.0, -1.0]), C=1.0)


def test_capped_training_warns_once_with_the_count():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    labels = ["a", "b", "c", "d"] * 10
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = svm_train(x @ x.T, labels, C=10.0, max_iter=3)
    capped = int((~model.converged).sum())
    assert capped > 1
    assert len(caught) == 1 and caught[0].category is ConvergenceWarning
    assert f"SMO stopped at the iteration cap in {capped} of 4 solves" in str(caught[0].message)


@pytest.mark.parametrize("y", [[1.0, -1.0], [-1.0, 1.0]])
def test_zero_bias_keeps_the_serial_sign(y):
    # One step lands both gradients on exactly 0, so the bias is a signed zero.
    want = _reference_smo(np.eye(2), np.array(y), C=10.0)
    got = smo_lockstep(np.eye(2), np.array([y]), C=10.0)[1][0]
    assert got == want[1] == 0.0
    assert np.signbit(got) == np.signbit(want[1])
