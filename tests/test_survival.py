import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from wavemine import survival
from wavemine.cli import main
from wavemine.encoding import read_intervals_json
from wavemine.errors import ConfigError, FoldError, UndefinedMetricError
from wavemine.matrix import BinaryDesignMatrix, build_matrix
from wavemine.miner import MinerConfig, mine
from wavemine.survival import (
    CoxModel,
    _RiskSets,
    concordance_index,
    cox_objective,
    cross_validate,
    cv_score_vector,
    fit_ridge_cox,
    make_folds,
    rank_patterns,
    rr_score,
)


def _matrix(cells, times, events, keys=None):
    cells = np.asarray(cells, dtype=np.int8)
    if cells.ndim == 1:
        cells = cells.reshape(-1, 1)
    keys = tuple(keys or (f"K{j}" for j in range(cells.shape[1])))
    return BinaryDesignMatrix(
        patient_ids=tuple(f"p{i}" for i in range(cells.shape[0])),
        times=np.asarray(times, dtype=float),
        events=np.asarray(events, dtype=bool),
        pattern_keys=keys,
        cells=cells,
    )


# ---------------------------------------------------------------------------
# concordance


def test_concordance_worked_example():
    c = concordance_index([3, 1, 2], [2, 4, 6], [1, 1, 0])
    assert c == pytest.approx(2 / 3, abs=1e-15)


def test_concordance_perfect_and_antiperfect():
    times = np.array([1.0, 2.0, 3.0, 4.0])
    events = np.ones(4, dtype=bool)
    assert concordance_index(-times, times, events) == 1.0
    assert concordance_index(times, times, events) == 0.0


def test_concordance_all_ties_half():
    assert concordance_index([2, 2, 2], [1, 2, 3], [1, 1, 1]) == 0.5


def test_concordance_equal_times_single_event():
    # (event at t, censored at t) is comparable; both events at t is not
    assert concordance_index([2, 1], [3, 3], [1, 0]) == 1.0
    with pytest.raises(UndefinedMetricError):
        concordance_index([2, 1], [3, 3], [1, 1])


def test_concordance_undefined_without_pairs():
    with pytest.raises(UndefinedMetricError):
        concordance_index([1.0], [2.0], [True])
    with pytest.raises(UndefinedMetricError):
        concordance_index([1.0, 2.0], [2.0, 3.0], [False, False])


def test_concordance_invariant_under_monotone_transform():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = 30
        scores = rng.normal(size=n)
        times = rng.integers(1, 8, size=n).astype(float)
        events = rng.random(n) < 0.4
        if not events.any() or not (~events).any():
            continue
        base = concordance_index(scores, times, events)
        assert concordance_index(np.exp(scores), times, events) == pytest.approx(base)
        assert concordance_index(3 * scores + 7, times, events) == pytest.approx(base)


def test_concordance_sign_flip_complements():
    rng = np.random.default_rng(11)
    scores = rng.permutation(40).astype(float)  # distinct: no score ties
    times = rng.integers(1, 9, size=40).astype(float)
    events = rng.random(40) < 0.5
    c = concordance_index(scores, times, events)
    assert concordance_index(-scores, times, events) == pytest.approx(1 - c)


@pytest.mark.parametrize(
    "field, value",
    [("scores", math.nan), ("scores", math.inf), ("times", math.nan)],
    ids=["nan-score", "inf-score", "nan-time"],
)
def test_concordance_rejects_non_finite(field, value):
    rng = np.random.default_rng(5)
    data = {
        "scores": rng.normal(size=50),
        "times": rng.integers(1, 7, size=50).astype(float),
        "events": rng.random(50) < 0.4,
    }
    data[field][7] = value
    with pytest.raises(ConfigError):
        concordance_index(**data)


def test_concordance_allocates_no_pairwise_array():
    # 10k patients over 6 waves: one n×n float array alone would be 800 MB
    rng = np.random.default_rng(6)
    n = 10_000
    scores = rng.normal(size=n)
    times = rng.integers(1, 7, size=n).astype(float)
    events = rng.random(n) < 0.3
    tracemalloc.start()
    try:
        concordance_index(scores, times, events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# ridge Cox


def _toy_cox_matrix():
    cells = [1, 1, 1, 0, 0, 0]
    times = [2, 3, 5, 4, 5, 5]
    events = [1, 1, 0, 1, 0, 0]
    return _matrix(cells, times, events)


def _naive_penalized_ll(x, times, events, beta, lam):
    """Independent objective: direct double loop over risk sets (Breslow)."""
    ll = 0.0
    n = len(x)
    for i in range(n):
        if not events[i]:
            continue
        denom = sum(math.exp(x[j] * beta) for j in range(n) if times[j] >= times[i])
        ll += x[i] * beta - math.log(denom)
    return ll - 0.5 * lam * beta * beta


def _golden_max(fn, lo, hi, tol=1e-10):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    while abs(b - a) > tol:
        if fn(c) > fn(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return (a + b) / 2


def test_ridge_cox_matches_grid_maximization():
    matrix = _toy_cox_matrix()
    x = matrix.cells[:, 0].astype(float).tolist()
    times = matrix.times.tolist()
    events = matrix.events.tolist()
    for lam in (0.01, 0.5, 2.0):
        model = fit_ridge_cox(matrix, lam)
        assert model.converged
        expected = _golden_max(
            lambda b: _naive_penalized_ll(x, times, events, b, lam), -6.0, 6.0
        )
        assert model.coefficients[0] == pytest.approx(expected, abs=1e-4)


def test_ridge_cox_huge_penalty_shrinks_to_zero():
    model = fit_ridge_cox(_toy_cox_matrix(), 1e6)
    assert model.converged
    assert abs(model.coefficients[0]) < 1e-4


def test_ridge_cox_constant_column_zero_coefficient():
    matrix = _matrix(
        np.ones((6, 1)), [2, 3, 5, 4, 5, 5], [1, 1, 0, 1, 0, 0], keys=("const",)
    )
    model = fit_ridge_cox(matrix, 1.0)
    assert model.coefficients[0] == 0.0


def test_ridge_cox_objective_monotone_and_gradient_small():
    matrix = _toy_cox_matrix()
    model = fit_ridge_cox(matrix, 0.1, tol=1e-8)
    path = model.objective_path
    slack = 1e-8 * (1 + abs(path[0]))
    assert all(b >= a - slack for a, b in zip(path, path[1:]))
    _, grad = cox_objective(
        matrix.cells.astype(float), matrix.times, matrix.events, model.coefficients, 0.1
    )
    assert model.converged and np.max(np.abs(grad)) < 1e-8


def _naive_penalized_ll_multi(X, times, events, beta, lam):
    ll = 0.0
    n = len(X)
    for i in range(n):
        if not events[i]:
            continue
        eta_i = sum(X[i][k] * beta[k] for k in range(len(beta)))
        denom = 0.0
        for j in range(n):
            if times[j] >= times[i]:
                denom += math.exp(sum(X[j][k] * beta[k] for k in range(len(beta))))
        ll += eta_i - math.log(denom)
    return ll - 0.5 * lam * sum(b * b for b in beta)


def test_ridge_cox_multicolumn_optimum():
    rng = np.random.default_rng(6)
    n = 40
    cells = rng.integers(0, 2, size=(n, 3)).astype(np.int8)
    events = rng.random(n) < 0.5
    times = np.where(events, rng.integers(1, 6, size=n), 6).astype(float)
    matrix = _matrix(cells, times, events, keys=("a", "b", "c"))
    model = fit_ridge_cox(matrix, 0.5)
    assert model.converged
    X = cells.astype(float).tolist()
    beta = model.coefficients
    # the independent objective's finite-difference gradient vanishes here
    h = 1e-6
    for k in range(3):
        up, down = beta.copy(), beta.copy()
        up[k] += h
        down[k] -= h
        fd = (
            _naive_penalized_ll_multi(X, times, events, up, 0.5)
            - _naive_penalized_ll_multi(X, times, events, down, 0.5)
        ) / (2 * h)
        assert abs(fd) < 1e-4
    # and perturbing the solution never improves the independent objective
    base = _naive_penalized_ll_multi(X, times, events, beta, 0.5)
    for k in range(3):
        for delta in (-0.05, 0.05):
            probe = beta.copy()
            probe[k] += delta
            assert _naive_penalized_ll_multi(X, times, events, probe, 0.5) <= base + 1e-12


def test_ridge_cox_validates_inputs():
    # both public paths reject a penalty that is negative or not finite
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="ridge penalty"):
            fit_ridge_cox(_toy_cox_matrix(), lam)
        with pytest.raises(ConfigError, match="ridge penalty"):
            cross_validate(_cv_matrix(), k=3, seed=0, lam_grid=(0.1, lam))
    with pytest.raises(ConfigError):
        cross_validate(_cv_matrix(), k=3, seed=0, lam_grid=())
    no_events = _matrix([1, 0], [1, 2], [0, 0])
    from wavemine.errors import CohortValidationError

    with pytest.raises(CohortValidationError):
        fit_ridge_cox(no_events, 1.0)


# ---------------------------------------------------------------------------
# reference fit: the Breslow sums taken directly, as per-row suffix sums and
# one Hessian pass per distinct event time; the oracle for the block fit


def _ref_sorted_sums(X, times, events, beta):
    order = np.argsort(times, kind="stable")
    Xs, ts, es = X[order], times[order], events[order]
    eta = Xs @ beta
    w = np.exp(eta)
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum((w[:, None] * Xs)[::-1], axis=0)[::-1]
    return Xs, ts, es, eta, w, s0, s1


def _ref_objective(X, times, events, beta, lam):
    Xs, ts, es, eta, _, s0, s1 = _ref_sorted_sums(X, times, events, beta)
    f = np.searchsorted(ts, ts, side="left")[es]
    ll = float(np.sum(eta[es] - np.log(s0[f])) - 0.5 * lam * beta @ beta)
    grad = Xs[es].sum(axis=0) - (s1[f] / s0[f, None]).sum(axis=0) - lam * beta
    return ll, grad


def _ref_hessian(X, times, events, beta, lam):
    Xs, ts, es, _, w, s0, s1 = _ref_sorted_sums(X, times, events, beta)
    hess = -lam * np.eye(X.shape[1])
    for t in np.unique(ts[es]):
        f = int(np.searchsorted(ts, t, side="left"))
        d = int(np.sum(es & (ts == t)))
        tail = Xs[f:]
        S2 = tail.T @ (w[f:, None] * tail)
        mean = s1[f] / s0[f]
        hess -= d * (S2 / s0[f] - np.outer(mean, mean))
    return hess


def _ref_fit_cox(X, times, events, lam, tol, max_iter):
    """The same Newton loop and line search over the reference sums."""
    beta = np.zeros(X.shape[1])
    ll, grad = _ref_objective(X, times, events, beta, lam)
    path, converged, iterations = [ll], False, 0
    for iterations in range(1, max_iter + 1):
        if np.max(np.abs(grad)) < tol:
            converged = True
            iterations -= 1
            break
        delta = np.linalg.solve(-_ref_hessian(X, times, events, beta, lam), grad)
        slack = 1e-12 * (1.0 + abs(ll))
        step, moved = 1.0, False
        for _ in range(30):
            cand = beta + step * delta
            cand_ll, cand_grad = _ref_objective(X, times, events, cand, lam)
            if np.isfinite(cand_ll) and cand_ll >= ll - slack:
                moved = not np.array_equal(cand, beta)
                beta, ll, grad = cand, cand_ll, cand_grad
                path.append(ll)
                break
            step *= 0.5
        if not moved:
            break
    else:
        iterations = max_iter
    converged = converged or bool(np.max(np.abs(grad)) < tol)
    return CoxModel(beta, lam, converged, iterations, tuple(path))


def _block_case(rng, kind, n, p):
    """Shuffled rows whose sorted time blocks cover every risk-set edge case."""
    times = rng.integers(1, 7, size=n).astype(float)
    events = rng.random(n) < 0.4
    times[:3], events[:3] = 0.0, False  # first block: censoring only
    times[3:6], events[3:6] = 7.0, True  # last block: events only
    times[6:10], events[6:10] = 3.0, [True, True, False, False]  # tied events and censored
    if kind == "binary":
        X = rng.integers(0, 2, size=(n, p))
    elif kind == "real":
        X = rng.normal(size=(n, p))
    else:  # about 5% dense, as a mined pattern matrix, with an all-zero row and column
        X = (rng.random((n, p)) < 0.05).astype(int)
        X[n // 2], X[:, p // 2] = 0, 0
    perm = rng.permutation(n)
    return X[perm].astype(float), times[perm], events[perm]


def _close(actual, expected, rtol):
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * np.abs(expected).max())


@pytest.mark.parametrize("kind", ["binary", "real", "sparse"])
def test_block_gradient_and_hessian_match_reference(kind):
    rng = np.random.default_rng({"binary": 21, "real": 22, "sparse": 24}[kind])
    for case in range(30):
        n = int(rng.integers(12, 80))
        p = int(rng.integers(20, 40) if kind == "sparse" else rng.integers(1, 9))
        X, times, events = _block_case(rng, kind, n, p)
        if kind == "sparse" and case == 0:
            X[:] = 0.0  # a fold with no nonzero cell
        beta = rng.normal(scale=0.5, size=p)
        lam = float(rng.choice([0.0, 0.1, 2.0]))
        risk = _RiskSets(X, times, events)
        ll, grad, sums = risk.objective(beta, lam)
        ref_ll, ref_grad = _ref_objective(X, times, events, beta, lam)
        assert ll == pytest.approx(ref_ll, rel=1e-12)
        _close(grad, ref_grad, 1e-10)
        hess = risk.hessian(*sums, lam)
        _close(hess, _ref_hessian(X, times, events, beta, lam), 1e-10)
        public_ll, public_grad = cox_objective(X, times, events, beta, lam)
        assert public_ll == ll and np.array_equal(public_grad, grad)
        if kind != "real":  # the matrix's own int8 cells give the float input's sums
            int8 = _RiskSets(X.astype(np.int8), times, events)
            int8_ll, int8_grad, int8_sums = int8.objective(beta, lam)
            assert int8_ll == ll and np.array_equal(int8_grad, grad)
            assert np.array_equal(int8.hessian(*int8_sums, lam), hess)


def test_block_hessian_matches_finite_difference_of_gradient():
    rng = np.random.default_rng(23)
    h = 1e-5
    for kind in ("binary", "real", "sparse"):
        X, times, events = _block_case(rng, kind, 60, 5)
        beta, lam = rng.normal(scale=0.5, size=5), 0.3
        risk = _RiskSets(X, times, events)
        hess = risk.hessian(*risk.objective(beta, lam)[2], lam)
        fd = np.column_stack([
            (cox_objective(X, times, events, beta + h * e, lam)[1]
             - cox_objective(X, times, events, beta - h * e, lam)[1]) / (2 * h)
            for e in np.eye(5)
        ])
        _close(hess, fd, 1e-6)


def _dense(risk):
    """The risk set's nonzero cells as the dense matrix they hold."""
    X = np.zeros((risk.times.size, risk.p))
    X[risk.rows, risk.cols] = risk.vals
    return X


def test_block_fit_matches_reference_fit_on_synth_cohort(tmp_path, monkeypatch):
    config = {"patients": 600, "waves": 6, "features": 10, "event_rate": 0.15,
              "noise_rate": 0.08, "seed": 9}
    (tmp_path / "synth.json").write_text(json.dumps(config), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--config", str(tmp_path / "synth.json")]) == 0
    assert main(["abstract", "--cohort", str(data / "cohort.csv"),
                 "--outcomes", str(data / "outcomes.csv"),
                 "--features", str(data / "features.json"),
                 "--out", str(tmp_path / "intervals.json")]) == 0
    with open(tmp_path / "intervals.json", encoding="utf-8") as fh:
        doc = read_intervals_json(fh)
    results = mine(doc, MinerConfig(minsup=0.01, risk_sup=0.5))
    matrix = build_matrix(results, doc.ids, doc.outcomes())
    assert matrix.cells.shape[1] >= 20
    new = survival.cross_validate(matrix, k=5, seed=0)
    monkeypatch.setattr(
        survival,
        "_fit_cox",
        lambda risk, lam, tol, max_iter: _ref_fit_cox(
            _dense(risk), risk.times, risk.events, lam, tol, max_iter
        ),
    )
    ref = survival.cross_validate(matrix, k=5, seed=0)
    assert new.chosen_lambda == ref.chosen_lambda
    assert [m.converged for m in new.models] == [m.converged for m in ref.models]
    assert [m.iterations for m in new.models] == [m.iterations for m in ref.models]
    assert rank_patterns(new.models, matrix).ordered_keys == rank_patterns(
        ref.models, matrix
    ).ordered_keys
    for m_new, m_ref in zip(new.models, ref.models):
        assert np.max(np.abs(m_new.coefficients - m_ref.coefficients)) <= 1e-8
    for c_new, c_ref in zip(new.fold_c + new.train_c, ref.fold_c + ref.train_c):
        assert abs(c_new - c_ref) <= 1e-12
    assert abs(new.pooled_c - ref.pooled_c) <= 1e-12


# ---------------------------------------------------------------------------
# rr_score


def test_rr_score_zero_columns():
    matrix = _matrix(np.zeros((4, 0)), [1, 2, 3, 4], [1, 0, 1, 0], keys=())
    assert rr_score(matrix, {}).tolist() == [0.0] * 4


def test_rr_score_single_pattern():
    matrix = _matrix([1, 0, 1], [1, 2, 3], [1, 0, 0], keys=("k",))
    scores = rr_score(matrix, {"k": 6.0})
    assert scores == pytest.approx([math.log(6.0), 0.0, math.log(6.0)])


def test_rr_score_identical_columns_double():
    cells = np.array([[1, 1], [0, 0]], dtype=np.int8)
    matrix = _matrix(cells, [1, 2], [1, 0], keys=("k1", "k2"))
    scores = rr_score(matrix, {"k1": 4.0, "k2": 4.0})
    assert scores[0] == pytest.approx(2 * math.log(4.0))


def test_rr_score_missing_stats_rejected():
    matrix = _matrix([1, 0], [1, 2], [1, 0], keys=("k",))
    with pytest.raises(ConfigError):
        rr_score(matrix, {})


def test_scores_sum_over_nonzero_cells_without_a_float_copy():
    # 5000 x 140 cells at about 2% density: a float copy of them is 5.6 MB
    rng = np.random.default_rng(3)
    n, p = 5000, 140
    matrix = _matrix(rng.random((n, p)) < 0.02, np.ones(n), np.ones(n, dtype=bool))
    rr_by_key = dict(zip(matrix.pattern_keys, rng.uniform(0.2, 5.0, p)))
    model = _model(rng.normal(size=p))
    dense = matrix.cells.astype(float)
    expected = (dense @ np.log(list(rr_by_key.values())), dense @ model.coefficients)
    del dense
    tracemalloc.start()
    try:
        scores = (rr_score(matrix, rr_by_key), model.score(matrix))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    for got, want in zip(scores, expected):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# cross-validation


def _cv_matrix(n=60, seed=0):
    rng = np.random.default_rng(seed)
    carrier = rng.random(n) < 0.4
    events = np.where(carrier, rng.random(n) < 0.6, rng.random(n) < 0.1)
    times = np.where(events, rng.integers(1, 5, size=n), 5).astype(float)
    return _matrix(carrier.astype(np.int8), times, events, keys=("planted",))


def test_cross_validate_deterministic_for_seed():
    matrix = _cv_matrix()
    one = cross_validate(matrix, k=5, seed=3)
    two = cross_validate(matrix, k=5, seed=3)
    assert one.fold_c == two.fold_c
    assert np.array_equal(one.folds, two.folds)
    assert one.chosen_lambda == two.chosen_lambda
    other = cross_validate(matrix, k=5, seed=4)
    assert not np.array_equal(one.folds, other.folds)


def test_cross_validate_stratifies_events():
    matrix = _cv_matrix()
    cv = cross_validate(matrix, k=5, seed=0)
    for f in range(5):
        assert matrix.events[cv.folds == f].any()


def test_cross_validate_sorts_each_training_fold_once(monkeypatch):
    built = []

    class Counted(_RiskSets):
        def __init__(self, *args):
            built.append(len(args[1]))
            super().__init__(*args)

    matrix = _cv_matrix()
    expected = cross_validate(matrix, k=5, seed=0, lam_grid=(0.1, 1.0, 10.0))
    monkeypatch.setattr(survival, "_RiskSets", Counted)
    cv = cross_validate(matrix, k=5, seed=0, lam_grid=(0.1, 1.0, 10.0))
    assert built == [int((cv.folds != f).sum()) for f in range(5)]
    assert cv.fold_c == expected.fold_c and cv.chosen_lambda == expected.chosen_lambda


def test_cross_validate_makes_no_dense_float_copy():
    # 5000 x 140 cells at about 2% density, as a mined pattern matrix: a float
    # copy of the cells is 5.6 MB, and each training fold's another 4.5 MB
    rng = np.random.default_rng(12)
    n, p = 5000, 140
    cells = rng.random((n, p)) < 0.02
    events = rng.random(n) < 0.15
    times = np.where(events, rng.integers(1, 7, size=n), 6).astype(float)
    matrix = _matrix(cells, times, events)
    tracemalloc.start()
    try:
        cross_validate(matrix, k=5, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_cross_validate_scores_held_out_folds_over_the_nonzeros(monkeypatch):
    rng = np.random.default_rng(5)
    n, p = 400, 30
    cells = rng.random((n, p)) < 0.05
    events = rng.random(n) < 0.3
    times = np.where(events, rng.integers(1, 7, size=n), 6).astype(float)
    matrix = _matrix(cells, times, events)
    row_sums = survival._row_sums
    scored = []

    def recorded(cells, weights):
        scored.append(row_sums(cells, weights))
        return scored[-1]

    monkeypatch.setattr(survival, "_row_sums", recorded)
    cv = cross_validate(matrix, k=5, seed=0)
    assert len(scored) == 5
    dense = matrix.cells.astype(float)
    heldout = np.zeros(n)
    for f, (model, got) in enumerate(zip(cv.models, scored)):
        test = cv.folds == f
        np.testing.assert_allclose(got, dense[test] @ model.coefficients, rtol=0, atol=1e-12)
        heldout[test] = got
    assert cv.pooled_c == concordance_index(heldout, matrix.times, matrix.events)


def test_cross_validate_rejects_zero_columns():
    matrix = _matrix(np.zeros((10, 0)), np.arange(1, 11), [1] * 5 + [0] * 5, keys=())
    with pytest.raises(UndefinedMetricError):
        cross_validate(matrix, k=2, seed=0)


def test_folds_error_when_events_fewer_than_k(caplog):
    # round-robin dealing gives every shuffle the same per-fold event counts,
    # so too few events fail on the first draw, with no reshuffle to log
    events = np.array([True, True, False, False, False, False])
    with caplog.at_level("WARNING", logger="wavemine.survival"):
        with pytest.raises(FoldError, match="k=4 folds need at least 4 events, got 2"):
            make_folds(events, 4, seed=0)
    assert caplog.records == []


def test_folds_are_dealt_round_robin_from_one_shuffle():
    # recorded when make_folds still reshuffled: an accepted call's one draw is unchanged
    events = np.array([1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1], dtype=bool)
    assert make_folds(events, 3, seed=7).tolist() == [1, 1, 0, 0, 0, 0, 1, 2, 1, 0, 2, 2]


def test_leave_one_out_no_censoring_defined():
    n = 6
    rng = np.random.default_rng(2)
    matrix = _matrix(
        rng.integers(0, 2, size=n).astype(np.int8),
        rng.permutation(n) + 1,
        np.ones(n, dtype=bool),
    )
    cv = cross_validate(matrix, k=n, seed=0)
    assert all(math.isnan(c) for c in cv.fold_c)  # one-patient test folds
    assert 0.0 <= cv.mean_c <= 1.0  # falls back to the pooled held-out C
    assert cv.mean_c == cv.pooled_c


def test_both_scorers_share_the_tiny_fold_rule():
    rng = np.random.default_rng(0)
    events, times = rng.random(10) < 0.5, rng.integers(1, 6, 10)
    matrix = _matrix(rng.integers(0, 2, (10, 2)), times, events)
    # the second test fold holds no comparable pair
    cv = cross_validate(matrix, k=3, seed=0)
    assert math.isnan(cv.fold_c[1]) and not math.isnan(cv.fold_c[0] + cv.fold_c[2])
    assert cv.mean_c == np.mean([cv.fold_c[0], cv.fold_c[2]])
    scores = rr_score(matrix, {"K0": 2.0, "K1": 0.5})
    fold_c = cv_score_vector(matrix, scores, cv.folds)
    assert math.isnan(fold_c[1]) and not math.isnan(fold_c[0] + fold_c[2])
    assert survival._heldout_c(matrix, scores, cv.folds)[1] == np.mean([fold_c[0], fold_c[2]])


def test_cv_score_vector_uses_same_folds():
    matrix = _cv_matrix()
    cv = cross_validate(matrix, k=5, seed=1)
    fold_c = cv_score_vector(matrix, matrix.cells[:, 0].astype(float), cv.folds)
    assert len(fold_c) == 5
    assert all(0.0 <= c <= 1.0 for c in fold_c)


# ---------------------------------------------------------------------------
# rank_patterns


def _ranking_matrix(keys):
    # distinct columns: identical ones tie whatever their coefficients
    return _matrix(np.eye(4, len(keys), dtype=np.int8), [1, 2, 3, 4], [1, 1, 0, 0], keys=keys)


def _model(coefs):
    return CoxModel(np.asarray(coefs, dtype=float), lam=1.0, converged=True, iterations=1)


def test_rank_patterns_sums_fold_ranks():
    matrix = _ranking_matrix(("X", "Y", "Z"))
    models = [_model([3.0, -2.0, 1.0]), _model([-2.0, 3.0, 1.0])]
    # fold ranks: X:(1,2), Y:(2,1), Z:(3,3) -> sums 3,3,6; X before Y by key
    ranking = rank_patterns(models, matrix)
    assert ranking.ordered_keys == ("X", "Y", "Z")
    assert [ranking.rank_sum[k] for k in ranking.ordered_keys] == [3, 3, 6]


def test_rank_patterns_single_model_uses_coefficient_order():
    matrix = _ranking_matrix(("X", "Y", "Z"))
    ranking = rank_patterns([_model([0.5, -3.0, 1.0])], matrix)
    assert ranking.ordered_keys == ("Y", "Z", "X")


def test_rank_patterns_all_zero_ties_break_by_key():
    matrix = _ranking_matrix(("b", "c", "a"))
    ranking = rank_patterns([_model([0.0, 0.0, 0.0])], matrix)
    assert ranking.ordered_keys == ("a", "b", "c")


def test_rank_patterns_ties_identical_columns():
    cells = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1], [0, 0, 0]], dtype=np.int8)
    matrix = _matrix(cells, [1, 2, 3, 4], [1, 1, 0, 0], keys=("Y", "Z", "X"))
    # Y and X are twins: rounding noise in their coefficients must not order them
    for coefs in ([1.0 + 1e-15, 0.5, 1.0], [1.0, 0.5, 1.0 + 1e-15]):
        ranking = rank_patterns([_model(coefs)], matrix)
        assert ranking.ordered_keys == ("X", "Y", "Z")


def _unique_rank_reference(models, matrix):
    """Sum-of-ranks with each column's first twin found by ``np.unique(axis=1)``."""
    keys = matrix.pattern_keys
    _, first, twin = np.unique(matrix.cells, axis=1, return_index=True, return_inverse=True)
    sums = {key: 0 for key in keys}
    for model in models:
        coef = np.abs(model.coefficients)[first][twin.ravel()]
        order = sorted(range(len(keys)), key=lambda j: (-coef[j], keys[j]))
        for rank, j in enumerate(order, start=1):
            sums[keys[j]] += rank
    return tuple(sorted(keys, key=lambda key: (sums[key], key))), sums


@pytest.mark.parametrize("seed", range(8))
def test_rank_patterns_twins_match_unique_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))  # packed columns end in a partial byte unless n % 8 == 0
    base = rng.random((n, 4)) < 0.3
    picks = rng.integers(0, 4, size=9)
    cells = np.column_stack([base[:, picks], np.zeros(n, dtype=bool)])  # twins, all-zero
    order = rng.permutation(cells.shape[1])
    keys = tuple(f"K{j}" for j in rng.permutation(cells.shape[1]))
    matrix = _matrix(cells[:, order], np.arange(1, n + 1), np.ones(n, dtype=bool), keys=keys)
    # twins get coefficients that differ by rounding only, as from a fit
    shared = rng.normal(size=4)[picks]
    models = [_model(np.append(shared + rng.normal(scale=1e-15, size=9), rng.normal())[order])
              for _ in range(3)]
    ordered, sums = _unique_rank_reference(models, matrix)
    ranking = rank_patterns(models, matrix)
    assert ranking.ordered_keys == ordered
    assert dict(ranking.rank_sum) == sums


def test_rank_patterns_scale_invariant():
    matrix = _ranking_matrix(("X", "Y", "Z"))
    models = [_model([3.0, -2.0, 1.0]), _model([-2.0, 3.0, 1.0])]
    scaled = [_model([30.0, -20.0, 10.0]), _model([-2.0, 3.0, 1.0])]
    assert rank_patterns(models, matrix) == rank_patterns(scaled, matrix)
