"""Survival evaluation of mined patterns on censored outcomes.

Provides Harrell's concordance index, a ridge-penalized Cox baseline with
Breslow tie handling, a model-free log-relative-risk sum scorer, event-
stratified k-fold cross-validation, and sum-of-ranks pattern ranking.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._kernels import concordance_counts
from .errors import CohortValidationError, ConfigError, FoldError, UndefinedMetricError
from .matrix import BinaryDesignMatrix

log = logging.getLogger(__name__)

DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0)


@dataclass(frozen=True)
class CoxModel:
    """Ridge-penalized Cox fit: score(patient) = row . coefficients."""

    coefficients: np.ndarray
    lam: float
    converged: bool
    iterations: int
    objective_path: tuple[float, ...] = ()

    def score(self, matrix: BinaryDesignMatrix) -> np.ndarray:
        return matrix.cells.astype(float) @ self.coefficients


@dataclass(frozen=True)
class CVResult:
    fold_c: tuple[float, ...]
    train_c: tuple[float, ...]  # training-side C of each fold's chosen model
    mean_c: float
    pooled_c: float
    models: tuple[CoxModel, ...]
    chosen_lambda: tuple[float, ...]
    seed: int
    folds: np.ndarray  # fold id per patient


@dataclass(frozen=True)
class PatternRanking:
    ordered_keys: tuple[str, ...]
    rank_sum: Mapping[str, int]


def concordance_index(scores, times, events) -> float:
    """Harrell's C: fraction of comparable pairs ranked correctly.

    A pair is comparable when the earlier time carries an event (equal times:
    exactly one event).  Concordant means the higher risk score belongs to
    the earlier event; tied scores contribute 0.5.  The pairs are counted
    exactly in O(n log n + D·n) time and O(n) memory, D being the number of
    distinct event times.  A NaN or infinite score or time is a ConfigError.
    """
    scores = np.asarray(scores, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    if not (scores.shape == times.shape == events.shape):
        raise ConfigError("scores, times and events must have identical shapes")
    if not (np.isfinite(scores).all() and np.isfinite(times).all()):
        raise ConfigError("scores and times must be finite")
    concordant, ties, comparable = concordance_counts(scores, times, events)
    if comparable == 0:
        raise UndefinedMetricError("no comparable pairs: concordance undefined")
    return (concordant + 0.5 * ties) / comparable


class _RiskSets:
    """A fold's rows sorted once by time, grouped into its D distinct-time blocks.

    The risk set of block b is blocks b..D-1, so every Breslow sum is a suffix
    sum over D block sums instead of over n rows.
    """

    def __init__(self, X: np.ndarray, times: np.ndarray, events: np.ndarray):
        order = np.argsort(times, kind="stable")
        self.X, self.times, self.events = X[order], times[order], events[order]
        ts, es = self.times, self.events
        if not es.any():
            raise CohortValidationError("Cox objective needs at least one event")
        starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
        self.starts, self.sizes = starts, np.diff(np.r_[starts, ts.size])
        d = np.add.reduceat(es.astype(float), starts)
        self.ev = np.flatnonzero(d)  # blocks holding at least one event
        self.d = d[self.ev]
        self.x_events = self.X[es].sum(axis=0)  # does not depend on beta

    def objective(self, beta: np.ndarray, lam: float):
        """(ll, gradient, (w, S0, S1)): the sums are reused by ``hessian``."""
        w = np.exp(self.X @ beta)
        W0 = np.add.reduceat(w, self.starts)
        W1 = np.array([w[lo:lo + k] @ self.X[lo:lo + k] for lo, k in zip(self.starts, self.sizes)])
        S0, S1 = np.cumsum(W0[::-1])[::-1], np.cumsum(W1[::-1], axis=0)[::-1]
        s0 = S0[self.ev]
        ll = float(self.x_events @ beta - self.d @ np.log(s0) - 0.5 * lam * beta @ beta)
        grad = self.x_events - (self.d / s0) @ S1[self.ev] - lam * beta
        return ll, grad, (w, S0, S1)

    def hessian(self, w, S0, S1, lam: float) -> np.ndarray:
        """-lam*I - sum over event blocks b of d_b (S2_b/S0_b - m_b m_b^T), m_b = S1_b/S0_b.

        Row i lies in the risk sets of every block up to its own, so the S2
        terms regroup into one weighted Gram matrix: row i weighs
        w_i * c_i, with c_i the sum of d_b/S0_b over those blocks.
        """
        c = np.zeros(S0.size)
        c[self.ev] = self.d / S0[self.ev]
        row_w = w * np.repeat(np.cumsum(c), self.sizes)
        m = S1[self.ev] / S0[self.ev, None]
        return (m.T * self.d) @ m - self.X.T @ (row_w[:, None] * self.X) - lam * np.eye(m.shape[1])


def cox_objective(
    X: np.ndarray, times: np.ndarray, events: np.ndarray, beta: np.ndarray, lam: float
) -> tuple[float, np.ndarray]:
    """Penalized Breslow partial log-likelihood and its gradient."""
    return _RiskSets(X, times, events).objective(beta, lam)[:2]


def _check_penalty(lam):
    """``lam``, if it is a finite, non-negative ridge penalty."""
    if not (np.isfinite(lam) and lam >= 0):
        raise ConfigError(f"ridge penalty must be finite and non-negative, got {lam!r}")
    return lam


def _check_folds(k: int, seed: int) -> None:
    """Reject fold settings that no cohort accepts."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def _fit_cox(risk: _RiskSets, lam, tol, max_iter):
    _check_penalty(lam)
    p = risk.X.shape[1]
    beta = np.zeros(p)
    if p == 0:
        return CoxModel(beta, lam, True, 0, ())
    ll, grad, sums = risk.objective(beta, lam)
    path = [ll]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.max(np.abs(grad)) < tol:
            converged = True
            iterations -= 1
            break
        hess = risk.hessian(*sums, lam)
        try:
            delta = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(-hess, grad, rcond=None)[0]
        # near the optimum the objective is flat at float resolution; a tiny
        # relative slack keeps one-ulp rejections from stalling the search
        slack = 1e-12 * (1.0 + abs(ll))
        step = 1.0
        moved = False
        for _ in range(30):
            cand = beta + step * delta
            cand_ll, cand_grad, cand_sums = risk.objective(cand, lam)
            if np.isfinite(cand_ll) and cand_ll >= ll - slack:
                moved = not np.array_equal(cand, beta)
                beta, ll, grad, sums = cand, cand_ll, cand_grad, cand_sums
                path.append(ll)
                break
            step *= 0.5
        if not moved:
            break
    else:
        iterations = max_iter
    if not converged and np.max(np.abs(grad)) < tol:
        converged = True
    if not converged:
        log.warning("ridge Cox did not converge (lambda=%g, %d iterations)", lam, iterations)
    return CoxModel(beta, lam, converged, iterations, tuple(path))


def fit_ridge_cox(
    matrix: BinaryDesignMatrix, lam: float, tol: float = 1e-8, max_iter: int = 50
) -> CoxModel:
    """Maximize the Breslow partial log-likelihood minus (lam/2)||beta||^2.

    Newton iterations with step halving; converged when the gradient
    max-norm drops below ``tol``.  A non-converged model is still returned.
    """
    if not matrix.events.any():
        raise CohortValidationError("Cox fit needs at least one event")
    risk = _RiskSets(matrix.cells.astype(float), matrix.times.astype(float), matrix.events)
    return _fit_cox(risk, lam, tol, max_iter)


def rr_score(matrix: BinaryDesignMatrix, rr_by_key: Mapping[str, float]) -> np.ndarray:
    """Model-free baseline: score_i = sum_j cell(i, j) * log(rr_j)."""
    missing = [k for k in matrix.pattern_keys if k not in rr_by_key]
    if missing:
        raise ConfigError(f"missing relative risk for columns: {missing[:3]}")
    weights = np.log([rr_by_key[k] for k in matrix.pattern_keys])
    if weights.size == 0:
        return np.zeros(len(matrix.patient_ids))
    return matrix.cells.astype(float) @ weights


def make_folds(events: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Event-stratified folds: each outcome group is shuffled once and dealt round-robin.

    Whatever the shuffle, every fold and its complement then hold an event iff
    there are at least ``k`` events; fewer raise FoldError.
    """
    _check_folds(k, seed)
    events = np.asarray(events, dtype=bool)
    n = events.shape[0]
    if k > n:
        raise ConfigError(f"k must lie in [2, {n}], got {k}")
    n_events = int(events.sum())
    if k > n_events:
        raise FoldError(f"k={k} folds need at least {k} events, got {n_events}")
    rng = np.random.default_rng(seed)
    folds = np.empty(n, dtype=np.int64)
    for group in (np.flatnonzero(events), np.flatnonzero(~events)):
        shuffled = rng.permutation(group)
        folds[shuffled] = np.arange(shuffled.size) % k
    return folds


def cv_score_vector(
    matrix: BinaryDesignMatrix, scores: np.ndarray, folds: np.ndarray
) -> tuple[float, ...]:
    """Per-fold test C-index of a fixed score vector; NaN for a fold without a comparable pair."""
    out = []
    for f in range(int(folds.max()) + 1):
        test = folds == f
        try:
            out.append(concordance_index(scores[test], matrix.times[test], matrix.events[test]))
        except UndefinedMetricError:
            out.append(float("nan"))
    return tuple(out)


def _heldout_c(
    matrix: BinaryDesignMatrix, scores: np.ndarray, folds: np.ndarray
) -> tuple[tuple[float, ...], float]:
    """Per-fold test C-index of held-out scores, and their mean.

    The mean skips NaN folds; when no fold is defined it is the C of the
    pooled scores (keeps leave-one-out defined).
    """
    fold_c = cv_score_vector(matrix, scores, folds)
    defined = [c for c in fold_c if not np.isnan(c)]
    if defined:
        return fold_c, float(np.mean(defined))
    return fold_c, concordance_index(scores, matrix.times, matrix.events)


def cross_validate(
    matrix: BinaryDesignMatrix,
    k: int = 5,
    seed: int = 0,
    lam_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
) -> CVResult:
    """Event-stratified k-fold CV of the ridge Cox baseline.

    The penalty is chosen per fold on the training side only (best train
    C-index; ties go to the smaller penalty).  A test fold too small to hold
    a comparable pair contributes NaN, as in ``cv_score_vector``; the mean
    skips it, or is the C of the pooled held-out scores when no fold is
    defined (keeps leave-one-out defined).
    """
    if len(matrix.pattern_keys) == 0:
        raise UndefinedMetricError("matrix has no pattern columns to evaluate")
    if len(lam_grid) == 0:
        raise ConfigError("the ridge penalty grid is empty")
    folds = make_folds(matrix.events, k, seed)
    X = matrix.cells.astype(float)
    heldout = np.zeros(X.shape[0])
    train_c: list[float] = []
    models: list[CoxModel] = []
    chosen: list[float] = []
    for f in range(k):
        test = folds == f
        train = ~test
        best: tuple[float, float, CoxModel] | None = None
        risk = _RiskSets(X[train], matrix.times[train], matrix.events[train])
        for lam in lam_grid:
            model = _fit_cox(risk, lam, 1e-8, 50)
            c_train = concordance_index(
                X[train] @ model.coefficients, matrix.times[train], matrix.events[train]
            )
            if best is None or c_train > best[0]:
                best = (c_train, lam, model)
        c_train, lam, model = best
        heldout[test] = X[test] @ model.coefficients
        train_c.append(c_train)
        models.append(model)
        chosen.append(lam)
    fold_c, mean_c = _heldout_c(matrix, heldout, folds)
    return CVResult(
        fold_c=fold_c,
        train_c=tuple(train_c),
        mean_c=mean_c,
        pooled_c=concordance_index(heldout, matrix.times, matrix.events),
        models=tuple(models),
        chosen_lambda=tuple(chosen),
        seed=seed,
        folds=folds,
    )


def rank_patterns(models: Sequence[CoxModel], matrix: BinaryDesignMatrix) -> PatternRanking:
    """Sum-of-ranks selection: rank columns per model by |coefficient|, sum ranks.

    Rank 1 is the largest absolute coefficient; ties inside a model and in
    the final ordering break by canonical pattern key.  Identical columns
    tie: each is ranked by its first twin's coefficient, since a fit tells
    them apart only by rounding.
    """
    if not models:
        raise ConfigError("rank_patterns needs at least one model")
    keys = matrix.pattern_keys
    _, first, twin = np.unique(matrix.cells, axis=1, return_index=True, return_inverse=True)
    sums = {key: 0 for key in keys}
    for model in models:
        coef = np.abs(np.asarray(model.coefficients, dtype=float))
        if coef.shape[0] != len(keys):
            raise ConfigError("model width does not match the matrix")
        coef = coef[first][twin.ravel()]
        order = sorted(range(len(keys)), key=lambda j: (-coef[j], keys[j]))
        for rank, j in enumerate(order, start=1):
            sums[keys[j]] += rank
    ordered = tuple(sorted(keys, key=lambda key: (sums[key], key)))
    return PatternRanking(ordered_keys=ordered, rank_sum=sums)
