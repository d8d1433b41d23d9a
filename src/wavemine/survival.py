"""Survival evaluation of mined patterns on censored outcomes.

Provides Harrell's concordance index, a ridge-penalized Cox baseline with
Breslow tie handling, a model-free log-relative-risk sum scorer, event-
stratified k-fold cross-validation, and sum-of-ranks pattern ranking.

Cross-validation works on one risk table per cohort: the design matrix's
distinct (cells, time, event) rows, sorted by time.  A fold is a weight
vector over those rows, the number of its training (or test) patients on
each, so no fold copies or sorts the matrix.  Each fold fits its penalties
largest first, each fit starting from the previous solution, and every C
it reports is counted over the weighted rows: patients on one row share
their time and event, so they never form a comparable pair, and the counts
are those of the patients.
"""
from __future__ import annotations

import copy
import logging
import math
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
        return _row_sums(matrix.cells, self.coefficients)


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
    return _c_index(scores, times, events)


def _c_index(scores, times, events, weights=None) -> float:
    concordant, ties, comparable = concordance_counts(scores, times, events, weights)
    if comparable == 0:
        raise UndefinedMetricError("no comparable pairs: concordance undefined")
    return (concordant + 0.5 * ties) / comparable


class _RiskSets:
    """A cohort's distinct (cells, time, event) rows, sorted by time, each with a weight.

    Patients with equal cells, time and event are one row of the table,
    found by sorting on (time, event, a hash of the cells) and comparing the
    cell runs of neighbours with equal keys, so a hash collision can only
    split a row in two, never merge two.
    ``row_of`` maps each patient to its row.  A row's weight is the number of
    patients it stands for: all of them, or a training fold's only, set by
    ``weighted`` without touching the table.  The rows' nonzero cells are
    ``(rows, cols, vals)`` triplets, and rows are grouped into the D
    distinct-time blocks: the risk set of block b is blocks b..D-1, so every
    Breslow sum is a suffix sum over D block sums.  Every per-row and
    per-block sum is one ``np.bincount`` over the cells, so an objective
    costs O(nnz + D·p).  The Hessian's weighted Gram sums over the same-row
    cell pairs (a, b) with a <= b, an index built here once per cohort and
    reused for every fold, penalty and Newton step: O(Σ nnzᵢ²) per Hessian,
    nnzᵢ being row i's nonzero count, against m·p² dense.  On mined pattern
    matrices the table holds about half the patients (2,387–2,950 rows of
    5,000), and its pair index about an eighth of the table's m·p cells.
    """

    def __init__(self, X: np.ndarray, times: np.ndarray, events: np.ndarray):
        times = np.asarray(times, dtype=float)
        events = np.asarray(events, dtype=bool)
        n, self.p = X.shape
        rows, cols = _nonzero(X)
        vals = X[rows, cols].astype(float)
        # a float hash of each row's cells: equal rows sum equal terms in the same order
        cell_hash = np.bincount(rows, vals * _salt(self.p)[cols], n)
        order = np.lexsort((cell_hash, events, times))
        key = (times[order], events[order], cell_hash[order])
        new = np.ones(n, dtype=bool)
        new[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in key])
        # a patient's cells are one run from first_cell; a patient whose key
        # equals the one before joins its row when their runs are equal too
        per_patient = np.bincount(rows, minlength=n)
        first_cell = np.cumsum(per_patient) - per_patient
        i, j = order[~new], order[np.flatnonzero(~new) - 1]
        count = np.minimum(per_patient[i], per_patient[j])
        a, b = _ranges(first_cell[i], count), _ranges(first_cell[j], count)
        differs = (cols[a] != cols[b]) | (vals[a] != vals[b])
        new[~new] = (per_patient[i] != per_patient[j]) | (
            np.bincount(np.repeat(np.arange(i.size), count), differs, i.size) > 0
        )
        first = np.flatnonzero(new)
        self.row_of = np.empty(n, dtype=np.intp)
        self.row_of[order] = np.cumsum(new) - 1
        self.times, self.events = key[0][first], key[1][first]
        # each row's cells are its first patient's run of cells
        m, lead = first.size, order[first]
        k = per_patient[lead]
        at = _ranges(first_cell[lead], k)
        self.rows, self.cols, self.vals = np.repeat(np.arange(m), k), cols[at], vals[at]
        ts = self.times
        starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
        self.starts, self.sizes = starts, np.diff(np.r_[starts, m])
        # cell -> (its row's block, its column) in the D x p block sums
        block = np.repeat(np.arange(starts.size), self.sizes)
        self._block_cell = block[self.rows] * self.p + self.cols
        # same-row cell pairs (a, b), a <= b, row by row: cell a pairs with
        # itself and the cells after it in its row
        cell = np.arange(self.rows.size)
        after = np.cumsum(k)[self.rows] - cell  # cells from a to its row's end
        a, b = np.repeat(cell, after), _ranges(cell, after)
        self._pair_counts = k * (k + 1) // 2
        self._pair_cell = self.cols[a] * self.p + self.cols[b]
        self._pair_val = self.vals[a] * self.vals[b]
        self._weigh(np.bincount(self.row_of, minlength=m))

    def weighted(self, weights: np.ndarray) -> "_RiskSets":
        """The same table with ``weights[r]`` patients on row r: a training fold."""
        fold = copy.copy(self)
        fold._weigh(weights)
        return fold

    def _weigh(self, weights: np.ndarray) -> None:
        self.weights = weights
        self._nonempty = np.flatnonzero(weights)  # the rows that hold a patient
        d = np.add.reduceat(weights * self.events, self.starts)
        if not d.any():
            raise CohortValidationError("Cox objective needs at least one event")
        self.ev = np.flatnonzero(d)  # blocks holding at least one event
        self.d = d[self.ev]
        on_event = self.events[self.rows]  # x_events does not depend on beta
        cell_w = weights[self.rows] * self.vals
        self.x_events = np.bincount(self.cols[on_event], cell_w[on_event], self.p)

    def eta(self, beta: np.ndarray) -> np.ndarray:
        """The linear predictor X @ beta of each row."""
        return np.bincount(self.rows, self.vals * beta[self.cols], self.times.size)

    def concordance(self, beta: np.ndarray) -> float:
        """Harrell's C of X @ beta over the weighted rows: the expanded patients' C."""
        rows = self._nonempty
        scores = self.eta(beta)[rows]
        return _c_index(scores, self.times[rows], self.events[rows], self.weights[rows])

    def objective(self, beta: np.ndarray, lam: float):
        """(ll, gradient, (w, S0, S1)): the sums are reused by ``hessian``."""
        w = self.weights * np.exp(self.eta(beta))
        W0 = np.add.reduceat(w, self.starts)
        W1 = np.bincount(self._block_cell, w[self.rows] * self.vals, W0.size * self.p)
        S0 = np.cumsum(W0[::-1])[::-1]
        S1 = np.cumsum(W1.reshape(W0.size, self.p)[::-1], axis=0)[::-1]
        s0 = S0[self.ev]
        ll = float(self.x_events @ beta - self.d @ np.log(s0) - 0.5 * lam * beta @ beta)
        grad = self.x_events - (self.d / s0) @ S1[self.ev] - lam * beta
        return ll, grad, (w, S0, S1)

    def hessian(self, w, S0, S1, lam: float) -> np.ndarray:
        """-lam*I - sum over event blocks b of d_b (S2_b/S0_b - m_b m_b^T), m_b = S1_b/S0_b.

        Row i lies in the risk sets of every block up to its own, so the S2
        terms regroup into one weighted Gram matrix: row i weighs
        w_i * c_i, with c_i the sum of d_b/S0_b over those blocks.  The pair
        index holds the Gram's upper triangle, so the Gram is that triangle
        plus its transpose, with the diagonal taken once.
        """
        p = self.p
        c = np.zeros(S0.size)
        c[self.ev] = self.d / S0[self.ev]
        row_w = w * np.repeat(np.cumsum(c), self.sizes)
        pair_w = np.repeat(row_w, self._pair_counts)
        pair_w *= self._pair_val  # in place: the pair arrays are the largest of a fit
        upper = np.bincount(self._pair_cell, pair_w, p * p).reshape(p, p)
        m = S1[self.ev] / S0[self.ev, None]
        outer = (m.T * self.d) @ m
        hess = outer - upper - upper.T
        hess.flat[:: p + 1] = outer.flat[:: p + 1] - upper.flat[:: p + 1] - lam
        return hess


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


def _fit_cox(risk: _RiskSets, lam, tol, max_iter, beta=None):
    """Newton's method from ``beta`` (zeros when None) on ``risk``'s weighted rows."""
    _check_penalty(lam)
    p = risk.p
    beta = np.zeros(p) if beta is None else beta
    if p == 0:
        return CoxModel(beta, lam, True, 0, ())
    ll, grad, sums = risk.objective(beta, lam)
    path = [ll]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.abs(grad).max() < tol:
            converged = True
            iterations -= 1
            break
        hess = risk.hessian(*sums, lam)
        try:  # as solve(-hess, grad), to the bit, without negating the matrix
            delta = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        # near the optimum the objective is flat at float resolution; a tiny
        # relative slack keeps one-ulp rejections from stalling the search
        slack = 1e-12 * (1.0 + abs(ll))
        step = 1.0
        moved = False
        for _ in range(30):
            cand = beta + step * delta
            cand_ll, cand_grad, cand_sums = risk.objective(cand, lam)
            if math.isfinite(cand_ll) and cand_ll >= ll - slack:
                moved = bool((cand != beta).any())
                beta, ll, grad, sums = cand, cand_ll, cand_grad, cand_sums
                path.append(ll)
                break
            step *= 0.5
        if not moved:
            break
    else:
        iterations = max_iter
    if not converged and np.abs(grad).max() < tol:
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
    return _fit_cox(_RiskSets(matrix.cells, matrix.times, matrix.events), lam, tol, max_iter)


def rr_score(matrix: BinaryDesignMatrix, rr_by_key: Mapping[str, float]) -> np.ndarray:
    """Model-free baseline: score_i = sum_j cell(i, j) * log(rr_j).

    Each rr must be a real number (not a bool), finite and > 0; any other
    value is a ConfigError naming its column.
    """
    missing = [k for k in matrix.pattern_keys if k not in rr_by_key]
    if missing:
        raise ConfigError(f"missing relative risk for columns: {missing[:3]}")
    weights = np.log([_relative_risk(k, rr_by_key[k]) for k in matrix.pattern_keys])
    return _row_sums(matrix.cells, weights)


def _relative_risk(key: str, rr) -> float:
    """``rr`` as a float, if it is a finite number > 0."""
    if isinstance(rr, (int, float, np.integer, np.floating)) and not isinstance(rr, bool):
        try:
            value = float(rr)
        except OverflowError:  # an int past float's range
            value = math.inf
        if 0 < value < math.inf:  # NaN fails both comparisons
            return value
    raise ConfigError(f"relative risk for column {key!r} must be a finite number > 0, got {rr!r}")


def _row_sums(cells: np.ndarray, weights) -> np.ndarray:
    """``cells @ weights``, summed over the nonzero cells: no float copy of the matrix."""
    rows, cols = _nonzero(cells)
    weights = np.asarray(weights, dtype=float)[cols] * cells[rows, cols]
    return np.bincount(rows, weights, cells.shape[0])


def _salt(p: int) -> np.ndarray:
    """Random weights of the p columns in a row's hash, the same in every run."""
    return np.random.default_rng(0).random(p)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i], ..., starts[i] + lengths[i] - 1``, one after another."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


def _nonzero(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a 2-D array, through a flat boolean mask: 4-5x faster on int8."""
    rows, cols = np.divmod(np.flatnonzero(cells != 0), cells.shape[1])
    return rows, cols


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
    return fold_c, _mean_c(fold_c, lambda: concordance_index(scores, matrix.times, matrix.events))


def _mean_c(fold_c: tuple[float, ...], pooled) -> float:
    """The mean of the defined fold Cs, or ``pooled()`` when no fold is defined."""
    defined = [c for c in fold_c if not np.isnan(c)]
    return float(np.mean(defined)) if defined else pooled()


def _fold_c(scores, times, events, weights) -> float:
    """The weighted C of one test fold; NaN when it holds no comparable pair."""
    try:
        return _c_index(scores, times, events, weights)
    except UndefinedMetricError:
        return float("nan")


def cross_validate(
    matrix: BinaryDesignMatrix,
    k: int = 5,
    seed: int = 0,
    lam_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
) -> CVResult:
    """Event-stratified k-fold CV of the ridge Cox baseline.

    One risk table serves every fold: the matrix's distinct (cells, time,
    event) rows, sorted by time, built once per cohort.  A training fold is
    a weight vector over it, the number of the fold's training patients on
    each row.  Each fold fits the penalties largest first, each fit starting
    from the previous one's coefficients (a warm-started path), and chooses
    on the training side only: the best training C-index, counted over the
    weighted rows, with ties going to the smaller penalty whatever the
    grid's order.  The held-out patients are scored on the table's rows too,
    weighted by the test patients on each row: the counts, and so the fold,
    mean and pooled C, are those of the patients.  A test fold too small to
    hold a comparable pair contributes NaN, as in ``cv_score_vector``; the
    mean skips it, or is the C of the pooled held-out scores when no fold is
    defined (keeps leave-one-out defined).
    """
    if len(matrix.pattern_keys) == 0:
        raise UndefinedMetricError("matrix has no pattern columns to evaluate")
    if len(lam_grid) == 0:
        raise ConfigError("the ridge penalty grid is empty")
    lams = sorted((_check_penalty(lam) for lam in lam_grid), reverse=True)
    folds = make_folds(matrix.events, k, seed)
    table = _RiskSets(matrix.cells, matrix.times, matrix.events)
    heldout = []  # (scores, times, events, weights) of each test fold's rows
    train_c: list[float] = []
    models: list[CoxModel] = []
    chosen: list[float] = []
    for f in range(k):
        test = folds == f
        risk = table.weighted(np.bincount(table.row_of[~test], minlength=table.times.size))
        best: tuple[float, float, CoxModel] | None = None
        beta = None
        for lam in lams:
            model = _fit_cox(risk, lam, 1e-8, 50, beta)
            beta = model.coefficients
            c_train = risk.concordance(beta)
            if best is None or c_train >= best[0]:  # a tie goes to the smaller lam
                best = (c_train, lam, model)
        c_train, lam, model = best
        test_w = table.weights - risk.weights
        rows = np.flatnonzero(test_w)
        scores = risk.eta(model.coefficients)
        heldout.append((scores[rows], table.times[rows], table.events[rows], test_w[rows]))
        train_c.append(c_train)
        models.append(model)
        chosen.append(lam)
    fold_c = tuple(_fold_c(*part) for part in heldout)
    pooled_c = _c_index(*map(np.concatenate, zip(*heldout)))
    return CVResult(
        fold_c=fold_c,
        train_c=tuple(train_c),
        mean_c=_mean_c(fold_c, lambda: pooled_c),
        pooled_c=pooled_c,
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
    # each column's first twin, found by its bit-packed cells
    first_of: dict[bytes, int] = {}
    packed = np.packbits(matrix.cells != 0, axis=0).T
    twin = [first_of.setdefault(column.tobytes(), j) for j, column in enumerate(packed)]
    sums = {key: 0 for key in keys}
    for model in models:
        coef = np.abs(np.asarray(model.coefficients, dtype=float))
        if coef.shape[0] != len(keys):
            raise ConfigError("model width does not match the matrix")
        coef = coef[twin]
        order = sorted(range(len(keys)), key=lambda j: (-coef[j], keys[j]))
        for rank, j in enumerate(order, start=1):
            sums[keys[j]] += rank
    ordered = tuple(sorted(keys, key=lambda key: (sums[key], key)))
    return PatternRanking(ordered_keys=ordered, rank_sum=sums)
