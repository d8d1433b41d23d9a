"""Numeric hot kernels, in plain numpy.

``concordance_counts`` counts Harrell's pairs by sorting: O(n log n + D·n)
time and O(n) memory for n patients and D distinct event times.
The Cox risk-set sums are per-time-block sums, formed in ``survival.py``.
``distinct`` is ``np.unique`` without its ``numpy.ma`` import (numpy 2.x
loads that module on a plain call, which costs a run about 10 ms).
"""
from __future__ import annotations

import numpy as np


def distinct(values) -> np.ndarray:
    """The sorted distinct values of ``values``, flattened."""
    ordered = np.sort(values, axis=None)
    keep = np.ones(ordered.size, dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def concordance_counts(scores, times, events, weights=None):
    """Exact pair counts (concordant, score_ties, comparable) for Harrell's C.

    The ordered pair (i, j) is comparable when i has an event and either
    time_i < time_j, or the times are equal and j is censored: j is then a
    partner of i's event time.  It is concordant when score_i > score_j.
    The entries are sorted by score once, and each event's places among them
    (below its equal scores, and not above them) are found once.  For each
    distinct event time T, the cumulative sum of its partners' weights in
    score order then gives the weight of the partners below each place.
    With integer ``weights``, entry i stands for ``weights[i]`` patients that
    share its score, time and event, and the pair (i, j) counts
    ``weights[i] * weights[j]`` times; those patients never pair among
    themselves, so the counts are those of the expanded entries.
    """
    s = np.asarray(scores, dtype=float)
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    w = np.ones(s.size, dtype=np.int64) if weights is None else np.asarray(weights, np.int64)
    order = np.argsort(s)  # the order among tied scores changes no count
    s, t, e, w = s[order], t[order], e[order], w[order]
    censored = ~e
    below_at = np.searchsorted(s, s[e], side="left")
    not_above_at = np.searchsorted(s, s[e], side="right")
    w_e, t_e = w[e], t[e]
    partner_w = np.zeros(s.size + 1, dtype=np.int64)  # partner weight below each place
    concordant = ties = comparable = 0
    for T in distinct(t_e):
        partner = (t > T) | ((t == T) & censored)
        np.cumsum(w * partner, out=partner_w[1:])
        at = t_e == T
        w_at = w_e[at]
        below = partner_w[below_at[at]]
        concordant += int(w_at @ below)
        ties += int(w_at @ (partner_w[not_above_at[at]] - below))
        comparable += int(w_at.sum()) * int(partner_w[-1])
    return concordant, ties, comparable


def backend_name() -> str:
    """Name of the numeric backend, as recorded in benchmark environment reports."""
    return "numpy"
