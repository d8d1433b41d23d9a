"""Numeric hot kernels of the survival layer, in plain numpy.

``concordance_counts`` counts Harrell's pairs by sorting: O(n log n + D·n)
time and O(n) memory for n patients and D distinct event times.
The Cox risk-set sums are per-time-block sums, formed in ``survival.py``.
"""
from __future__ import annotations

import numpy as np


def concordance_counts(scores, times, events):
    """Exact pair counts (concordant, score_ties, comparable) for Harrell's C.

    The ordered pair (i, j) is comparable when i has an event and either
    time_i < time_j, or the times are equal and j is censored.  It is
    concordant when score_i > score_j.  The scores are sorted once; for each
    distinct event time T the events at T are located by ``searchsorted`` in
    the score-sorted partners of T.
    """
    s = np.asarray(scores, dtype=float)
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    order = np.argsort(s, kind="stable")
    s_sorted, t_sorted, censored_sorted = s[order], t[order], ~e[order]
    concordant = ties = comparable = 0
    for T in np.unique(t[e]):
        partners = s_sorted[(t_sorted > T) | ((t_sorted == T) & censored_sorted)]
        at_T = s[e & (t == T)]
        below = np.searchsorted(partners, at_T, side="left")
        not_above = np.searchsorted(partners, at_T, side="right")
        concordant += int(below.sum())
        ties += int((not_above - below).sum())
        comparable += at_T.size * partners.size
    return concordant, ties, comparable


def backend_name() -> str:
    """Name of the numeric backend, as recorded in benchmark environment reports."""
    return "numpy"
