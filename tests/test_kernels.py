import numpy as np
import pytest

from wavemine._kernels import backend_name, concordance_counts


def _pairwise_counts(scores, times, events):
    """Reference counter over all ordered pairs, via n×n broadcasting."""
    s = np.asarray(scores, dtype=float)
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    lt = t[:, None] < t[None, :]
    eq = t[:, None] == t[None, :]
    comp = (lt & e[:, None]) | (eq & e[:, None] & ~e[None, :])
    comparable = int(comp.sum())
    concordant = int((comp & (s[:, None] > s[None, :])).sum())
    ties = int((comp & (s[:, None] == s[None, :])).sum())
    return concordant, ties, comparable


def _random_case(rng, kind):
    n = {"empty": 0, "single": 1}.get(kind, int(rng.integers(2, 120)))
    scores = rng.normal(size=n)
    events = rng.random(n) < 0.4
    if kind == "continuous":
        times = rng.exponential(5.0, size=n)
    else:
        times = rng.integers(1, 7, size=n).astype(float)
    if kind == "score-ties":
        scores = rng.integers(0, 4, size=n).astype(float)
    elif kind == "no-events":
        events[:] = False
    elif kind == "equal-time-pairs":
        # every event shares its time with at least one censored patient
        half = n // 2
        times[half : 2 * half] = times[:half]
        events[:half], events[half : 2 * half] = True, False
    return scores, times, events


def test_concordance_counts_match_pairwise_reference():
    rng = np.random.default_rng(0)
    kinds = ("waves", "continuous", "score-ties", "empty", "single", "no-events",
             "equal-time-pairs")
    for kind in kinds:
        for _ in range(40):
            scores, times, events = _random_case(rng, kind)
            expected = _pairwise_counts(scores, times, events)
            assert concordance_counts(scores, times, events) == expected, kind


def test_backend_name_is_numpy():
    assert backend_name() == "numpy"
