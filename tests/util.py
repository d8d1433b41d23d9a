"""Shared helpers for the test suite."""
import random

from wavemine.abstraction import StateInterval
from wavemine.encoding import CohortIntervals, Endpoint, PatientIntervals, encode

FLS = [("A", "hi"), ("A", "lo"), ("B", "hi"), ("B", "lo"), ("C", "hi"), ("C", "lo")]
LEVELS = {"A": {"hi": "high", "lo": "low", "ok": "normal"}, "B": {"hi": "high", "ok": "normal"}}


def ep(feature: str, level: str, kind: str) -> Endpoint:
    return Endpoint(feature, level, kind == "-")


def intervals_doc(*patients, levels=None, wave_count=6):
    """A CohortIntervals of ``(patient_id, event, intervals)`` entries.

    Intervals are ``(feature, level, start, end)`` tuples, and every patient's
    time is ``wave_count``.  A level that ``levels`` does not name is shown
    to the miner, as every level but a normal one is.
    """
    return CohortIntervals(
        wave_count,
        LEVELS if levels is None else levels,
        tuple(
            PatientIntervals(pid, float(wave_count), event, tuple(map(StateInterval._make, ivs)))
            for pid, event, ivs in patients
        ),
    )


def sequences(doc):
    """Each patient's ``encode``d endpoint sequence, as the oracle's store reads them."""
    severity = doc.severity_of()
    return [encode(p.patient_id, p.intervals, severity, p.event) for p in doc.patients]


def random_db(rng: random.Random, n_pat=8, waves=5, fls=None):
    """Random guarded cohort of intervals, every level shown.

    Same-feature intervals never overlap; adjacent intervals carry different
    levels, matching what abstraction produces from real series.
    """
    fls = fls or FLS
    levels = {}
    for feature, level in fls:
        levels.setdefault(feature, {})[level] = "high"
    events = [True, False]
    while len(events) < n_pat:
        events.append(rng.random() < 0.5)
    rng.shuffle(events)
    patients = []
    for i in range(n_pat):
        intervals = []
        for feat in sorted(levels):
            choices_of = [l for f, l in fls if f == feat]
            w = 1
            prev_level = None
            while w <= waves:
                if rng.random() < 0.5:
                    span = rng.randint(0, min(2, waves - w))
                    choices = [l for l in choices_of if l != prev_level] or choices_of
                    level = rng.choice(choices)
                    intervals.append((feat, level, w, w + span))
                    w += span + 1
                    if rng.random() < 0.5:
                        w += 1
                        prev_level = None
                    else:
                        prev_level = level
                else:
                    w += 1
                    prev_level = None
        patients.append((f"p{i:02d}", events[i], intervals))
    return intervals_doc(*patients, levels=levels, wave_count=waves)


def result_fingerprint(results):
    """Canonical comparison form: key plus exact 2x2 counts, in result order."""
    return [
        (r.pattern.key(), r.stats.a, r.stats.b, r.stats.c, r.stats.d) for r in results
    ]
