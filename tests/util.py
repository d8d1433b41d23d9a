"""Shared helpers for the test suite."""
import random

import numpy as np

from wavemine.encoding import CohortIntervals, Endpoint, _dictionary_encode, encode
from wavemine.ingest import NUMERIC_KINDS, RawCohort, _column

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
        None,
        *_dictionary_encode((pid, float(wave_count), event, ivs) for pid, event, ivs in patients),
    )


def encoded_doc(wave_count, levels, patients, edges=None):
    """A CohortIntervals of PatientIntervals, encoded as ``read_intervals_json`` encodes them."""
    return CohortIntervals(wave_count, levels, edges, *_dictionary_encode(
        (p.patient_id, p.time, p.event, p.intervals) for p in patients
    ))


def raw_cohort(wave_count, features, records):
    """A RawCohort of PatientRecords, whose rows keep their order.

    A feature of a numeric kind holds floats; any other is coded by first
    appearance.  A feature with no cell gets no Column.
    """
    numeric = {spec.name for spec in features if spec.kind in NUMERIC_KINDS}
    cells: dict = {}  # feature -> (rows, waves, values)
    for r, record in enumerate(records):
        for name, series in record.values.items():
            row, wave, value = cells.setdefault(name, ([], [], []))
            row += [r] * len(series)
            wave += series
            value += series.values()
    columns = {}
    for name, (row, wave, value) in cells.items():
        if not row:
            continue
        if name in numeric:
            categories, coded = None, np.array(value, dtype=float)
        else:
            code_of = {v: code for code, v in enumerate(dict.fromkeys(value))}
            categories, coded = tuple(code_of), np.array(list(map(code_of.get, value)))
        row, wave = np.array(row, dtype=np.int32), np.array(wave, dtype=np.int64)
        order = np.lexsort((wave, row))  # a series need not be in wave order
        columns[name] = _column(row[order], wave[order], coded[order], categories)
    return RawCohort(wave_count, features, [p.patient_id for p in records],
                     [p.outcome for p in records], columns)


def sequences(doc):
    """Each patient's ``encode``d endpoint sequence, as the oracle's store reads them."""
    severity = doc.severity_of()
    return [encode(pid, doc.intervals_of(i), severity, event)
            for i, (pid, event) in enumerate(zip(doc.ids, doc.events))]


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
