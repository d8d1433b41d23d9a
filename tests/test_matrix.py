import csv
import dataclasses
import io

import numpy as np
import pytest

from wavemine.errors import CohortValidationError, MatrixFormatError
from wavemine.matrix import (
    BinaryDesignMatrix,
    build_matrix,
    read_matrix_csv,
    sidecar_payload,
    write_matrix_csv,
)
from wavemine.miner import MinerConfig, mine

from util import intervals_doc, sequences


def _toy():
    doc = intervals_doc(
        ("e1", True, [("A", "hi", 1, 2)]),
        ("e2", True, [("A", "hi", 1, 2)]),
        ("n1", False, []),
        ("n2", False, []),
        ("n3", False, [("A", "hi", 1, 1)]),
    )
    outcomes = {
        "e1": (2.0, True),
        "e2": (3.0, True),
        "n1": (5.0, False),
        "n2": (5.0, False),
        "n3": (5.0, False),
    }
    results = mine(doc, MinerConfig(minsup=0.5, risk_sup=1.5))
    return doc.ids, outcomes, results


def test_build_matrix_rejects_repeated_patient_rows():
    ids, outcomes, results = _toy()
    with pytest.raises(CohortValidationError, match="duplicate patient ids"):
        build_matrix(results, [*ids, ids[0]], outcomes)


def test_build_matrix_matches_miner_counts():
    ids, outcomes, results = _toy()
    matrix = build_matrix(results, ids, outcomes)
    assert matrix.shape == (5, 1)
    assert matrix.cells[:, 0].tolist() == [1, 1, 0, 0, 0]
    assert int(matrix.cells[:, 0].sum()) == results[0].stats.a + results[0].stats.b


def test_build_matrix_rows_from_patient_ids():
    ids, outcomes, results = _toy()
    matrix = build_matrix(results, ids[::-1], outcomes)
    assert matrix.patient_ids == ids[::-1]
    assert matrix.cells[:, 0].tolist() == [0, 0, 0, 1, 1]
    assert matrix.times.tolist() == [5.0, 5.0, 5.0, 3.0, 2.0]


def test_matrix_stage_on_intervals_with_int_ids(tmp_path):
    import json

    from wavemine.cli import _matrix_stage
    from wavemine.encoding import read_intervals_json

    def patient(pid, event, end):
        intervals = [] if end is None else [{"feature": "A", "level": "hi", "start": 1, "end": end}]
        return {"patient_id": pid, "time": 2.0 + pid, "event": event, "intervals": intervals}

    text = json.dumps({"wave_count": 2, "levels": {"A": {"hi": "high"}}, "patients": [
        patient(1, 1, 2), patient(2, 1, 2), patient(3, 0, None), patient(4, 0, None),
        patient(5, 0, 1),
    ]})
    doc = read_intervals_json(io.StringIO(text))
    results = mine(doc, MinerConfig(minsup=0.5, risk_sup=1.5))
    matrix, _ = _matrix_stage(results, doc, tmp_path / "m.csv")
    assert matrix.patient_ids == (1, 2, 3, 4, 5)
    assert matrix.cells[:, 0].tolist() == [1, 1, 0, 0, 0]
    with open(tmp_path / "m.csv", newline="") as fh:
        assert [row[:2] for row in csv.reader(fh)][1:] == [
            ["1", "3.0"], ["2", "4.0"], ["3", "5.0"], ["4", "6.0"], ["5", "7.0"]
        ]


def test_build_matrix_zero_patterns():
    ids, outcomes, _ = _toy()
    matrix = build_matrix([], ids, outcomes)
    assert matrix.shape == (5, 0)
    assert matrix.times.tolist() == [2.0, 3.0, 5.0, 5.0, 5.0]


def test_build_matrix_requires_outcomes():
    ids, outcomes, results = _toy()
    outcomes.pop("n3")
    with pytest.raises(CohortValidationError, match="n3"):
        build_matrix(results, ids, outcomes)


def test_build_matrix_checks_column_sums():
    ids, outcomes, results = _toy()
    bad_stats = dataclasses.replace(results[0].stats, b=3)
    bad = [dataclasses.replace(results[0], stats=bad_stats)]
    with pytest.raises(MatrixFormatError, match="a\\+b"):
        build_matrix(bad, ids, outcomes)


def _round_trip(matrix, results):
    buf = io.StringIO()
    write_matrix_csv(matrix, buf)
    sidecar = sidecar_payload(matrix, results)
    return read_matrix_csv(io.StringIO(buf.getvalue()), sidecar)


def test_matrix_csv_round_trip():
    ids, outcomes, results = _toy()
    matrix = build_matrix(results, ids, outcomes)
    assert _round_trip(matrix, results) == matrix


def _reference_matrix_csv(matrix):
    """The row-by-row ``csv.writer`` that ``write_matrix_csv`` must match byte for byte."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["patient_id", "time", "event", *(f"P{j + 1}" for j in range(matrix.shape[1]))])
    for i, pid in enumerate(matrix.patient_ids):
        writer.writerow(
            [pid, repr(float(matrix.times[i])), int(matrix.events[i]), *matrix.cells[i].tolist()]
        )
    return buf.getvalue()


@pytest.mark.parametrize("width", [0, 1, 7])
def test_matrix_csv_writer_matches_reference(width):
    ids = ("plain", "com,ma", 'quo"te', "new\nline", "cr\rret", " lead", "", "naïve", "t\tab")
    rng = np.random.default_rng(width)
    matrix = BinaryDesignMatrix(
        patient_ids=ids,
        times=np.array([1.0, 2.5, 3.0000000000000004, 1e16, 7.0, 0.1, 2.0, 4.0, 5.0]),
        events=rng.random(len(ids)) < 0.5,
        pattern_keys=tuple(f"K{j}" for j in range(width)),
        cells=rng.integers(0, 2, size=(len(ids), width)).astype(np.int8),
    )
    buf = io.StringIO()
    write_matrix_csv(matrix, buf)
    assert buf.getvalue() == _reference_matrix_csv(matrix)


def test_matrix_csv_writer_rejects_non_indicator_cells():
    ids, outcomes, results = _toy()
    matrix = build_matrix(results, ids, outcomes)
    bad = dataclasses.replace(matrix, cells=np.where(matrix.cells == 1, 10, 0).astype(np.int8))
    buf = io.StringIO()
    with pytest.raises(MatrixFormatError, match="0 or 1"):
        write_matrix_csv(bad, buf)
    assert buf.getvalue() == ""


def test_empty_matrix_round_trip():
    ids, outcomes, _ = _toy()
    matrix = build_matrix([], ids, outcomes)
    assert _round_trip(matrix, []) == matrix


def test_sidecar_mismatch_rejected():
    ids, outcomes, results = _toy()
    matrix = build_matrix(results, ids, outcomes)
    buf = io.StringIO()
    write_matrix_csv(matrix, buf)
    with pytest.raises(MatrixFormatError, match="sidecar"):
        read_matrix_csv(io.StringIO(buf.getvalue()), {"columns": [{"column": "P9", "key": "x"}]})


def test_malformed_matrix_rejected():
    with pytest.raises(MatrixFormatError):
        read_matrix_csv(io.StringIO("nope\n"))
    with pytest.raises(MatrixFormatError):
        read_matrix_csv(io.StringIO("patient_id,time,event,P1\np1,2.0,1,7\n"))
    with pytest.raises(MatrixFormatError):
        read_matrix_csv(io.StringIO("patient_id,time,event,P1\np1,2.0,1\n"))
    # times below 1 or not finite, and a repeated patient id, name their line
    for time in ("0", "-3", "0.5", "nan", "inf", "-inf"):
        with pytest.raises(MatrixFormatError, match="^line 3: time must be finite and >= 1"):
            read_matrix_csv(io.StringIO(f"patient_id,time,event,P1\np1,2.0,1,1\np2,{time},0,0\n"))
    with pytest.raises(MatrixFormatError, match="^line 3: duplicate patient id 'p1'"):
        read_matrix_csv(io.StringIO("patient_id,time,event,P1\np1,2.0,1,1\np1,3.0,0,0\n"))


def test_sidecar_carries_risk_stats():
    ids, outcomes, results = _toy()
    matrix = build_matrix(results, ids, outcomes)
    payload = sidecar_payload(matrix, results)
    (col,) = payload["columns"]
    assert col["column"] == "P1"
    assert col["key"] == results[0].pattern.key()
    assert col["a"] == 2 and col["b"] == 0
    assert col["rr"] > 1.0


def test_build_matrix_rejects_unknown_or_repeated_matched_ids():
    ids, outcomes, results = _toy()
    for matched in (("e1", "ghost"), ("e1", "e1")):
        bad = [dataclasses.replace(results[0], matched=matched)]
        with pytest.raises(MatrixFormatError, match="unknown or repeated"):
            build_matrix(bad, ids, outcomes)


def test_matrix_columns_equal_containment():
    """The miner's carriers agree with an independent containment search."""
    from wavemine.abstraction import abstract_cohort
    from wavemine.miner import _Store
    from wavemine.synth import PlantedPattern, SynthConfig, generate

    from util import ep

    chain = PlantedPattern(
        groups=(
            (ep("F01", "H", "+"),),
            (ep("F01", "H", "-"), ep("F02", "L", "+")),
            (ep("F02", "L", "-"),),
        ),
        frac_events=0.5,
        frac_nonevents=0.1,
    )
    cohort, specs, _ = generate(
        SynthConfig(patients=300, waves=6, features=5, event_rate=0.2, noise_rate=0.12,
                    planted=(chain,), seed=3)
    )
    doc = abstract_cohort(cohort, specs)
    results = mine(doc, MinerConfig(minsup=0.01, risk_sup=0.5))
    assert len(results) >= 20
    assert any(len(r.pattern.groups) > 2 for r in results)
    matrix = build_matrix(results, doc.ids, doc.outcomes())
    reference = _Store(sequences(doc))  # built from each patient's encoded sequence
    for j, result in enumerate(results):
        column = np.zeros(len(doc.ids), dtype=np.int8)
        column[reference.carriers(result.pattern.groups)] = 1
        assert matrix.cells[:, j].tolist() == column.tolist()
