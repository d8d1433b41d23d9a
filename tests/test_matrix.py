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

from util import seq_from_intervals


def _toy():
    db = [
        seq_from_intervals("e1", [("A", "hi", 1, 2)], True),
        seq_from_intervals("e2", [("A", "hi", 1, 2)], True),
        seq_from_intervals("n1", [], False),
        seq_from_intervals("n2", [], False),
        seq_from_intervals("n3", [("A", "hi", 1, 1)], False),
    ]
    outcomes = {
        "e1": (2.0, True),
        "e2": (3.0, True),
        "n1": (5.0, False),
        "n2": (5.0, False),
        "n3": (5.0, False),
    }
    results = mine(db, MinerConfig(minsup=0.5, risk_sup=1.5))
    return db, outcomes, results


def test_build_matrix_rejects_repeated_patient_rows():
    db, outcomes, results = _toy()
    with pytest.raises(CohortValidationError, match="duplicate patient ids"):
        build_matrix(results, [*db, db[0]], outcomes)


def test_build_matrix_matches_miner_counts():
    db, outcomes, results = _toy()
    matrix = build_matrix(results, db, outcomes)
    assert matrix.shape == (5, 1)
    assert matrix.cells[:, 0].tolist() == [1, 1, 0, 0, 0]
    assert int(matrix.cells[:, 0].sum()) == results[0].stats.a + results[0].stats.b


def test_build_matrix_zero_patterns():
    db, outcomes, _ = _toy()
    matrix = build_matrix([], db, outcomes)
    assert matrix.shape == (5, 0)
    assert matrix.times.tolist() == [2.0, 3.0, 5.0, 5.0, 5.0]


def test_build_matrix_requires_outcomes():
    db, outcomes, results = _toy()
    outcomes.pop("n3")
    with pytest.raises(CohortValidationError, match="n3"):
        build_matrix(results, db, outcomes)


def test_build_matrix_checks_column_sums():
    db, outcomes, results = _toy()
    bad_stats = dataclasses.replace(results[0].stats, b=3)
    bad = [dataclasses.replace(results[0], stats=bad_stats)]
    with pytest.raises(MatrixFormatError, match="a\\+b"):
        build_matrix(bad, db, outcomes)


def _round_trip(matrix, results):
    buf = io.StringIO()
    write_matrix_csv(matrix, buf)
    sidecar = sidecar_payload(matrix, results)
    return read_matrix_csv(io.StringIO(buf.getvalue()), sidecar)


def test_matrix_csv_round_trip():
    db, outcomes, results = _toy()
    matrix = build_matrix(results, db, outcomes)
    assert _round_trip(matrix, results) == matrix


def test_empty_matrix_round_trip():
    db, outcomes, _ = _toy()
    matrix = build_matrix([], db, outcomes)
    assert _round_trip(matrix, []) == matrix


def test_sidecar_mismatch_rejected():
    db, outcomes, results = _toy()
    matrix = build_matrix(results, db, outcomes)
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


def test_sidecar_carries_risk_stats():
    db, outcomes, results = _toy()
    matrix = build_matrix(results, db, outcomes)
    payload = sidecar_payload(matrix, results)
    (col,) = payload["columns"]
    assert col["column"] == "P1"
    assert col["key"] == results[0].pattern.key()
    assert col["a"] == 2 and col["b"] == 0
    assert col["rr"] > 1.0


def test_build_matrix_rejects_unknown_or_repeated_matched_ids():
    db, outcomes, results = _toy()
    for matched in (("e1", "ghost"), ("e1", "e1")):
        bad = [dataclasses.replace(results[0], matched=matched)]
        with pytest.raises(MatrixFormatError, match="unknown or repeated"):
            build_matrix(bad, db, outcomes)


def test_matrix_columns_equal_containment():
    """The miner's carriers agree with an independent containment search."""
    from wavemine.abstraction import abstract_cohort
    from wavemine.miner import contains
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
    sequences = doc.sequences()
    results = mine(sequences, MinerConfig(minsup=0.01, risk_sup=0.5))
    assert len(results) >= 20
    assert any(len(r.pattern.groups) > 2 for r in results)
    matrix = build_matrix(results, sequences, doc.outcomes())
    for j, result in enumerate(results):
        assert matrix.cells[:, j].tolist() == [int(contains(s, result.pattern)) for s in sequences]
