import csv
import io
import random
import re
import tracemalloc

import numpy as np
import pytest

import reference_ingest as reference
from wavemine import ingest
from wavemine.abstraction import (
    AbstractionRule, FeatureSpec, Level, bmi_feature, percentile_feature,
)
from wavemine.errors import (
    CellConflictError,
    CohortParseError,
    CohortValidationError,
)
from wavemine.ingest import (
    PatientRecord,
    RawCohort,
    SurvivalOutcome,
    carry_forward,
    parse_cohort,
    parse_outcomes,
    write_cohort_csv,
    write_outcomes_csv,
)

SPECS = [bmi_feature()]


def _parse(cohort_csv, outcome_csv, **kwargs):
    outcomes = parse_outcomes(io.StringIO(outcome_csv))
    return parse_cohort(io.StringIO(cohort_csv), SPECS, outcomes, **kwargs)


def test_empty_data_section_gives_zero_patients():
    cohort = _parse("patient_id,wave,feature,value\n", "patient_id,time,event\n")
    assert cohort.patients == ()


def test_single_patient_three_waves():
    cohort = _parse(
        "patient_id,wave,feature,value\n"
        "p1,1,bmi,26.1\n"
        "p1,2,bmi,27.3\n"
        "p1,3,bmi,31.0\n",
        "patient_id,time,event\np1,3,1\n",
    )
    assert len(cohort.patients) == 1
    record = cohort.patients[0]
    assert record.values["bmi"] == {1: 26.1, 2: 27.3, 3: 31.0}
    assert record.outcome == SurvivalOutcome(time=3.0, event=True)


def test_unknown_feature_rejected_by_name():
    with pytest.raises(CohortValidationError, match="xyz"):
        _parse(
            "patient_id,wave,feature,value\np1,1,xyz,4\n",
            "patient_id,time,event\np1,2,0\n",
        )


def test_duplicate_cell_conflict():
    with pytest.raises(CellConflictError):
        _parse(
            "patient_id,wave,feature,value\np1,1,bmi,22\np1,1,bmi,23\n",
            "patient_id,time,event\np1,2,0\n",
        )


def test_missing_outcome_is_validation_error():
    with pytest.raises(CohortValidationError, match="p1"):
        _parse("patient_id,wave,feature,value\np1,1,bmi,22\n", "patient_id,time,event\n")


def test_malformed_row_reports_line_number():
    with pytest.raises(CohortParseError, match="line 3"):
        _parse(
            "patient_id,wave,feature,value\np1,1,bmi,22\np1,x,bmi,23\n",
            "patient_id,time,event\np1,2,0\n",
        )


def test_bad_header_rejected():
    with pytest.raises(CohortParseError):
        _parse("id,wave,feature,value\n", "patient_id,time,event\n")
    with pytest.raises(CohortParseError):
        parse_outcomes(io.StringIO("patient,time,event\n"))


@pytest.mark.parametrize(
    "row,error",
    [
        pytest.param("p2,3", CohortParseError, id="two-fields"),
        pytest.param("p2,3,0,x", CohortParseError, id="four-fields"),
        pytest.param("p1,3,0", CellConflictError, id="duplicate-patient"),
        pytest.param("p2,abc,0", CohortParseError, id="time-not-numeric"),
        pytest.param("p2,0.5,0", CohortParseError, id="time-below-1"),
        pytest.param("p2,inf,0", CohortParseError, id="time-infinite"),
        pytest.param("p2,nan,1", CohortParseError, id="time-nan"),
        pytest.param("p2,3,2", CohortParseError, id="event-not-0-or-1"),
        pytest.param("p2,3,yes", CohortParseError, id="event-word"),
    ],
)
def test_outcome_row_rejected_with_its_line(row, error):
    text = f"patient_id,time,event\np1,2,1\n\n{row}\n"  # the blank line still counts
    with pytest.raises(error, match="^line 4: "):
        parse_outcomes(io.StringIO(text))


def test_outcome_patient_without_rows_is_kept():
    cohort = _parse("patient_id,wave,feature,value\n", "patient_id,time,event\np9,4,0\n")
    assert [p.patient_id for p in cohort.patients] == ["p9"]
    assert cohort.patients[0].values == {}


def _cohort_one(values, time=4.0, event=False, wave_count=4):
    record = PatientRecord(
        patient_id="p1", values={"bmi": values}, outcome=SurvivalOutcome(time, event)
    )
    return RawCohort(wave_count=wave_count, features=tuple(SPECS), patients=(record,))


def test_carry_forward_fills_until_new_value():
    cohort = carry_forward(_cohort_one({1: 26.1, 3: 31.0}))
    assert cohort.patients[0].values["bmi"] == {1: 26.1, 2: 26.1, 3: 31.0, 4: 31.0}


def test_carry_forward_identity_on_fully_observed():
    values = {1: 20.0, 2: 21.0, 3: 22.0, 4: 23.0}
    cohort = carry_forward(_cohort_one(dict(values)))
    assert cohort.patients[0].values["bmi"] == values


def test_carry_forward_never_backfills():
    cohort = carry_forward(_cohort_one({3: 31.0}))
    assert cohort.patients[0].values["bmi"] == {3: 31.0, 4: 31.0}


def test_carry_forward_unobserved_feature_stays_missing():
    record = PatientRecord("p1", {}, SurvivalOutcome(4.0, False))
    cohort = RawCohort(4, tuple(SPECS), (record,))
    assert carry_forward(cohort).patients[0].values == {}


def test_carry_forward_clips_at_outcome_wave():
    cohort = carry_forward(_cohort_one({1: 26.1}, time=2.0, event=True, wave_count=4))
    assert cohort.patients[0].values["bmi"] == {1: 26.1, 2: 26.1}


def test_carry_forward_drops_observations_after_outcome_wave():
    gapped = _cohort_one({1: 26.1, 4: 31.0}, time=2.0, event=True, wave_count=4)
    assert carry_forward(gapped).patients[0].values["bmi"] == {1: 26.1, 2: 26.1}
    observed = _cohort_one({1: 26.1, 2: 27.0, 3: 28.2, 4: 31.0}, time=2.0, event=True,
                           wave_count=4)
    assert carry_forward(observed).patients[0].values["bmi"] == {1: 26.1, 2: 27.0}
    late = _cohort_one({3: 28.2, 4: 31.0}, time=2.0, event=True, wave_count=4)
    assert carry_forward(late).patients[0].values == {}


def test_carry_forward_idempotent_and_preserves_observed():
    rng = random.Random(42)
    for _ in range(300):
        waves = rng.randint(1, 8)
        observed = {
            w: round(rng.uniform(15, 40), 2)
            for w in range(1, waves + 1)
            if rng.random() < 0.5
        }
        time = float(rng.randint(1, waves))
        cohort = _cohort_one(dict(observed), time=time, wave_count=waves)
        once = carry_forward(cohort)
        twice = carry_forward(once)
        assert once == twice
        filled = once.patients[0].values.get("bmi", {})
        for w, v in observed.items():
            if w <= time:
                assert filled[w] == v


def test_parse_serialize_parse_round_trip():
    cohort = _parse(
        "patient_id,wave,feature,value\n"
        "p1,1,bmi,26.1\n"
        "p1,3,bmi,31.0\n"
        "p2,2,bmi,19.5\n",
        "patient_id,time,event\np1,4,1\np2,3,0\n",
        wave_count=4,
    )
    data, outcomes = io.StringIO(), io.StringIO()
    write_cohort_csv(cohort, data)
    write_outcomes_csv(cohort.outcomes(), outcomes)
    reparsed = parse_cohort(
        io.StringIO(data.getvalue()),
        SPECS,
        parse_outcomes(io.StringIO(outcomes.getvalue())),
        wave_count=4,
    )
    assert reparsed == cohort
    assert cohort.censoring_rate == 0.5


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "+Infinity"])
@pytest.mark.parametrize("feature", ["bmi", "gait"])
def test_non_finite_numeric_cell_is_parse_error(feature, cell):
    from wavemine.abstraction import percentile_feature

    specs = [bmi_feature(), percentile_feature("gait")]
    data = (
        "patient_id,wave,feature,value\n"
        "p1,1,bmi,22\n"
        "p1,1,gait,40\n"
        f"p1,2,{feature},{cell}\n"
    )
    outcomes = parse_outcomes(io.StringIO("patient_id,time,event\np1,2,0\n"))
    with pytest.raises(CohortParseError, match=re.escape(f"line 4: non-finite numeric value '{cell}'")):
        parse_cohort(io.StringIO(data), specs, outcomes)


def test_rows_in_any_order_give_sorted_series():
    rows = [
        "p2,3,bmi,30.5", "p1,2,bmi,22.0", "p2,1,bmi,21.0", "p1,1,bmi,20.0",
        "p2,2,bmi,", "p1,4,bmi,24.0", "p2,2,bmi,25.0", "p1,3,bmi,23.0",
    ]
    cohort = _parse(
        "patient_id,wave,feature,value\n" + "\n".join(rows) + "\n",
        "patient_id,time,event\np1,4,1\np2,3,0\n",
    )
    series = {p.patient_id: p.values["bmi"] for p in cohort.patients}
    assert list(series["p1"].items()) == [(1, 20.0), (2, 22.0), (3, 23.0), (4, 24.0)]
    assert list(series["p2"].items()) == [(1, 21.0), (2, 25.0), (3, 30.5)]


def _reference_locf(values, horizon):
    """The per-wave fill: from each first observed wave to the horizon, sorted."""
    out = {}
    for feature, series in values.items():
        series = {w: v for w, v in series.items() if w <= horizon}
        if not series:
            continue
        filled = dict(series)
        last_value = None
        for wave in range(min(series), horizon + 1):
            if wave in filled:
                last_value = filled[wave]
            else:
                filled[wave] = last_value
        out[feature] = dict(sorted(filled.items()))
    return out


def test_carry_forward_matches_reference_fill():
    rng = random.Random(7)
    for _ in range(400):
        waves = rng.randint(1, 8)
        observed = [w for w in range(1, waves + 1) if rng.random() < 0.6]
        if rng.random() < 0.3:
            rng.shuffle(observed)  # a hand-built cohort need not be in wave order
        values = {"bmi": {w: rng.choice([20.0, 26.0, 31.0]) for w in observed}}
        time = float(rng.randint(1, waves))
        record = PatientRecord("p1", values, SurvivalOutcome(time, rng.random() < 0.5))
        cohort = RawCohort(waves, tuple(SPECS), (record,))
        got = carry_forward(cohort).patients[0].values
        expected = _reference_locf(values, min(waves, int(time)))
        assert got == expected
        assert [list(s.items()) for s in got.values()] == [
            list(s.items()) for s in expected.values()
        ]


# --- the columnar ingest against the dict-based one it replaced

SMOKER = FeatureSpec(
    name="smoker",
    kind="categorical",
    rule=AbstractionRule(method="categorical", categories={"never": "no", "daily": "yes"}),
    levels=(Level("no", "normal"), Level("yes", "high")),
)
MIXED = [bmi_feature(), percentile_feature("gait", kind="discrete"), SMOKER,
         percentile_feature("weight")]
PATIENT_IDS = ["p{:03d}", "patient-{:05d}", "pé{:03d}", "患者-{:03d}",
               "participant-{:03d}-" + "x" * 60]  # over 64 bytes: csv.reader splits it


def _random_csv(rng, patients, waves):
    """Cohort and outcome CSV text: rows in any order, gaps, blank and padded cells,
    series past the outcome wave, and patients with no rows.

    Some files also have quoted fields (holding a comma or a newline) from
    some row on, CRLF rows, no final newline, non-ASCII ids, ids and
    categories longer than 8 bytes, waves written as ``0_3`` or `` 3``, and a
    feature (weight) with only blank cells.
    """
    draws = {
        "bmi": lambda: str(round(rng.uniform(15, 40), 1)),
        "gait": lambda: rng.choice(["3", "7.5", "1e1", " 4 "]),
        "smoker": lambda: rng.choice(["never", "daily", "weekly", "occasionally", "dáily"]),
        "weight": lambda: "",
    }
    id_format = rng.choice(PATIENT_IDS)
    rows, outcome_rows = [], []
    for i in range(patients):
        pid = id_format.format(i)
        outcome_rows.append(f"{pid},{rng.randint(1, waves)},{int(rng.random() < 0.4)}")
        for feature, draw in draws.items():
            if rng.random() < 0.25:
                continue
            for wave in range(1, waves + 1):
                if rng.random() < 0.3:
                    continue  # a gap
                value = "" if rng.random() < 0.1 else draw()
                pid_cell = f" {pid}" if rng.random() < 0.1 else pid
                feature_cell = f"{feature} " if rng.random() < 0.1 else feature
                wave_cell = rng.choice([str(wave)] * 8 + [f" {wave}", f"0_{wave}"])
                rows.append(f"{pid_cell},{wave_cell},{feature_cell},{value}")
    if rng.random() < 0.5:
        rng.shuffle(rows)
    else:  # mostly sorted, a few rows moved
        for _ in range(rng.randint(0, 3)):
            if rows:
                rows.insert(rng.randrange(len(rows) + 1), rows.pop(rng.randrange(len(rows))))
    if rows and rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows)), "")  # a blank line still counts
    if rows and rng.random() < 0.3:  # quoted fields from some row on
        for r in range(rng.randrange(len(rows)), len(rows)):
            pid, wave, feature, value = rows[r].split(",") if rows[r] else ("", "", "", "")
            if value and rng.random() < 0.5:
                if feature.strip() == "smoker":
                    value = rng.choice([value, f"{value},x", f"{value}\nx"])
                rows[r] = f'"{pid}",{wave},{feature},"{value}"'
    ends = ["\r\n" if rng.random() < 0.2 else "\n" for _ in rows] if rng.random() < 0.3 else (
        ["\n"] * len(rows)
    )
    cohort = "patient_id,wave,feature,value\n" + "".join(map(str.__add__, rows, ends))
    if rng.random() < 0.3:
        cohort = cohort[:-len(ends[-1])] if rows else cohort  # no final newline
    return cohort, "patient_id,time,event\n" + "".join(r + "\n" for r in outcome_rows)


def _in_order(records):
    """Records with every feature and series as an ordered list, so order is compared too."""
    return [
        (r.patient_id, r.outcome, [(f, list(s.items())) for f, s in r.values.items()])
        for r in records
    ]


@pytest.mark.parametrize("seed", range(40))
def test_columnar_ingest_matches_dict_reference(seed):
    rng = random.Random(seed)
    waves = rng.randint(1, 7)
    data, outcome_text = _random_csv(rng, rng.randint(0, 30), waves)
    outcomes = parse_outcomes(io.StringIO(outcome_text))
    wave_count = rng.choice([None, waves, waves + 2])
    cohort = parse_cohort(io.StringIO(data), MIXED, outcomes, wave_count=wave_count)
    ref_count, ref = reference.parse_cohort(io.StringIO(data), MIXED, outcomes, wave_count)
    assert cohort.wave_count == ref_count
    assert _in_order(cohort.patients) == _in_order(ref)
    filled = carry_forward(cohort)
    expected = reference.carry_forward(ref_count, ref)
    assert _in_order(filled.patients) == _in_order(expected)
    assert filled == carry_forward(filled)


def _first_fault(parse, data, outcomes, wave_count):
    try:
        parse(io.StringIO(data), MIXED, outcomes, wave_count)
    except (CellConflictError, CohortParseError, CohortValidationError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed", range(60))
def test_columnar_ingest_reports_the_reference_fault(seed):
    rng = random.Random(1000 + seed)
    waves = rng.randint(2, 6)
    data, outcome_text = _random_csv(rng, rng.randint(2, 12), waves)
    outcomes = parse_outcomes(io.StringIO(outcome_text))
    lines = data.splitlines()
    faults = [
        "p000,x,bmi,20", "p000,0,bmi,20", f"p000,{waves + 1},bmi,20", "p000,1,height,20",
        "p000,1,bmi,abc", "p000,1,gait,nan", "p000,1,bmi", "p000,1,smoker,never,x",
        "q9,1,smoker,daily",
    ]
    for _ in range(rng.randint(1, 3)):
        if len(lines) > 1 and rng.random() < 0.4:
            fault = rng.choice(lines[1:])  # a cell again, perhaps with another value
            if fault and rng.random() < 0.5:
                fault = fault.rsplit(",", 1)[0] + ",daily"
        else:
            fault = rng.choice(faults)
        lines.insert(rng.randint(1, len(lines)), fault)
    data = "\n".join(lines) + "\n"
    wave_count = rng.choice([None, waves])
    expected = _first_fault(reference.parse_cohort, data, outcomes, wave_count)
    assert _first_fault(parse_cohort, data, outcomes, wave_count) == expected


def test_earlier_duplicate_wins_over_later_bad_number():
    head = "patient_id,wave,feature,value\np1,1,bmi,22\np1,2,bmi,23\n"
    outcome = "patient_id,time,event\np1,2,0\n"
    repeated = r"^line 4: duplicate cell \('p1', 'bmi', wave 1\)$"
    with pytest.raises(CellConflictError, match=repeated):
        _parse(head + "p1,1,bmi,24\np1,3,bmi,abc\n", outcome)
    with pytest.raises(CohortParseError, match="^line 4: bad numeric value 'abc'"):
        _parse(head + "p1,3,bmi,abc\np1,1,bmi,24\n", outcome)


def test_feature_with_only_blank_cells_has_no_column():
    cohort = _parse("patient_id,wave,feature,value\np1,1,bmi,\np1,2,bmi,\n",
                    "patient_id,time,event\np1,2,0\n")
    assert cohort.columns == {}
    assert cohort.patients[0].values == {}


def test_columns_are_coded_arrays():
    cohort = _parse(
        "patient_id,wave,feature,value\np2,2,bmi,31.0\np1,1,bmi,20.5\np2,1,bmi,\np2,1,bmi,19.0\n",
        "patient_id,time,event\np1,2,1\np2,3,0\np3,1,0\n",
    )
    assert cohort.patient_ids == ("p1", "p2", "p3")
    column = cohort.columns["bmi"]
    assert column.row.tolist() == [0, 1, 1]
    assert column.wave.tolist() == [1, 1, 2]
    assert column.values.tolist() == [20.5, 19.0, 31.0]
    assert column.categories is None


def test_empty_series_leave_no_column():
    record = PatientRecord("p1", {"bmi": {}}, SurvivalOutcome(2.0, False))
    cohort = RawCohort(2, tuple(SPECS), (record,))
    assert cohort.columns == {}
    assert cohort.patients[0].values == {}
    assert carry_forward(cohort).patients[0].values == {}


# --- the block tokeniser: block boundaries, the csv.reader route, wide fields

BLOCKS = [1, 7, 64]  # characters read per block


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("seed", range(40))
def test_small_blocks_match_dict_reference(monkeypatch, seed, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    test_columnar_ingest_matches_dict_reference(seed)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("seed", range(60))
def test_small_blocks_report_the_reference_fault(monkeypatch, seed, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    test_columnar_ingest_reports_the_reference_fault(seed)


@pytest.mark.parametrize("block", BLOCKS)
def test_small_blocks_keep_an_earlier_duplicate_first(monkeypatch, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    test_earlier_duplicate_wins_over_later_bad_number()


def _both(data, outcome_text, wave_count=None):
    """The columnar parse and the reference parse of one file, records in order."""
    outcomes = parse_outcomes(io.StringIO(outcome_text))
    cohort = parse_cohort(io.StringIO(data), MIXED, outcomes, wave_count=wave_count)
    ref_count, ref = reference.parse_cohort(io.StringIO(data), MIXED, outcomes, wave_count)
    return (cohort.wave_count, _in_order(cohort.patients)), (ref_count, _in_order(ref))


@pytest.mark.parametrize("block", [*BLOCKS, 1 << 18])
def test_quoted_records_count_as_one_line(monkeypatch, block):
    # the quote sits after a few plain blocks when blocks are small
    monkeypatch.setattr(ingest, "_BLOCK", block)
    head = "patient_id,wave,feature,value\np1,1,bmi,22\np1,2,bmi,23\n"
    quoted = 'p1,1,smoker,"da,\nily"\r\n"p1",2,smoker,never\n'
    outcome = "patient_id,time,event\np1,2,0\n"
    got, expected = _both(head + quoted, outcome)
    assert got == expected
    _, _, series = got[1][0]  # p1's features, each with its series
    assert dict(series)["smoker"] == [(1, "da,\nily"), (2, "never")]
    with pytest.raises(CohortParseError, match="^line 6: bad numeric value 'x'"):
        _both(head + quoted + "p1,3,bmi,x\n", outcome)


@pytest.mark.parametrize("block", [*BLOCKS, 1 << 18])
@pytest.mark.parametrize("newline", ["", "\n"])
def test_lone_carriage_returns_split_lines_as_the_stream_does(monkeypatch, block, newline):
    # a stream with universal newlines ends a line at a lone "\r"; one that
    # splits at "\n" only hands csv.reader a line it rejects
    monkeypatch.setattr(ingest, "_BLOCK", block)
    data = "patient_id,wave,feature,value\np1,1,bmi,22\np1,2,bmi,23\rp1,3,bmi,24\r\n"
    outcomes = parse_outcomes(io.StringIO("patient_id,time,event\np1,3,0\n"))

    def outcome(parse):
        try:
            return parse(io.StringIO(data, newline=newline), MIXED, outcomes, None)
        except csv.Error as exc:
            return str(exc)

    got, expected = outcome(parse_cohort), outcome(reference.parse_cohort)
    if newline:
        assert got == expected
    else:
        assert (got.wave_count, _in_order(got.patients)) == (expected[0], _in_order(expected[1]))
        assert got.columns["bmi"].wave.tolist() == [1, 2, 3]


@pytest.mark.parametrize("block", [*BLOCKS, 1 << 18])
def test_wide_and_non_ascii_fields(monkeypatch, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    ids = ["p" * 8, "p" * 9, "é" * 4, "é" * 5, "q" * 64, "q" * 65, "患者", "s" + chr(0xDC80)]
    rows = [f"{pid},{w},smoker,{cat}" for w in (1, 2) for pid, cat in
            zip(ids, ["never", "occasional", "daily" * 3, "ñ", "n" * 70, "", "x", "y"])]
    data = "patient_id,wave,feature,value\n" + "\n".join(rows)  # no final newline
    outcome = "patient_id,time,event\n" + "".join(f"{pid},2,1\n" for pid in ids)
    got, expected = _both(data, outcome)
    assert got == expected
    assert [record[0] for record in got[1]] == sorted(ids)
    with pytest.raises(CohortParseError, match="^line 18: expected 4 fields, got 5"):
        _both(data + "\n" + "q" * 70 + ",1,bmi,2,3\n", outcome)


@pytest.mark.parametrize("block", [*BLOCKS, 1 << 18])
def test_categories_are_coded_in_order_of_first_appearance(monkeypatch, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    values = ["weekly", "", "daily", "weekly", "never", "daily", "occasionally"]
    data = "patient_id,wave,feature,value\n" + "".join(
        f"p1,{wave},smoker,{value}\n" for wave, value in enumerate(values, start=1)
    )
    outcomes = parse_outcomes(io.StringIO("patient_id,time,event\np1,7,0\n"))
    column = parse_cohort(io.StringIO(data), MIXED, outcomes).columns["smoker"]
    assert column.categories == ("weekly", "daily", "never", "occasionally")
    assert column.values.tolist() == [0, 1, 0, 2, 1, 3]
    assert column.values.dtype == np.int32


@pytest.mark.parametrize("block", [*BLOCKS, 1 << 18])
@pytest.mark.parametrize("row", [
    "p1,x,height,abc", "p1,x,bmi,abc", "p1,0,bmi,nan", "p1,9,gait,x", "p1,1,bmi",
])
def test_faults_on_one_line_keep_their_order(monkeypatch, block, row):
    # an unknown feature before a bad wave before a bad value
    monkeypatch.setattr(ingest, "_BLOCK", block)
    data = f"patient_id,wave,feature,value\np1,1,bmi,22\n{row}\np1,2,bmi,23\n"
    outcomes = parse_outcomes(io.StringIO("patient_id,time,event\np1,2,0\n"))
    expected = _first_fault(reference.parse_cohort, data, outcomes, 4)
    assert expected is not None and expected[1].startswith("line 3: ")
    assert _first_fault(parse_cohort, data, outcomes, 4) == expected


# --- the coder's vocabularies, which carry checked fields from block to block

HEADER = "patient_id,wave,feature,value\n"


def _same_as_reference(data, outcome_text, wave_count=None):
    """The parse's first fault (type, message), or None; checked against the reference."""
    outcomes = parse_outcomes(io.StringIO(outcome_text))
    expected = _first_fault(reference.parse_cohort, data, outcomes, wave_count)
    assert _first_fault(parse_cohort, data, outcomes, wave_count) == expected
    if expected is None:
        got, want = _both(data, outcome_text, wave_count)
        assert got == want
    return expected


@pytest.mark.parametrize("block", BLOCKS)
def test_a_category_of_one_feature_is_a_bad_number_of_another_in_a_later_block(monkeypatch, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    head = "p1,1,smoker,abc\np1,2,smoker,7\np1,1,gait,7\np1,2,gait,3\n"
    outcome = "patient_id,time,event\np1,2,0\np2,2,1\n"
    assert _same_as_reference(HEADER + head + "p2,1,gait,abc\np2,2,smoker,abc\n", outcome) == (
        CohortParseError, "line 6: bad numeric value 'abc' for feature 'gait'")
    assert _same_as_reference(HEADER + head + "p2,1,smoker,7\np2,2,gait,7\n", outcome) is None


@pytest.mark.parametrize("block", BLOCKS)
def test_a_patient_split_across_blocks_is_one_row(monkeypatch, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    rows = ["p2,1,bmi,20", "p1,2,bmi,21", "p3,1,smoker,never"] + [
        f"p{i},{w},gait,{w}" for i in (3, 2) for w in (1, 2, 3)] + [
        "p1,1,bmi,19", "p2,2,smoker,daily", "p1,3,smoker,never", "p1,2,bmi,22"]
    outcome = "patient_id,time,event\np1,3,0\np2,3,1\np3,2,0\n"
    assert _same_as_reference(HEADER + "\n".join(rows[:-1]) + "\n", outcome) is None
    assert _same_as_reference(HEADER + "\n".join(rows) + "\n", outcome) == (
        CellConflictError, "line 14: duplicate cell ('p1', 'bmi', wave 2)")


@pytest.mark.parametrize("block", BLOCKS)
def test_a_patient_without_an_outcome_after_the_vocabulary_is_full(monkeypatch, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    monkeypatch.setattr(ingest, "_VOCAB_BYTES", 64)  # full after a few ids
    known = [f"p{i:02d}" for i in range(20)]
    rows = [f"{pid},{w},bmi,{20 + w}" for pid in known for w in (1, 2)]
    outcome = "patient_id,time,event\n" + "".join(f"{pid},2,0\n" for pid in known)
    data = HEADER + "\n".join(rows) + "\nq8,1,bmi,\np05,1,gait,4\n"  # q8: a blank cell only
    assert _same_as_reference(data, outcome) is None
    assert _same_as_reference(data + "q9,2,smoker,never\nq7,1,bmi,\n", outcome) == (
        CohortValidationError, "patients without an outcome: ['q9']")


@pytest.mark.parametrize("block", [*BLOCKS, 1 << 18])
def test_bytes_blocks_and_a_csv_reader_takeover_after_word_blocks(monkeypatch, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    rows = ["p1,1,smoker,never", "p1,1,bmi,20", "p1,2,smoker,daily",  # fields of 8 bytes at most
            "participant-1,1,smoker,occasionally", "participant-1,2,bmi,21.5",  # wider: S{w}
            "p1,3,smoker,never", 'p1,4,smoker,"never"', "participant-1,3,smoker,dáily",
            "p1,5,smoker,daily", "p1,2,bmi,20"]  # from the quote on: csv.reader
    outcome = "patient_id,time,event\np1,5,0\nparticipant-1,3,1\n"
    assert _same_as_reference(HEADER + "\n".join(rows) + "\n", outcome) is None
    column = parse_cohort(io.StringIO(HEADER + "\n".join(rows)), MIXED,
                          parse_outcomes(io.StringIO(outcome))).columns["smoker"]
    assert column.categories == ("never", "daily", "occasionally", "dáily")
    assert column.values.tolist() == [0, 1, 0, 0, 1, 2, 3]
    assert _same_as_reference(HEADER + "\n".join(rows + ["p1,3,bmi,x"]), outcome) == (
        CohortParseError, "line 12: bad numeric value 'x' for feature 'bmi'")


@pytest.mark.parametrize("vocab_bytes", [64, 1 << 20])
@pytest.mark.parametrize("block", BLOCKS)
def test_a_numeric_column_of_distinct_values(monkeypatch, block, vocab_bytes):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    monkeypatch.setattr(ingest, "_VOCAB_BYTES", vocab_bytes)
    rng = random.Random(9)
    rows = [f"p{i},{w},bmi,{rng.uniform(15, 40):.6f}" for i in range(30) for w in (1, 2, 3)]
    outcome = "patient_id,time,event\n" + "".join(f"p{i},3,{i % 2}\n" for i in range(30))
    data = HEADER + "\n".join(rows) + "\n"
    assert _same_as_reference(data, outcome) is None
    assert len(set(parse_cohort(io.StringIO(data), MIXED, parse_outcomes(io.StringIO(outcome)))
                   .columns["bmi"].values.tolist())) == 90
    assert _same_as_reference(data + "p3,1,bmi,1e999\n", outcome) == (
        CohortParseError, "line 92: non-finite numeric value '1e999' for feature 'bmi'")


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("odd", ["p1 ", " p1", "", "p\n1", "p\x001", "p" * 65, "患者"])
def test_outcome_ids_are_matched_as_the_checks_match_them(monkeypatch, block, odd):
    # the outcome map of a library caller may hold ids no parsed outcome CSV gives
    monkeypatch.setattr(ingest, "_BLOCK", block)
    outcomes = {odd: SurvivalOutcome(2.0, True), "p2": SurvivalOutcome(2.0, False)}
    raw = "p9" if "\n" in odd or "\0" in odd else odd
    for data in (HEADER + f"{raw},1,bmi,20\np2,1,bmi,21\n",
                 HEADER + f"p2,1,bmi,21\n{raw},1,bmi,20\n{raw},1,bmi,22\n"):
        expected = _first_fault(reference.parse_cohort, data, outcomes, None)
        assert _first_fault(parse_cohort, data, outcomes, None) == expected
        if expected is None:
            ref_count, ref = reference.parse_cohort(io.StringIO(data), MIXED, outcomes)
            cohort = parse_cohort(io.StringIO(data), MIXED, outcomes)
            assert (cohort.wave_count, _in_order(cohort.patients)) == (ref_count, _in_order(ref))


def test_outcome_ids_that_are_no_strs_match_no_cell():
    outcomes = {1: SurvivalOutcome(2.0, True)}
    data = HEADER + "1,1,bmi,20\n"
    expected = _first_fault(reference.parse_cohort, data, outcomes, None)
    assert expected == (CohortValidationError, "patients without an outcome: ['1']")
    assert _first_fault(parse_cohort, data, outcomes, None) == expected


def test_vocabulary_runs_shrink_geometrically_and_find_every_key():
    rng = np.random.default_rng(4)
    vocab, held = ingest._Vocab(np.int64), np.empty(0, dtype=np.uint64)
    for size in rng.integers(1, 60, 40).tolist():
        new = np.setdiff1d(rng.integers(0, 10**6, size).astype(np.uint64), held)  # sorted
        vocab.add(new, new.astype(np.int64) * 3)
        held = np.union1d(held, new)
        sizes = [keys.size for keys, _ in vocab.runs]
        assert all(older > 2 * newer for older, newer in zip(sizes, sizes[1:]))
    assert 1 < len(vocab.runs) <= 1 + int(np.log2(held.size))
    values, hit = vocab.find(np.append(held, np.uint64(10**7)))
    assert hit.tolist() == [True] * held.size + [False]
    assert values[:-1].tolist() == (held.astype(np.int64) * 3).tolist()


def _long_csv(patients=12_500, waves=6):
    """225,000 rows (4 MB): three features at every wave, one with blank cells."""
    rng = random.Random(5)
    rows = []
    for i in range(patients):
        for w in range(1, waves + 1):
            rows.append(f"p{i:05d},{w},bmi,{rng.uniform(15, 40):.1f}\n")
            rows.append(f"p{i:05d},{w},gait,{rng.randint(1, 9)}\n")
            rows.append(f"p{i:05d},{w},smoker,{rng.choice(['never', 'daily', ''])}\n")
    outcome = "".join(f"p{i:05d},{waves},0\n" for i in range(patients))
    return ("patient_id,wave,feature,value\n" + "".join(rows),
            "patient_id,time,event\n" + outcome)


def test_parse_holds_one_block_at_a_time(monkeypatch):
    # the per-row csv.reader parse peaked at 11,532,288 traced bytes on this
    # file (Python 3.11, numpy 2.4); splitting the whole file at once, 76 MB
    data, outcome_text = _long_csv()
    outcomes = parse_outcomes(io.StringIO(outcome_text))
    stream = io.StringIO(data)
    tracemalloc.start()
    try:
        cohort = parse_cohort(stream, MIXED, outcomes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 11_532_288
    # one block of the whole file: over 10^5 fields packed at once
    monkeypatch.setattr(ingest, "_BLOCK", len(data))
    assert parse_cohort(io.StringIO(data), MIXED, outcomes) == cohort


def test_filling_past_max_wave_widens_the_waves():
    top = ingest.MAX_WAVE
    cohort = _parse(f"patient_id,wave,feature,value\np1,{top},bmi,20\n",
                    f"patient_id,time,event\np1,{top + 2},1\n")
    assert cohort.columns["bmi"].wave.dtype == np.int32
    filled = carry_forward(cohort).columns["bmi"]
    assert filled.wave.tolist() == [top, top + 1, top + 2]
    assert filled.row.dtype == np.int32


def test_columns_take_at_most_16_bytes_a_cell():
    # int32 rows and waves, and float64 values or int32 codes: 16 or 12 bytes a cell
    # (24 with int64 rows and waves and intp codes)
    data, outcome_text = _long_csv()
    parsed = parse_cohort(io.StringIO(data), MIXED, parse_outcomes(io.StringIO(outcome_text)))
    filled = carry_forward(parsed)
    assert filled.columns["smoker"] is not parsed.columns["smoker"]  # blank cells were filled
    for cohort in (parsed, filled):
        columns = cohort.columns.values()
        cells = sum(c.row.size for c in columns)
        assert sum(c.row.nbytes + c.wave.nbytes + c.values.nbytes for c in columns) <= 16 * cells
