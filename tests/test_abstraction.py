import random

import numpy as np
import pytest

from wavemine.abstraction import (
    AbstractionRule,
    FeatureSpec,
    Level,
    StateInterval,
    abstract_value,
    bmi_feature,
    build_intervals,
    feature_config_payload,
    fit_percentiles,
    load_feature_config,
    percentile_feature,
)
from wavemine.errors import ConfigError, DegenerateDistributionError, FitError, MappingError

BMI = bmi_feature()
PCT = percentile_feature("gait")


def test_percentile_edges_on_1_to_20():
    edges = fit_percentiles(range(1, 21), (5, 25, 75, 95))
    assert np.allclose(edges, [1.95, 5.75, 15.25, 19.05], atol=1e-12)


def test_percentiles_of_two_points_midpoint():
    assert fit_percentiles([0, 100], (50,))[0] == pytest.approx(50.0, abs=1e-12)


def test_percentile_edges_equal_numpy_bit_for_bit():
    # fit_percentiles interpolates directly (numpy's call imports numpy.ma);
    # its edges must be numpy's linear percentiles to the last bit
    rng = np.random.default_rng(8)
    for trial in range(2000):
        n = int(rng.integers(2, 200))
        if trial % 3:
            values = rng.normal(size=n) * 10.0 ** int(rng.integers(-3, 4))
        else:
            values = rng.integers(0, 6, size=n).astype(float)  # tied order statistics
        points = np.sort(rng.uniform(0, 100, size=int(rng.integers(1, 6))))
        if trial % 5 == 0:
            points = np.r_[0, points, 100]
        if trial % 7 == 0:
            points = np.unique(rng.integers(0, 101, size=4))  # whole-number points
        expected = np.percentile(values, points, method="linear")
        try:
            edges = fit_percentiles(values, points)
        except DegenerateDistributionError:  # zero spread or a collapsed bin
            continue
        assert edges.tobytes() == expected.tobytes()


def test_zero_spread_is_degenerate():
    with pytest.raises(DegenerateDistributionError):
        fit_percentiles([7.0] * 12, (5, 25, 75, 95))


def test_collapsed_edges_are_degenerate():
    with pytest.raises(DegenerateDistributionError):
        fit_percentiles([1.0] * 10 + [2.0], (5, 25))


def test_empty_values_is_fit_error():
    with pytest.raises(FitError):
        fit_percentiles([], (50,))


@pytest.mark.parametrize(
    "value,level",
    [
        (18.4, "Underweight"),
        (18.5, "Normal weight"),
        (24.9, "Normal weight"),
        (25.0, "Overweight"),
        (27.3, "Overweight"),
        (29.9, "Overweight"),
        (30.0, "Obese"),
        (42.0, "Obese"),
    ],
)
def test_bmi_cutoff_boundaries(value, level):
    assert abstract_value(value, BMI) == level


def test_percentile_levels_assignment():
    edges = fit_percentiles(range(1, 21), PCT.rule.bounds)
    assert abstract_value(1.5, PCT, edges) == "Very low (VL)"
    assert abstract_value(10.0, PCT, edges) == "Normal (N)"
    assert abstract_value(19.5, PCT, edges) == "Very High (VH)"
    # boundary goes to the upper bin
    assert abstract_value(5.75, PCT, edges) == "Normal (N)"


def test_unlisted_category_is_mapping_error():
    spec = FeatureSpec(
        name="smoker",
        kind="categorical",
        rule=AbstractionRule(method="categorical", categories={"yes": "yes", "no": "no"}),
        levels=(Level("yes", "high"), Level("no", "normal")),
        normal_level="no",
    )
    assert abstract_value("yes", spec) == "yes"
    with pytest.raises(MappingError):
        abstract_value("maybe", spec)


def test_build_intervals_aggregates_runs():
    series = {"bmi": {1: 26.1, 2: 27.3, 3: 27.3, 4: 31.0}}
    assert build_intervals(series, [BMI]) == [
        StateInterval("bmi", "Overweight", 1, 3),
        StateInterval("bmi", "Obese", 4, 4),
    ]


def test_build_intervals_single_wave():
    assert build_intervals({"bmi": {3: 26.1}}, [BMI]) == [
        StateInterval("bmi", "Overweight", 3, 3)
    ]


def test_build_intervals_alternating_levels():
    series = {"bmi": {1: 17.0, 2: 26.0, 3: 17.0, 4: 26.0}}
    assert build_intervals(series, [BMI]) == [
        StateInterval("bmi", "Underweight", 1, 1),
        StateInterval("bmi", "Overweight", 2, 2),
        StateInterval("bmi", "Underweight", 3, 3),
        StateInterval("bmi", "Overweight", 4, 4),
    ]


def test_build_intervals_gap_breaks_run():
    series = {"bmi": {1: 26.0, 2: 26.0, 5: 26.0}}
    assert build_intervals(series, [BMI]) == [
        StateInterval("bmi", "Overweight", 1, 2),
        StateInterval("bmi", "Overweight", 5, 5),
    ]


def test_bin_midpoints_map_back_and_partition():
    rng = random.Random(3)
    values = [rng.uniform(-50, 50) for _ in range(500)]
    edges = fit_percentiles(values, PCT.rule.bounds)
    # midpoint of each interior bin re-abstracts to that bin's level
    inner = [(edges[i] + edges[i + 1]) / 2 for i in range(len(edges) - 1)]
    probes = [edges[0] - 1.0, *inner, edges[-1] + 1.0]
    assert [abstract_value(v, PCT, edges) for v in probes] == [
        lv.name for lv in PCT.levels
    ]
    # every value lands in exactly one bin; bin counts sum to n
    counts = {lv.name: 0 for lv in PCT.levels}
    for v in values:
        counts[abstract_value(v, PCT, edges)] += 1
    assert sum(counts.values()) == len(values)


def test_lossless_aggregation_property():
    rng = random.Random(9)
    for _ in range(200):
        waves = rng.randint(1, 10)
        series = {w: rng.uniform(15, 40) for w in range(1, waves + 1) if rng.random() < 0.8}
        intervals = build_intervals({"bmi": series}, [BMI])
        expanded = {}
        for iv in intervals:
            for w in range(iv.start, iv.end + 1):
                expanded[w] = iv.level
        assert expanded == {w: abstract_value(v, BMI) for w, v in series.items()}


def test_rule_validation():
    with pytest.raises(ConfigError):
        AbstractionRule(method="cutoffs", bounds=(3.0, 2.0), levels=("a", "b", "c"))
    with pytest.raises(ConfigError):
        AbstractionRule(method="cutoffs", bounds=(1.0,), levels=("a",))
    with pytest.raises(ConfigError):
        AbstractionRule(method="custom_percentiles", bounds=(0.0, 50.0), levels=("a", "b", "c"))
    with pytest.raises(ConfigError):
        FeatureSpec(
            name="x",
            kind="continuous",
            rule=BMI.rule,
            levels=BMI.levels,
            normal_level="nope",
        )


def test_degenerate_feature_excluded_with_warning(caplog):
    import logging

    from wavemine.abstraction import abstract_cohort
    from wavemine.ingest import PatientRecord, RawCohort, SurvivalOutcome

    flat = percentile_feature("flat")
    record = PatientRecord(
        "p1",
        {"flat": {1: 4.0, 2: 4.0, 3: 4.0}, "bmi": {1: 22.0, 2: 31.0}},
        SurvivalOutcome(3.0, True),
    )
    cohort = RawCohort(3, (flat, BMI), (record,))
    with caplog.at_level(logging.WARNING):
        doc = abstract_cohort(cohort, [flat, BMI])
    assert "flat" in caplog.text
    assert "flat" not in doc.levels
    assert all(iv.feature != "flat" for p in doc.patients for iv in p.intervals)
    assert any(iv.feature == "bmi" for p in doc.patients for iv in p.intervals)


def test_feature_config_round_trip():
    specs = [BMI, PCT]
    payload = feature_config_payload(specs)
    reloaded = load_feature_config(payload)
    assert reloaded == specs


def test_feature_config_custom_percentiles():
    entry = {
        "name": "score",
        "kind": "discrete",
        "method": "custom_percentiles",
        "percentiles": [{"pct": 25.0, "level": "poor"}, {"level": "good"}],
        "normal_level": "good",
    }
    (spec,) = load_feature_config([entry])
    assert spec.rule.bounds == (25.0,)
    assert spec.rule.levels == ("poor", "good")
    assert spec.severity_of("good") == "normal"
    assert load_feature_config(feature_config_payload([spec])) == [spec]


# --- reference: the per-value abstraction, one value and one wave at a time


def _reference_level(value, spec, edges):
    rule = spec.rule
    if rule.method == "categorical":
        return rule.categories[value]
    bin_edges = rule.bounds if rule.method == "cutoffs" else edges
    return rule.levels[int(np.searchsorted(bin_edges, float(value), side="right"))]


def _reference_intervals(values, specs, edges_by_feature):
    out = []
    for spec in specs:
        series = values.get(spec.name)
        if not series:
            continue
        edges = edges_by_feature.get(spec.name)
        run_level = None
        run_start = run_end = 0
        for wave in sorted(series):
            level = _reference_level(series[wave], spec, edges)
            if run_level is not None and level == run_level and wave == run_end + 1:
                run_end = wave
                continue
            if run_level is not None:
                out.append(StateInterval(spec.name, run_level, run_start, run_end))
            run_level, run_start, run_end = level, wave, wave
        if run_level is not None:
            out.append(StateInterval(spec.name, run_level, run_start, run_end))
    return out


SMOKER = FeatureSpec(
    name="smoker",
    kind="categorical",
    rule=AbstractionRule(
        method="categorical", categories={"never": "no", "former": "no", "daily": "yes", "weekly": "yes"}
    ),
    levels=(Level("no", "normal"), Level("yes", "high")),
    normal_level="no",
)
SCORE = FeatureSpec(
    name="score",
    kind="discrete",
    rule=AbstractionRule(method="custom_percentiles", bounds=(30.0, 60.0), levels=("lo", "mid", "hi")),
    levels=(Level("lo", "low"), Level("mid", "normal"), Level("hi", "high")),
)
RANDOM_SPECS = (BMI, PCT, SMOKER, SCORE)


def _random_cohort(rng, patients, waves):
    from wavemine.ingest import PatientRecord, RawCohort, SurvivalOutcome

    draws = {
        "bmi": lambda: rng.choice([18.5, 25.0, 30.0, 17.0, 24.9, 29.99]) if rng.random() < 0.5
        else round(rng.uniform(15, 40), 1),
        "gait": lambda: float(rng.randint(0, 12)),  # ties put values on the fitted edges
        "smoker": lambda: rng.choice(list(SMOKER.rule.categories)),
        "score": lambda: float(rng.randint(0, 9)),
    }
    records = []
    for i in range(patients):
        values = {}
        for name, draw in draws.items():
            if rng.random() < 0.2:
                continue  # feature missing for this patient
            # gaps, single-wave runs, and now and then waves out of order
            kept = [w for w in range(1, waves + 1) if rng.random() < 0.75]
            if rng.random() < 0.2:
                rng.shuffle(kept)
            level_value = draw()
            series = {}
            for w in kept:
                if rng.random() < 0.4:
                    level_value = draw()
                series[w] = level_value
            values[name] = series
        records.append(PatientRecord(f"p{i:03d}", values, SurvivalOutcome(float(waves), i % 3 == 0)))
    return RawCohort(waves, RANDOM_SPECS, tuple(records))


def test_abstract_cohort_matches_per_value_reference():
    from wavemine.abstraction import abstract_cohort, fit_cohort_edges

    rng = random.Random(2024)
    on_edge = 0
    for trial in range(40):
        cohort = _random_cohort(rng, patients=rng.randint(1, 60), waves=rng.randint(1, 8))
        edges, usable = fit_cohort_edges(cohort, RANDOM_SPECS)
        doc = abstract_cohort(cohort, RANDOM_SPECS)
        assert list(doc.levels) == [spec.name for spec in usable]
        assert doc.edges == {name: list(arr) for name, arr in edges.items()}
        assert len(set(doc.table)) == len(doc.table)  # each distinct interval once
        for record, patient in zip(cohort.patients, doc.patients):
            expected = _reference_intervals(record.values, usable, edges)
            assert list(patient.intervals) == expected
            assert build_intervals(record.values, usable, edges) == expected
            assert all(type(iv.start) is int and type(iv.end) is int for iv in expected)
            for name, series in record.values.items():
                on_edge += sum(v in set(edges.get(name, ())) for v in series.values())
    assert on_edge > 0


def test_abstract_cohort_reports_first_unlisted_category():
    """The error names the first patient's unlisted category, as a per-patient pass would."""
    from wavemine.abstraction import abstract_cohort
    from wavemine.ingest import PatientRecord, RawCohort, SurvivalOutcome

    diet = FeatureSpec(
        name="diet",
        kind="categorical",
        rule=AbstractionRule(method="categorical", categories={"mixed": "ok", "fried": "poor"}),
        levels=(Level("ok", "normal"), Level("poor", "high")),
    )
    outcome = SurvivalOutcome(3.0, True)
    cohort = RawCohort(3, (SMOKER, diet), (
        PatientRecord("p1", {"smoker": {1: "never"}, "diet": {1: "mixed"}}, outcome),
        PatientRecord("p2", {"smoker": {1: "never", 2: "sometimes"}, "diet": {1: "vegan"}}, outcome),
        PatientRecord("p3", {"smoker": {1: "rarely"}, "diet": {2: "raw"}}, outcome),
    ))
    with pytest.raises(MappingError, match="feature 'smoker': category 'sometimes' not listed"):
        abstract_cohort(cohort, [SMOKER, diet])
    with pytest.raises(MappingError, match="feature 'diet': category 'vegan' not listed"):
        abstract_cohort(cohort, [diet, SMOKER])
    # an earlier patient wins over an earlier feature
    p2 = PatientRecord("p2", {"smoker": {1: "never", 2: "sometimes"}, "diet": {1: "fried"}}, outcome)
    cohort = RawCohort(3, (SMOKER, diet), (cohort.patients[0], p2, cohort.patients[2]))
    with pytest.raises(MappingError, match="feature 'smoker': category 'sometimes' not listed"):
        abstract_cohort(cohort, [diet, SMOKER])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_values_are_fit_error(bad):
    with pytest.raises(FitError, match="non-finite"):
        fit_percentiles([1.0, 2.0, bad, 3.0, 4.0], PCT.rule.bounds)



def test_far_apart_waves_are_coded_apart():
    # 4 BMI levels over a span of 2**40 waves: too wide for one int64 (level, start, end) key
    far = 2**40
    values = {"bmi": {1: 20.0, 2: 21.0, far: 31.0, far + 1: 32.0, far + 3: 31.0, far + 4: 17.0}}
    expected = _reference_intervals(values, [BMI], {})
    assert build_intervals(values, [BMI]) == expected
    assert expected[1] == StateInterval("bmi", "Obese", far, far + 1)


def test_an_empty_column_gives_no_intervals():
    from wavemine.abstraction import abstract_cohort
    from wavemine.ingest import Column, RawCohort, SurvivalOutcome

    smoker = Column(np.array([0, 0, 1], dtype=np.int32), np.array([1, 2, 1], dtype=np.int32),
                    np.array([0, 1, 0], dtype=np.int32), ("never", "daily"))
    empty = Column(np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0))
    outcomes = [SurvivalOutcome(2.0, True), SurvivalOutcome(1.0, False)]
    specs = [BMI, SMOKER]
    docs = [
        abstract_cohort(RawCohort.from_columns(2, specs, ["p1", "p2"], outcomes, columns), specs)
        for columns in ({"bmi": empty, "smoker": smoker}, {"smoker": smoker})
    ]
    assert docs[0] == docs[1]
    assert (docs[0].table, docs[0].row.tolist(), docs[0].code.tolist()) == (
        docs[1].table, docs[1].row.tolist(), docs[1].code.tolist()
    )
    assert [len(p.intervals) for p in docs[0].patients] == [2, 1]


def test_abstract_cohort_holds_no_interval_per_occurrence():
    import tracemalloc

    from wavemine.abstraction import abstract_cohort
    from wavemine.synth import SynthConfig, generate

    config = SynthConfig(patients=2000, waves=6, features=10, noise_rate=0.08, seed=3)
    cohort, specs = generate(config)[:2]
    tracemalloc.start()
    try:
        doc = abstract_cohort(cohort, specs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one StateInterval per occurrence (34,038 here, 546 distinct) peaked at 6,237,146 traced
    # bytes (Python 3.11, numpy 2.4); the table of distinct ones at 2,643,860
    assert peak <= 4_500_000
    assert len(doc.table) < doc.code.size // 10


def _distinct_runs_reference(label, start, end):
    """The distinct (label, start, end) in order, and each run's code ranking them, by a dict."""
    triples = list(zip(label.tolist(), start.tolist(), end.tolist()))
    distinct = sorted(set(triples))
    rank = {t: c for c, t in enumerate(distinct)}
    return distinct, [rank[t] for t in triples]


def _random_runs(rng, n, labels, lo, span, dtype):
    start = rng.integers(lo, lo + span, n).astype(dtype)
    end = start + rng.integers(0, span, n).astype(dtype)
    return rng.integers(0, labels, n).astype(np.int32), start, end


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_distinct_runs_equal_the_reference_by_table_and_by_lexsort(dtype):
    from wavemine.abstraction import _TABLE_CELLS_PER_RUN, _distinct_runs
    from wavemine.ingest import MAX_WAVE

    rng = np.random.default_rng(31)
    cases = [(n, labels, 1, span) for n in (1, 7, 400) for labels in (1, 5, 60)
             for span in (1, 3, 6, 40)]
    if dtype is np.int64:  # waves past MAX_WAVE: a narrow span far out, and a span wider than int32
        cases += [(300, 4, MAX_WAVE + 2**33, 3), (300, 4, 1, 2**40)]
    by_table = 0
    for n, labels, lo, span in cases:
        label, start, end = _random_runs(rng, n, labels, lo, span, dtype)
        at, code = _distinct_runs(label, start, end)
        held = list(zip(label[at].tolist(), start[at].tolist(), end[at].tolist()))
        assert (held, code.tolist()) == _distinct_runs_reference(label, start, end)
        cells = (int(label.max()) + 1) * (int(end.max()) - int(start.min()) + 1) ** 2
        by_table += cells <= _TABLE_CELLS_PER_RUN * n
    assert 0 < by_table < len(cases)  # both sides of the choice were taken
    empty = np.zeros(0, dtype=np.int32), np.zeros(0, dtype=dtype), np.zeros(0, dtype=dtype)
    at, code = _distinct_runs(*empty)
    assert at.size == 0 and code.size == 0
