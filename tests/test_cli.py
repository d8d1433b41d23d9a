import gc
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wavemine
from wavemine import cli
from wavemine.cli import main
from wavemine.errors import ConfigError

PLANT = {
    "groups": [
        [{"feature": "F01", "level": "H", "kind": "start"}],
        [{"feature": "F01", "level": "H", "kind": "finish"}],
    ],
    "frac_events": 0.6,
    "frac_nonevents": 0.1,
}


def _synth_config(tmp_path, **overrides):
    doc = {
        "patients": 200,
        "waves": 5,
        "features": 4,
        "event_rate": 0.25,
        "noise_rate": 0.05,
        "seed": 5,
        "planted": [PLANT],
    }
    doc.update(overrides)
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _make_cohort(tmp_path, **overrides) -> Path:
    out = tmp_path / "data"
    config = _synth_config(tmp_path, **overrides)
    assert main(["synth", "--out-dir", str(out), "--config", str(config)]) == 0
    for name in ("cohort.csv", "outcomes.csv", "features.json", "manifest.json", "run_manifest.json"):
        assert (out / name).exists()
    return out


def _run_pipeline(tmp_path, data, out_name, **flags):
    out = tmp_path / out_name
    args = [
        "pipeline",
        "--cohort", str(data / "cohort.csv"),
        "--outcomes", str(data / "outcomes.csv"),
        "--features", str(data / "features.json"),
        "--out-dir", str(out),
        "--minsup", str(flags.get("minsup", 0.1)),
        "--risk-threshold", str(flags.get("risk", 1.3)),
        "--workers", str(flags.get("workers", 1)),
        "--seed", "0",
    ]
    assert main(args) == 0
    return out


def test_synth_then_pipeline_smoke(tmp_path):
    data = _make_cohort(tmp_path)
    out = _run_pipeline(tmp_path, data, "run")
    for name in (
        "intervals.json",
        "patterns.json",
        "matrix.csv",
        "matrix.csv.cols.json",
        "report.json",
        "patterns.svg",
        "run_manifest.json",
    ):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["cox"]["mean_c"] <= 1.0
    patterns = json.loads((out / "patterns.json").read_text())
    assert patterns["patterns"], "pipeline should find at least the planted pattern"


def test_a_pipeline_run_builds_no_per_patient_view(tmp_path, monkeypatch):
    """The cohorts and the document stay columnar through a pipeline and the oracle.

    A ``patients`` view costs a pass over every cell or interval (about 0.08 s
    on a 10,000-patient cohort), and only ``perfbench/tracer.py`` reads one.
    """
    from wavemine.miner import MinerConfig, brute_force_mine

    built = []

    def keep(fn):
        def kept(*args, **kwargs):
            built.append(fn(*args, **kwargs))
            return built[-1]
        return kept

    for name in ("parse_cohort", "carry_forward", "abstract_cohort"):
        monkeypatch.setattr(cli, name, keep(getattr(cli, name)))
    data = _make_cohort(tmp_path, patients=25, features=2, event_rate=0.5)
    _run_pipeline(tmp_path, data, "run", minsup=0.05, risk=0.5)
    parsed, filled, doc = built
    assert brute_force_mine(doc, MinerConfig(minsup=0.05, risk_sup=0.5))
    assert [type(o).__name__ for o in built if "patients" in vars(o)] == []


def test_pipeline_rerun_is_byte_identical(tmp_path):
    data = _make_cohort(tmp_path)
    one = _run_pipeline(tmp_path, data, "run1")
    two = _run_pipeline(tmp_path, data, "run2")
    for name in ("intervals.json", "patterns.json", "matrix.csv", "matrix.csv.cols.json",
                 "report.json", "patterns.svg"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    # run manifests differ only in their timing fields
    m1 = json.loads((one / "run_manifest.json").read_text())
    m2 = json.loads((two / "run_manifest.json").read_text())
    m1.pop("timings_seconds"), m2.pop("timings_seconds")
    assert m1 == m2


def test_threshold_tightening_yields_subset(tmp_path):
    data = _make_cohort(tmp_path)
    loose = _run_pipeline(tmp_path, data, "loose", minsup=0.01, risk=1.3)
    tight = _run_pipeline(tmp_path, data, "tight", minsup=0.03, risk=2.0)
    keys = lambda p: {e["key"] for e in json.loads((p / "patterns.json").read_text())["patterns"]}  # noqa: E731
    assert keys(tight) <= keys(loose)


def test_stage_by_stage_matches_pipeline(tmp_path):
    data = _make_cohort(tmp_path)
    piped = _run_pipeline(tmp_path, data, "piped")
    work = tmp_path / "stages"
    work.mkdir()
    assert main([
        "abstract", "--cohort", str(data / "cohort.csv"), "--outcomes", str(data / "outcomes.csv"),
        "--features", str(data / "features.json"), "--out", str(work / "intervals.json"),
    ]) == 0
    assert main([
        "mine", "--intervals", str(work / "intervals.json"), "--out", str(work / "patterns.json"),
        "--minsup", "0.1", "--risk-threshold", "1.3",
    ]) == 0
    assert main([
        "matrix", "--intervals", str(work / "intervals.json"),
        "--patterns", str(work / "patterns.json"), "--out", str(work / "matrix.csv"),
    ]) == 0
    assert main([
        "evaluate", "--matrix", str(work / "matrix.csv"), "--out", str(work / "report.json"),
        "--seed", "0",
    ]) == 0
    assert main([
        "render", "--patterns", str(work / "patterns.json"), "--report", str(work / "report.json"),
        "--out", str(work / "patterns.svg"),
    ]) == 0
    for name in ("intervals.json", "patterns.json", "matrix.csv", "report.json", "patterns.svg"):
        assert (work / name).read_bytes() == (piped / name).read_bytes(), name
    # both record all five search counters, apart from the configuration
    mined = json.loads((work / "patterns.json.manifest.json").read_text())
    run = json.loads((piped / "run_manifest.json").read_text())
    assert mined["metrics"]["mining"] == run["metrics"]["mining"]
    assert set(run["metrics"]["mining"]) == {
        "nodes", "candidates", "emitted", "duplicates", "undefined_risk"
    }
    assert run["metrics"]["mining"]["nodes"] > 0
    # and both record each fold's chosen Cox fit
    evaluated = json.loads((work / "report.json.manifest.json").read_text())
    assert evaluated["metrics"]["evaluate"] == run["metrics"]["evaluate"]
    report = json.loads((piped / "report.json").read_text())
    folds = run["metrics"]["evaluate"]["folds"]
    assert [f["lambda"] for f in folds] == report["cox"]["chosen_lambda"]
    assert [f["converged"] for f in folds] == report["cox"]["converged"]
    assert [f["test_c"] for f in folds] == report["cox"]["fold_c"]
    for fold in folds:
        assert set(fold) == {"lambda", "iterations", "converged", "train_c", "test_c",
                             "objective_path_length"}
        assert 0.0 <= fold["train_c"] <= 1.0
        assert fold["objective_path_length"] >= 1
    assert "nodes" not in run["config"] and "candidates" not in mined["config"]
    # the pipeline records every stage's settings, as the stages record them
    stage_configs = {}
    for manifest in ("intervals.json", "patterns.json", "report.json", "patterns.svg"):
        stage = json.loads((work / f"{manifest}.manifest.json").read_text())
        stage_configs.update(stage["config"])
    assert run["config"] == stage_configs
    assert {"wave_count", "minsup", "k", "top"} <= set(stage_configs)


def test_manifests_time_the_search_apart_from_writing_patterns(tmp_path, monkeypatch):
    payload = cli._patterns_payload

    def slow_payload(*args):  # building and writing patterns.json takes at least 50 ms
        time.sleep(0.05)
        return payload(*args)

    monkeypatch.setattr(cli, "_patterns_payload", slow_payload)
    data = _make_cohort(tmp_path)
    piped = _run_pipeline(tmp_path, data, "piped")
    timings = json.loads((piped / "run_manifest.json").read_text())["timings_seconds"]
    assert list(timings) == ["abstract", "mining", "patterns_io", "matrix", "evaluate", "render"]
    assert timings["patterns_io"] >= 0.05
    assert main([
        "mine", "--intervals", str(piped / "intervals.json"), "--out", str(tmp_path / "p.json"),
        "--minsup", "0.1", "--risk-threshold", "1.3",
    ]) == 0
    timings = json.loads((tmp_path / "p.json.manifest.json").read_text())["timings_seconds"]
    assert list(timings) == ["load", "mining", "patterns_io"]
    assert timings["patterns_io"] >= 0.05


def test_evaluate_zero_columns_fails_cleanly(tmp_path, capsys):
    data = _make_cohort(tmp_path)
    work = tmp_path / "zero"
    work.mkdir()
    assert main([
        "abstract", "--cohort", str(data / "cohort.csv"), "--outcomes", str(data / "outcomes.csv"),
        "--features", str(data / "features.json"), "--out", str(work / "intervals.json"),
    ]) == 0
    # thresholds nothing can meet: zero patterns, zero matrix columns
    assert main([
        "mine", "--intervals", str(work / "intervals.json"), "--out", str(work / "patterns.json"),
        "--minsup", "0.99", "--risk-threshold", "500",
    ]) == 0
    assert not json.loads((work / "patterns.json").read_text())["patterns"]
    assert main([
        "matrix", "--intervals", str(work / "intervals.json"),
        "--patterns", str(work / "patterns.json"), "--out", str(work / "matrix.csv"),
    ]) == 0
    code = main([
        "evaluate", "--matrix", str(work / "matrix.csv"), "--out", str(work / "report.json"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def mined(tmp_path_factory):
    """A synth cohort with its intervals, patterns and matrix, read by the bad-input cases."""
    tmp = tmp_path_factory.mktemp("mined")
    data = _make_cohort(tmp)
    assert main([
        "abstract", "--cohort", str(data / "cohort.csv"), "--outcomes", str(data / "outcomes.csv"),
        "--features", str(data / "features.json"), "--out", str(tmp / "intervals.json"),
    ]) == 0
    assert main([
        "mine", "--intervals", str(tmp / "intervals.json"), "--out", str(tmp / "patterns.json"),
        "--minsup", "0.1", "--risk-threshold", "1.3",
    ]) == 0
    assert main([
        "matrix", "--intervals", str(tmp / "intervals.json"), "--patterns", str(tmp / "patterns.json"),
        "--out", str(tmp / "matrix.csv"),
    ]) == 0
    assert main(["evaluate", "--matrix", str(tmp / "matrix.csv"), "--out", str(tmp / "report.json")]) == 0
    return data, tmp


_COHORT = "--cohort {data}/cohort.csv --outcomes {data}/outcomes.csv"
_PLANT_WITHOUT_FRACTION = {"groups": PLANT["groups"], "frac_nonevents": 0.1}


_F01_H_FINISH = {"feature": "F01", "level": "H", "kind": "finish"}


def _patterns_with_groups(groups):
    """One pattern, carried by S0001; well-formed except perhaps for its groups."""
    stats = {"a": 1, "b": 0, "c": 49, "d": 150, "support_pop": 0.005, "support_event": 0.02,
             "risk": 4.0, "matched_patient_ids": ["S0001"]}
    return {"patterns": [{"key": "k", "groups": groups, **stats}]}


def _intervals_with_levels(levels):
    """An intervals document, well-formed except perhaps for its ``levels``."""
    interval = {"feature": "F01", "level": "H", "start": 1, "end": 2}
    return {"wave_count": 3, "levels": levels, "patients": [
        {"patient_id": "p1", "time": 3.0, "event": 1, "intervals": [interval]},
        {"patient_id": "p2", "time": 3.0, "event": 0, "intervals": []},
    ]}


def _intervals_repeating_p1():
    """Intervals that list patient p1 twice, plus one pattern that p1 carries.

    The one file serves as ``--intervals`` and as ``--patterns``: each reader
    ignores the other's keys.
    """
    doc = _intervals_with_levels({"F01": {"H": "high"}})
    doc["patients"].append(doc["patients"][0])
    patterns = _patterns_with_groups([[{**_F01_H_FINISH, "kind": "start"}], [_F01_H_FINISH]])
    patterns["patterns"][0]["matched_patient_ids"] = ["p1"]
    return {**doc, **patterns}


# (id, JSON written to {bad} or None, command line)
_BAD_INPUTS = [
    ("missing-file", None, "mine --intervals {tmp}/nope.json --out {tmp}/out.json"),
    ("features-not-json", "[{", f"abstract {_COHORT} --features {{bad}} --out {{tmp}}/iv.json"),
    ("features-entry-not-object", [1], f"abstract {_COHORT} --features {{bad}} --out {{tmp}}/iv.json"),
    ("patterns-entry-without-groups", {"patterns": [{"key": "k"}]},
     "matrix --intervals {work}/intervals.json --patterns {bad} --out {tmp}/m.csv"),
    ("render-patterns-without-groups", {"patterns": [{"key": "k"}]},
     "render --patterns {bad} --out {tmp}/p.svg"),
    ("config-holds-list", [],
     "mine --intervals {work}/intervals.json --out {tmp}/p.json --config {bad}"),
    ("config-minsup-not-number", {"minsup": "abc"},
     "mine --intervals {work}/intervals.json --out {tmp}/p.json --config {bad}"),
    ("lambda-grid-not-numbers", None,
     f"pipeline {_COHORT} --features {{data}}/features.json --out-dir {{tmp}}/run --lambda-grid a,b"),
    ("evaluate-lambda-negative", None,
     "evaluate --matrix {work}/matrix.csv --out {tmp}/r.json --lambda-grid=-1"),
    ("evaluate-lambda-nan", None,
     "evaluate --matrix {work}/matrix.csv --out {tmp}/r.json --lambda-grid=0.1,nan"),
    ("pipeline-lambda-negative", None,
     f"pipeline {_COHORT} --features {{data}}/features.json --out-dir {{tmp}}/run --lambda-grid=-1"),
    ("pipeline-lambda-nan", None,
     f"pipeline {_COHORT} --features {{data}}/features.json --out-dir {{tmp}}/run --lambda-grid=nan"),
    ("report-without-ranking", {"cox": {}},
     "render --patterns {work}/patterns.json --report {bad} --out {tmp}/p.svg"),
    ("render-top-zero", None, "render --patterns {work}/patterns.json --top 0 --out {tmp}/p.svg"),
    ("synth-plant-without-fraction", {"planted": [_PLANT_WITHOUT_FRACTION]},
     "synth --out-dir {tmp}/synth --config {bad}"),
    ("cutoff-entry-not-object",
     [{"name": "F01", "kind": "categorical", "method": "cutoffs", "cutoffs": [1]}],
     f"abstract {_COHORT} --features {{bad}} --out {{tmp}}/iv.json"),
    ("percentile-entry-not-object",
     [{"name": "F01", "kind": "categorical", "method": "custom_percentiles",
       "percentiles": [{"pct": 50, "level": "L"}, "H"]}],
     f"abstract {_COHORT} --features {{bad}} --out {{tmp}}/iv.json"),
    ("cutoff-bound-not-number",
     [{"name": "F01", "kind": "categorical", "method": "cutoffs",
       "cutoffs": [{"upper": "x", "level": "L"}, {"level": "H"}]}],
     f"abstract {_COHORT} --features {{bad}} --out {{tmp}}/iv.json"),
    ("report-keys-not-strings", {"ranking": {"keys": [["x"]]}},
     "render --patterns {work}/patterns.json --report {bad} --out {tmp}/p.svg"),
    ("report-keys-not-list", {"ranking": {"keys": "P1"}},
     "render --patterns {work}/patterns.json --report {bad} --out {tmp}/p.svg"),
    ("mine-intervals-levels-list", _intervals_with_levels([]),
     "mine --intervals {bad} --out {tmp}/p.json"),
    ("mine-intervals-level-entry-list", _intervals_with_levels({"F01": ["H"]}),
     "mine --intervals {bad} --out {tmp}/p.json"),
    ("matrix-intervals-levels-list", _intervals_with_levels([]),
     "matrix --intervals {bad} --patterns {work}/patterns.json --out {tmp}/m.csv"),
    ("matrix-intervals-level-entry-list", _intervals_with_levels({"F01": ["H"]}),
     "matrix --intervals {bad} --patterns {work}/patterns.json --out {tmp}/m.csv"),
    ("matrix-patterns-lone-finish", _patterns_with_groups([[_F01_H_FINISH]]),
     "matrix --intervals {work}/intervals.json --patterns {bad} --out {tmp}/m.csv"),
    ("synth-seed-negative", None, "synth --out-dir {tmp}/synth --seed -1"),
    ("evaluate-seed-negative", None, "evaluate --matrix {work}/matrix.csv --out {tmp}/r.json --seed -1"),
    ("pipeline-seed-negative", None,
     f"pipeline {_COHORT} --features {{data}}/features.json --out-dir {{tmp}}/run --seed -1"),
    ("pipeline-k-one", None,
     f"pipeline {_COHORT} --features {{data}}/features.json --out-dir {{tmp}}/run --k 1"),
    ("pipeline-top-zero", None,
     f"pipeline {_COHORT} --features {{data}}/features.json --out-dir {{tmp}}/run --top 0"),
    ("mine-risk-threshold-nan", None,
     "mine --intervals {work}/intervals.json --out {tmp}/p.json --risk-threshold nan"),
    ("mine-risk-threshold-inf", None,
     "mine --intervals {work}/intervals.json --out {tmp}/p.json --risk-threshold inf"),
    ("config-k-fraction", {"k": 2.7},
     "evaluate --matrix {work}/matrix.csv --out {tmp}/r.json --config {bad}"),
    ("pipeline-config-k-fraction", {"k": 2.7},
     f"pipeline {_COHORT} --features {{data}}/features.json --out-dir {{tmp}}/run --config {{bad}}"),
    ("config-max-length-fraction", {"max_length": 1.5},
     "mine --intervals {work}/intervals.json --out {tmp}/p.json --config {bad}"),
    ("synth-config-seed-fraction", {"patients": 50, "seed": 2.7},
     "synth --out-dir {tmp}/synth --config {bad}"),
    ("synth-config-patients-fraction", {"patients": 50.5},
     "synth --out-dir {tmp}/synth --config {bad}"),
    ("synth-config-patients-bool", {"patients": True},
     "synth --out-dir {tmp}/synth --config {bad}"),
    ("matrix-intervals-repeated-patient", _intervals_repeating_p1(),
     "matrix --intervals {bad} --patterns {bad} --out {tmp}/m.csv"),
    ("evaluate-sidecar-list", [1, 2],
     "evaluate --matrix {work}/matrix.csv --sidecar {bad} --out {tmp}/r.json"),
    ("evaluate-sidecar-column-not-object", {"columns": [1]},
     "evaluate --matrix {work}/matrix.csv --sidecar {bad} --out {tmp}/r.json"),
]


@pytest.mark.parametrize("content,command", [c[1:] for c in _BAD_INPUTS],
                         ids=[c[0] for c in _BAD_INPUTS])
def test_missing_file_fails_cleanly(mined, tmp_path, capsys, content, command):
    data, work = mined
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content if isinstance(content, str) else json.dumps(content),
                       encoding="utf-8")
    argv = [arg.format(data=data, work=work, tmp=tmp_path, bad=bad) for arg in command.split()]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    # a bad setting stops the pipeline before its first stage writes anything
    assert argv[0] != "pipeline" or not list((tmp_path / "run").glob("*"))
    # unknown flags exit with argparse's usage error
    with pytest.raises(SystemExit):
        main(["mine", "--intervals", "x", "--out", "y", "--bogus"])


def test_mine_rejects_crossed_intervals_naming_the_patient(tmp_path, capsys):
    # abstraction never writes two F01=H intervals of one patient that overlap
    doc = _intervals_with_levels({"F01": {"H": "high"}})
    doc["patients"][1]["intervals"] = [
        {"feature": "F01", "level": "H", "start": s, "end": e} for s, e in ((1, 3), (1, 5), (4, 5))
    ]
    path = tmp_path / "intervals.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["mine", "--intervals", str(path), "--out", str(tmp_path / "p.json")]) == 1
    assert re.search(r"^error: p2: .*intervals overlap", capsys.readouterr().err, re.M)
    assert not (tmp_path / "p.json").exists()


def test_mine_config_file_supplies_defaults(tmp_path):
    data = _make_cohort(tmp_path)
    work = tmp_path / "cfg"
    work.mkdir()
    assert main([
        "abstract", "--cohort", str(data / "cohort.csv"), "--outcomes", str(data / "outcomes.csv"),
        "--features", str(data / "features.json"), "--out", str(work / "intervals.json"),
    ]) == 0
    cfg = work / "mine.json"
    cfg.write_text(json.dumps({"minsup": 0.1, "risk_threshold": 1.3}), encoding="utf-8")
    assert main([
        "mine", "--intervals", str(work / "intervals.json"),
        "--out", str(work / "from_config.json"), "--config", str(cfg),
    ]) == 0
    assert main([
        "mine", "--intervals", str(work / "intervals.json"),
        "--out", str(work / "from_flags.json"), "--minsup", "0.1", "--risk-threshold", "1.3",
    ]) == 0
    a = json.loads((work / "from_config.json").read_text())
    b = json.loads((work / "from_flags.json").read_text())
    assert a == b
    # explicit flags win over the config file
    assert main([
        "mine", "--intervals", str(work / "intervals.json"),
        "--out", str(work / "override.json"), "--config", str(cfg), "--risk-threshold", "5",
    ]) == 0
    override = json.loads((work / "override.json").read_text())
    assert override["config"]["risk_threshold"] == 5.0


def test_synth_from_flags_without_config(tmp_path):
    out = tmp_path / "flags"
    assert main([
        "synth", "--out-dir", str(out), "--patients", "50", "--waves", "4",
        "--features", "3", "--event-rate", "0.3", "--seed", "2",
    ]) == 0
    lines = (out / "outcomes.csv").read_text().strip().splitlines()
    assert len(lines) == 51  # header + one outcome per patient
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["patients"] == 50 and manifest["patterns"] == []
    # with --config, a flag wins over the file, the file over SynthConfig's default
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"patients": 50, "features": 2, "seed": 4}), encoding="utf-8")
    out = tmp_path / "both"
    assert main([
        "synth", "--out-dir", str(out), "--config", str(cfg), "--patients", "80", "--waves", "3",
    ]) == 0
    config = json.loads((out / "run_manifest.json").read_text())["config"]
    assert config == {"seed": 4, "patients": 80, "waves": 3, "features": 2,
                      "event_rate": 0.15, "noise_rate": 0.05}
    assert len((out / "outcomes.csv").read_text().strip().splitlines()) == 81
    assert json.loads((out / "features.json").read_text())[-1]["name"] == "F02"
    assert max(int(line.split(",")[1])
               for line in (out / "cohort.csv").read_text().splitlines()[1:]) == 3


def test_continuous_features_end_to_end(tmp_path):
    import random

    rng = random.Random(12)
    features = [
        {
            "name": "bmi",
            "kind": "continuous",
            "method": "cutoffs",
            "cutoffs": [
                {"upper": 18.5, "level": "Underweight"},
                {"upper": 25.0, "level": "Normal weight"},
                {"upper": 30.0, "level": "Overweight"},
                {"level": "Obese"},
            ],
            "levels": [
                {"name": "Underweight", "severity": "low"},
                {"name": "Normal weight", "severity": "normal"},
                {"name": "Overweight", "severity": "high"},
                {"name": "Obese", "severity": "very_high"},
            ],
            "normal_level": "Normal weight",
        },
        {"name": "gait", "kind": "continuous", "method": "percentiles"},
    ]
    (tmp_path / "features.json").write_text(json.dumps(features), encoding="utf-8")
    cohort_rows = ["patient_id,wave,feature,value"]
    outcome_rows = ["patient_id,time,event"]
    for i in range(30):
        pid = f"p{i:02d}"
        event = i < 8
        time = rng.randint(2, 4) if event else 4
        outcome_rows.append(f"{pid},{time},{int(event)}")
        # events mostly hold an obese span; a few non-events spike obese for a
        # single wave, giving the strict risk-increase rule its contrast
        obese_run = event and rng.random() < 0.8
        spike_wave = rng.randint(1, time) if not event and i % 7 == 0 else None
        for wave in range(1, time + 1):
            if obese_run or wave == spike_wave:
                value = 33.0 + rng.uniform(-1, 1)
            else:
                value = 22.0 + rng.uniform(-1, 1)
            cohort_rows.append(f"{pid},{wave},bmi,{value:.1f}")
            if rng.random() < 0.8:
                cohort_rows.append(f"{pid},{wave},gait,{rng.uniform(0, 100):.1f}")
    (tmp_path / "cohort.csv").write_text("\n".join(cohort_rows) + "\n", encoding="utf-8")
    (tmp_path / "outcomes.csv").write_text("\n".join(outcome_rows) + "\n", encoding="utf-8")

    out = tmp_path / "cont"
    assert main([
        "pipeline",
        "--cohort", str(tmp_path / "cohort.csv"),
        "--outcomes", str(tmp_path / "outcomes.csv"),
        "--features", str(tmp_path / "features.json"),
        "--out-dir", str(out),
        "--minsup", "0.2", "--risk-threshold", "1.2", "--seed", "0", "--k", "3",
    ]) == 0
    intervals = json.loads((out / "intervals.json").read_text())
    assert len(intervals["edges"]["gait"]) == 4  # fitted percentile edges recorded
    assert intervals["levels"]["bmi"]["Normal weight"] == "normal"
    patterns = json.loads((out / "patterns.json").read_text())
    assert any("bmi=Obese" in e["key"] for e in patterns["patterns"])


def test_workers_flag_does_not_change_output(tmp_path):
    # --workers is accepted, for the benchmark's command lines, and ignored
    data = _make_cohort(tmp_path)
    one = _run_pipeline(tmp_path, data, "w1", workers=1)
    two = _run_pipeline(tmp_path, data, "w2", workers=2)
    assert (one / "patterns.json").read_bytes() == (two / "patterns.json").read_bytes()
    # the search counters too
    counters = [
        json.loads((out / "run_manifest.json").read_text())["metrics"]["mining"]
        for out in (one, two)
    ]
    assert counters[0] == counters[1]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert [re.split(r"[\s\[<>=!~;]", d, maxsplit=1)[0] for d in deps] == ["numpy"]


def test_importing_the_cli_loads_no_optional_or_network_module():
    # scipy and orjson may be installed without being dependencies; importing
    # the CLI in a fresh interpreter must not pull them (or numba) in, nor the
    # network and mail modules that xml.sax.saxutils loads
    unwanted = {"scipy", "orjson", "numba", "urllib.request", "http.client", "ssl", "email"}
    probe = f"import sys, wavemine.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    src = str(Path(wavemine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_a_pipeline_run_loads_no_numpy_ma(tmp_path):
    # numpy 2 imports numpy.ma (about 10 ms) on a plain np.unique or
    # np.percentile; numpy 1.x imports it with numpy itself, which is allowed
    config = {"patients": 400, "waves": 6, "features": 8, "event_rate": 0.2,
              "noise_rate": 0.08, "seed": 4}
    (tmp_path / "synth.json").write_text(json.dumps(config), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--config", str(tmp_path / "synth.json")]) == 0
    probe = (
        "import sys, numpy\n"
        "def ma():\n"
        "    return {m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')}\n"
        "before = ma()\n"
        "from wavemine.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(sorted(ma() - before))\n"
    )
    src = str(Path(wavemine.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe, "pipeline", "--cohort", str(data / "cohort.csv"),
         "--outcomes", str(data / "outcomes.csv"), "--features", str(data / "features.json"),
         "--out-dir", str(tmp_path / "run"), "--minsup", "0.01", "--risk-threshold", "0.5"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert json.loads((tmp_path / "run" / "report.json").read_text())["cox"]["fold_c"]
    assert done.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("outcome", ["returns", "fails", "raises"])
@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_the_collector_and_restores_it(monkeypatch, capsys, outcome, enabled):
    seen = []

    def command(_args):
        seen.append(gc.isenabled())
        if outcome == "fails":
            raise ConfigError("boom")
        if outcome == "raises":
            raise KeyError("boom")
        return 0

    monkeypatch.setattr(cli, "_cmd_synth", command)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "raises":
            with pytest.raises(KeyError):
                main(["synth", "--out-dir", "unused"])
        else:
            assert main(["synth", "--out-dir", "unused"]) == (1 if outcome == "fails" else 0)
        assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_only_the_cli_sets_the_collector_policy():
    src = Path(wavemine.__file__).resolve().parent
    importers = sorted(
        path.name for path in src.glob("*.py")
        if re.search(r"^\s*(import gc\b|from gc import)", path.read_text(encoding="utf-8"), re.M)
    )
    assert importers == ["cli.py"]


def test_digest_reads_the_file_a_block_at_a_time(tmp_path):
    import hashlib
    import tracemalloc

    data = os.urandom(1 << 22)  # 4 MiB
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        digest = cli._digest(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(data).hexdigest()
    assert peak < 2_000_000  # reading the whole file took 4 MiB


@pytest.mark.parametrize("rr", ['"abc"', "null", "true", "0", "-1", "Infinity", "NaN", "1e999999"])
def test_evaluate_rejects_a_bad_sidecar_relative_risk_naming_its_column(mined, tmp_path, capsys, rr):
    _, work = mined
    sidecar = json.loads((work / "matrix.csv.cols.json").read_text(encoding="utf-8"))
    key = sidecar["columns"][0]["key"]
    sidecar["columns"][0]["rr"] = "RR"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(sidecar).replace('"RR"', rr), encoding="utf-8")
    argv = ["evaluate", "--matrix", str(work / "matrix.csv"), "--sidecar", str(bad),
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: relative risk for column {key!r} must be a finite number > 0" in err
    assert not (tmp_path / "r.json").exists()


def _spoil(src: Path, dst: Path, at: float) -> Path:
    """``src`` copied to ``dst`` with one 0xff byte put in at fraction ``at`` of its length."""
    data = src.read_bytes()
    k = int(len(data) * at)
    dst.write_bytes(data[:k] + b"\xff" + data[k:])
    return dst


# (id, input file, where its 0xff goes, command line reading {bad} in its place)
_NOT_UTF8 = [
    ("cohort-header", "{data}/cohort.csv", 0.0,
     "pipeline --cohort {bad} --outcomes {data}/outcomes.csv --features {data}/features.json "
     "--out-dir {tmp}/run"),
    ("cohort-body", "{data}/cohort.csv", 0.9,
     "pipeline --cohort {bad} --outcomes {data}/outcomes.csv --features {data}/features.json "
     "--out-dir {tmp}/run"),
    ("outcomes", "{data}/outcomes.csv", 0.5,
     "pipeline --cohort {data}/cohort.csv --outcomes {bad} --features {data}/features.json "
     "--out-dir {tmp}/run"),
    ("features", "{data}/features.json", 0.5,
     "pipeline --cohort {data}/cohort.csv --outcomes {data}/outcomes.csv --features {bad} "
     "--out-dir {tmp}/run"),
    ("intervals", "{work}/intervals.json", 0.5, "mine --intervals {bad} --out {tmp}/p.json"),
    ("patterns", "{work}/patterns.json", 0.5, "render --patterns {bad} --out {tmp}/p.svg"),
    ("matrix", "{work}/matrix.csv", 0.5, "evaluate --matrix {bad} --sidecar "
     "{work}/matrix.csv.cols.json --out {tmp}/r.json"),
    ("sidecar", "{work}/matrix.csv.cols.json", 0.5,
     "evaluate --matrix {work}/matrix.csv --sidecar {bad} --out {tmp}/r.json"),
]


@pytest.mark.parametrize("source,at,command", [c[1:] for c in _NOT_UTF8],
                         ids=[c[0] for c in _NOT_UTF8])
def test_input_that_is_not_utf8_fails_cleanly(mined, tmp_path, capsys, source, at, command):
    data, work = mined
    fill = {"data": data, "work": work, "tmp": tmp_path}
    src = Path(source.format(**fill))
    bad = _spoil(src, tmp_path / src.name, at)
    argv = [arg.format(**fill, bad=bad) for arg in command.split()]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not UTF-8 text" in err and "Traceback" not in err


def test_main_leaves_the_collector_as_it_found_it(tmp_path):
    # the freeze waits for the interpreter's exit
    config = _synth_config(tmp_path, patients=30)
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["synth", "--out-dir", str(tmp_path / "a"), "--config", str(config)]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_a_spawned_pipeline_writes_what_an_in_process_one_writes(tmp_path):
    # every writer closes its file in a `with`, so no artifact waits for the
    # interpreter's exit, which freezes what is left instead of collecting it
    data = _make_cohort(tmp_path)
    here = _run_pipeline(tmp_path, data, "here")
    argv = [sys.executable, "-m", "wavemine.cli", "pipeline", "--cohort", str(data / "cohort.csv"),
            "--outcomes", str(data / "outcomes.csv"), "--features", str(data / "features.json"),
            "--out-dir", str(tmp_path / "there"), "--minsup", "0.1", "--risk-threshold", "1.3",
            "--workers", "1", "--seed", "0"]
    src = str(Path(wavemine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run(argv, env=env, capture_output=True, check=True, timeout=120)
    there = tmp_path / "there"
    for name in ("intervals.json", "patterns.json", "matrix.csv", "matrix.csv.cols.json",
                 "report.json", "patterns.svg"):
        assert (here / name).read_bytes() == (there / name).read_bytes(), name
    manifests = [json.loads((out / "run_manifest.json").read_text()) for out in (here, there)]
    for manifest in manifests:
        manifest.pop("timings_seconds")
    assert manifests[0] == manifests[1]


def test_an_error_hashing_an_input_fails_the_command(tmp_path, monkeypatch, capsys):
    data = _make_cohort(tmp_path)

    def fail(path):
        raise OSError(f"cannot read {path.name}")

    monkeypatch.setattr(cli, "_digest", fail)
    argv = ["pipeline", "--cohort", str(data / "cohort.csv"), "--outcomes",
            str(data / "outcomes.csv"), "--features", str(data / "features.json"),
            "--out-dir", str(tmp_path / "run")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: cannot read cohort.csv\n"
    assert not (tmp_path / "run" / "run_manifest.json").exists()
