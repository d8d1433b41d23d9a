"""Byte-identity of the pipeline's artifacts on a small seeded cohort.

The digests were recorded from a run of the same inputs before the columnar
front end (numpy abstraction, template-written ``intervals.json``) replaced
the per-value one, so any change to an artifact's bytes fails here.  The
synth files the cohort starts from are pinned as well: they are the
benchmark's inputs, and their ``manifest.json`` is the planted ground truth.
``report.json`` is left to the tolerance tests: its coefficients depend on
floating-point summation order, which BLAS may change across machines.
The miner's five search counters are pinned too, so a change that keeps
the patterns but alters how much of the search runs also fails here.
"""
import hashlib
import json
import random
from pathlib import Path

from wavemine.cli import main

BMI = {
    "name": "BMI",
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
}

GOLDEN = {
    "intervals.json": "70dc45b11606af4844e8ff248d1b20c5565e4c23467211636915946a1c29bcef",
    "patterns.json": "3d6f96f87ec0c66c6ddff0c8ca2749f0659b643b621a5bb3fd5cfbbb2bb991f1",
    "matrix.csv": "9c9ee4916ae99ac696418a3d601f1f422ee5f0691dce02810e7da21b29dc2e38",
    "matrix.csv.cols.json": "23df1ff8e98a525c25e362c755423267d2ec36aa82eea82ea1e42ab33907b04b",
}

MINING = {"nodes": 40, "candidates": 300, "emitted": 5, "duplicates": 2, "undefined_risk": 0}

# synth's own files for the 400-patient config, before the BMI rows are added
SYNTH_GOLDEN = {
    "cohort.csv": "c8780585fbe3dcf50943da4f27994713b881ca6b0c64b6062282f82b030be5ea",
    "outcomes.csv": "04b351d4749623872b5283d28225b8256f5dd22e97f383d3775d24e2161e0604",
    "features.json": "262d2662fbec5d726a373a4683833456162bb93666c842bb8824836a8e218e4c",
    "manifest.json": "284bd4b8a229fa65f56410a0bc8bf5b1e5f18f86ec5ef10711020adcd1a2ff22",
}


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def _synth(tmp_path):
    """A 400-patient synth cohort with one planted pattern."""
    config = {
        "patients": 400,
        "waves": 5,
        "features": 4,
        "event_rate": 0.2,
        "noise_rate": 0.08,
        "seed": 21,
        "planted": [{
            "groups": [
                [{"feature": "F01", "level": "H", "kind": "start"}],
                [{"feature": "F01", "level": "H", "kind": "finish"}],
            ],
            "frac_events": 0.5,
            "frac_nonevents": 0.1,
        }],
    }
    (tmp_path / "synth.json").write_text(json.dumps(config), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--config", str(tmp_path / "synth.json")]) == 0
    return data


def _cohort(tmp_path):
    """The synth cohort plus a BMI cutoff feature with blank cells."""
    data = _synth(tmp_path)
    rng = random.Random(21)
    rows = []
    for line in (data / "outcomes.csv").read_text(encoding="utf-8").splitlines()[1:]:
        pid, time, _event = line.split(",")
        base = rng.uniform(17.0, 34.0)
        for wave in range(1, int(float(time)) + 1):
            # blank cells leave gaps for carry-forward to fill
            cell = "" if rng.random() < 0.15 else f"{base + rng.uniform(-2.5, 2.5):.1f}"
            rows.append(f"{pid},{wave},BMI,{cell}\n")
    with open(data / "cohort.csv", "a", encoding="utf-8") as fh:
        fh.writelines(rows)
    features = json.loads((data / "features.json").read_text(encoding="utf-8"))
    (data / "features.json").write_text(json.dumps(features + [BMI]), encoding="utf-8")
    return data


def test_pipeline_artifacts_match_golden_digests(tmp_path):
    data = _cohort(tmp_path)
    out = tmp_path / "run"
    assert main([
        "pipeline",
        "--cohort", str(data / "cohort.csv"),
        "--outcomes", str(data / "outcomes.csv"),
        "--features", str(data / "features.json"),
        "--out-dir", str(out),
        "--minsup", "0.02", "--risk-threshold", "0.8", "--workers", "1", "--seed", "0",
    ]) == 0
    assert _digests(out, GOLDEN) == GOLDEN
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["metrics"]["mining"] == MINING


def test_synth_files_match_golden_digests(tmp_path):
    assert _digests(_synth(tmp_path), SYNTH_GOLDEN) == SYNTH_GOLDEN


# The patterns-5k benchmark's synth and mining settings at 1,000 patients:
# a search of about 1,500 nodes, far past what the brute-force oracle reaches.
PIN_SYNTH = {
    "patients": 1000,
    "waves": 6,
    "features": 10,
    "event_rate": 0.15,
    "noise_rate": 0.08,
    "seed": 7,
    "planted": [{
        "groups": [
            [{"feature": "F01", "level": "H", "kind": "start"}],
            [
                {"feature": "F01", "level": "H", "kind": "finish"},
                {"feature": "F02", "level": "L", "kind": "start"},
            ],
            [{"feature": "F02", "level": "L", "kind": "finish"}],
        ],
        "frac_events": 0.5,
        "frac_nonevents": 0.1,
    }],
}

PIN_PATTERNS = "155ebeb5921e095a53b15355157a45a01e14ddbc7037bc7fd3961d22032c06de"

PIN_MINING = {"nodes": 1353, "candidates": 7667, "emitted": 102, "duplicates": 339,
              "undefined_risk": 0}


def test_mining_a_1000_patient_cohort_matches_its_pinned_digest_and_counters(tmp_path):
    (tmp_path / "synth.json").write_text(json.dumps(PIN_SYNTH), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--config", str(tmp_path / "synth.json")]) == 0
    intervals = tmp_path / "intervals.json"
    assert main([
        "abstract", "--cohort", str(data / "cohort.csv"), "--outcomes", str(data / "outcomes.csv"),
        "--features", str(data / "features.json"), "--out", str(intervals),
    ]) == 0
    for workers in ("1", "2"):
        out = tmp_path / f"patterns-{workers}.json"
        assert main([
            "mine", "--intervals", str(intervals), "--out", str(out),
            "--minsup", "0.005", "--risk-threshold", "0.5", "--workers", workers,
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PIN_PATTERNS
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text(encoding="utf-8"))
        assert manifest["metrics"]["mining"] == PIN_MINING
