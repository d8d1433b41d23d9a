"""Seeded benchmark inputs.

A cohort comes from ``wavemine synth`` (10 categorical features, 6 waves, one
planted three-group pattern).  Workloads that need numeric input also get two
continuous features written here: ``BMI`` abstracted with fixed cutoffs and
``SBP`` with fitted percentiles.  Both leave blank cells, so parsing, LOCF
filling and percentile fitting all do real work.  The same seed always gives
byte-identical files; their SHA-256 digests are reported with every run.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

PLANTED = {
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
}

CONTINUOUS_FEATURES = [
    {
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
    },
    {"name": "SBP", "kind": "continuous", "method": "percentiles"},
]

WAVES = 6
BLANK_RATE = 0.12

INPUT_FILES = ("cohort.csv", "outcomes.csv", "features.json", "manifest.json")


def synth_config(patients: int, seed: int) -> dict:
    return {
        "patients": patients,
        "waves": WAVES,
        "features": 10,
        "event_rate": 0.15,
        "noise_rate": 0.08,
        "seed": seed,
        "planted": [PLANTED],
    }


def add_continuous(data_dir: Path, seed: int) -> None:
    """Append BMI and SBP rows (with blank cells) to a synth cohort in place."""
    with open(data_dir / "outcomes.csv", newline="", encoding="utf-8") as fh:
        outcomes = [(row["patient_id"], int(float(row["time"]))) for row in csv.DictReader(fh)]
    rng = np.random.default_rng([seed, 1])
    n = len(outcomes)
    bmi = rng.normal(26.0, 4.0, size=(n, 1)) + rng.normal(0.0, 0.8, size=(n, WAVES))
    sbp = rng.normal(125.0, 12.0, size=(n, 1)) + rng.normal(0.0, 6.0, size=(n, WAVES))
    blank = rng.random((2, n, WAVES)) < BLANK_RATE
    with open(data_dir / "cohort.csv", "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for i, (pid, horizon) in enumerate(outcomes):
            for f, (name, values) in enumerate((("BMI", bmi), ("SBP", sbp))):
                for w in range(min(horizon, WAVES)):
                    cell = "" if blank[f, i, w] else f"{values[i, w]:.1f}"
                    writer.writerow([pid, w + 1, name, cell])
    features_path = data_dir / "features.json"
    features = json.loads(features_path.read_text(encoding="utf-8"))
    features_path.write_text(json.dumps(features + CONTINUOUS_FEATURES, indent=2) + "\n",
                             encoding="utf-8")


def digests(data_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((data_dir / name).read_bytes()).hexdigest() for name in INPUT_FILES
    }
