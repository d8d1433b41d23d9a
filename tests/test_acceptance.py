"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import json
import math
import random
import time

import numpy as np
import pytest

from wavemine.abstraction import abstract_cohort, bmi_feature, fit_percentiles, abstract_value
from wavemine.cli import main
from wavemine.encoding import pattern_key
from wavemine.ingest import PatientRecord, RawCohort, SurvivalOutcome, carry_forward
from wavemine.matrix import build_matrix
from wavemine.miner import (
    MinerConfig,
    brute_force_mine,
    counts_stats,
    mine,
    mine_with_stats,
    odds_ratio,
    relative_risk,
)
from wavemine.survival import concordance_index, cross_validate, cv_score_vector, fit_ridge_cox, rr_score
from wavemine.synth import PlantedPattern, SynthConfig, generate

from test_survival import _golden_max, _matrix, _naive_penalized_ll, _toy_cox_matrix
from util import ep, intervals_doc, random_db, result_fingerprint


def _ok(criterion: int, message: str) -> None:
    print(f"\n[acceptance] criterion {criterion} PASS - {message}")


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    rng = random.Random(20240801)
    t0 = time.perf_counter()
    n_instances = 200
    for _ in range(n_instances):
        db = random_db(rng, n_pat=rng.randint(4, 14), waves=rng.randint(2, 5))
        cfg = MinerConfig(
            minsup=rng.choice([0.1, 0.15, 0.25, 0.4]),
            minsup_scope=rng.choice(["event_group", "population"]),
            risk_sup=rng.choice([1.0, 1.2, 1.5, 2.0]),
            measure=rng.choice(["relative_risk", "odds_ratio"]),
            max_length=rng.choice([3, 4, 6, None]),
        )
        assert result_fingerprint(mine(db, cfg)) == result_fingerprint(
            brute_force_mine(db, cfg)
        ), f"oracle mismatch: {cfg}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _ok(1, f"mine == brute_force_mine on {n_instances} randomized instances in {elapsed:.1f}s")


def test_criterion_2_duplicate_pruning():
    db = intervals_doc(
        ("e1", True, [("A", "x", 1, 2), ("B", "x", 2, 3)]),
        ("e2", True, [("A", "x", 1, 2), ("B", "x", 2, 3)]),
        ("n1", False, [("A", "x", 1, 1)]),
        ("n2", False, [("A", "x", 1, 2)]),
        ("n3", False, [("A", "x", 1, 2), ("B", "x", 2, 2)]),
        ("n4", False, [("C", "x", 1, 1)]),
        ("n5", False, [("A", "x", 1, 3), ("B", "x", 2, 2)]),
    )
    target = pattern_key(
        [[ep("A", "x", "+")], [ep("B", "x", "+"), ep("A", "x", "-")], [ep("B", "x", "-")]]
    )
    permuted = pattern_key(
        [[ep("A", "x", "+")], [ep("A", "x", "-"), ep("B", "x", "+")], [ep("B", "x", "-")]]
    )
    assert permuted == target  # both writings of the simultaneous group are one form
    results, stats = mine_with_stats(db, MinerConfig(minsup=0.4, risk_sup=1.2))
    keys = [r.pattern.key() for r in results]
    assert keys.count(target) == 1
    assert stats.duplicates >= 1
    _ok(2, f"arrangement {target} emitted exactly once (duplicates cut: {stats.duplicates})")


def _grid_cohort():
    planted = (
        PlantedPattern(
            groups=((ep("F01", "H", "+"),), (ep("F01", "H", "-"),)),
            frac_events=0.5,
            frac_nonevents=0.1,
        ),
        PlantedPattern(
            groups=(
                (ep("F02", "VH", "+"), ep("F03", "L", "+")),
                (ep("F02", "VH", "-"), ep("F03", "L", "-")),
            ),
            frac_events=0.3,
            frac_nonevents=0.05,
        ),
    )
    config = SynthConfig(
        patients=500, waves=5, features=20, event_rate=0.2, noise_rate=0.2,
        planted=planted, seed=5,
    )
    cohort, specs, _ = generate(config)
    return abstract_cohort(cohort, specs)


def test_criterion_3_threshold_monotonicity():
    doc = _grid_cohort()
    grid = {}
    for risk in (1.5, 2.0):
        for minsup in (0.01, 0.02, 0.03):
            cfg = MinerConfig(minsup=minsup, minsup_scope="event_group", risk_sup=risk)
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                results, stats = mine_with_stats(doc, cfg)
                best = min(best, time.perf_counter() - t0)
            grid[(minsup, risk)] = (
                {r.pattern.key() for r in results},
                stats.nodes,
                best,
            )
    for risk in (1.5, 2.0):
        assert grid[(0.03, risk)][0] <= grid[(0.02, risk)][0] <= grid[(0.01, risk)][0]
    for minsup in (0.01, 0.02, 0.03):
        assert grid[(minsup, 2.0)][0] <= grid[(minsup, 1.5)][0]
    counts = {k: len(v[0]) for k, v in grid.items()}
    for risk in (1.5, 2.0):
        assert counts[(0.01, risk)] >= counts[(0.02, risk)] >= counts[(0.03, risk)]
    for minsup in (0.01, 0.02, 0.03):
        assert counts[(minsup, 1.5)] >= counts[(minsup, 2.0)]
        # mining work (deterministic proxy) and wall time drop with the risk threshold
        assert grid[(minsup, 2.0)][1] <= grid[(minsup, 1.5)][1]
        assert grid[(minsup, 2.0)][2] <= grid[(minsup, 1.5)][2] * 1.5 + 0.05
    times = {k: round(v[2], 4) for k, v in grid.items()}
    _ok(3, f"nested pattern sets over the grid; counts={counts}; times(s)={times}")


def test_criterion_4_risk_measures():
    assert relative_risk(counts_stats(8, 2, 12, 78)) == pytest.approx(6.0, abs=1e-12)
    assert odds_ratio(counts_stats(8, 2, 12, 78)) == pytest.approx(26.0, abs=1e-12)
    assert relative_risk(counts_stats(5, 5, 0, 90)) == pytest.approx(91.0, abs=1e-12)
    assert odds_ratio(counts_stats(5, 0, 5, 90)) == pytest.approx(181.0, abs=1e-12)
    assert relative_risk(counts_stats(2, 8, 18, 72)) == pytest.approx(1.0, abs=1e-12)
    assert odds_ratio(counts_stats(2, 8, 18, 72)) == pytest.approx(1.0, abs=1e-12)
    _ok(4, "2x2 hand values exact: RR 6.0 / OR 26.0; corrected 91.0 / 181.0")


def _planted_cohort(seed=11):
    planted = PlantedPattern(
        groups=((ep("F01", "H", "+"),), (ep("F01", "H", "-"),)),
        frac_events=0.55,
        frac_nonevents=0.06,
    )
    config = SynthConfig(
        patients=1000, waves=5, features=5, event_rate=0.15, noise_rate=0.04,
        planted=(planted,), seed=seed,
    )
    cohort, specs, manifest = generate(config)
    doc = abstract_cohort(cohort, specs)
    return doc, manifest


def test_criterion_5_planted_pattern_recovery():
    doc, manifest = _planted_cohort()
    entry = manifest["patterns"][0]
    assert entry["rr"] >= 3.0, "cohort must plant a strong pattern"
    results = mine(doc, MinerConfig(minsup=0.05, minsup_scope="event_group", risk_sup=1.5))
    by_key = {r.pattern.key(): r for r in results}
    assert entry["key"] in by_key
    mined_rr = relative_risk(by_key[entry["key"]].stats)
    assert abs(mined_rr - entry["rr"]) <= 0.10 * entry["rr"]
    _ok(
        5,
        f"planted {entry['key']} recovered: mined RR {mined_rr:.3f} vs manifest {entry['rr']:.3f}",
    )


def test_criterion_6_survival_layer():
    assert concordance_index([3, 1, 2], [2, 4, 6], [1, 1, 0]) == pytest.approx(
        2 / 3, abs=1e-15
    )
    times = np.arange(1.0, 7.0)
    events = np.ones(6, dtype=bool)
    assert concordance_index(-times, times, events) == 1.0
    assert concordance_index(times, times, events) == 0.0

    toy = _toy_cox_matrix()
    x = toy.cells[:, 0].astype(float).tolist()
    for lam in (0.01, 0.5, 2.0):
        model = fit_ridge_cox(toy, lam)
        expected = _golden_max(
            lambda b: _naive_penalized_ll(x, toy.times.tolist(), toy.events.tolist(), b, lam),
            -6.0,
            6.0,
        )
        assert model.coefficients[0] == pytest.approx(expected, abs=1e-4)

    doc, manifest = _planted_cohort()
    results = mine(doc, MinerConfig(minsup=0.05, risk_sup=1.5))
    matrix = build_matrix(results, doc.ids, doc.outcomes())
    rr_by_key = {r.pattern.key(): relative_risk(r.stats) for r in results}
    cox_cs, rr_cs = [], []
    for seed in (0, 1, 2):
        cv = cross_validate(matrix, k=5, seed=seed)
        rr_fold = cv_score_vector(matrix, rr_score(matrix, rr_by_key), cv.folds)
        cox_cs.append(cv.mean_c)
        rr_cs.append(float(np.mean(rr_fold)))
        assert cv.mean_c > 0.65, f"cox C {cv.mean_c:.3f} at seed {seed}"
        assert rr_cs[-1] > 0.65, f"rr C {rr_cs[-1]:.3f} at seed {seed}"
    _ok(
        6,
        "C=2/3 exact; perfect/anti 1.0/0.0; cox==grid to 1e-4; "
        f"5-fold C cox={['%.3f' % c for c in cox_cs]} rr={['%.3f' % c for c in rr_cs]}",
    )


def test_criterion_7_determinism(tmp_path):
    doc, _ = _planted_cohort()
    serialized = []
    for workers in (1, 2, 8):
        cfg = MinerConfig(minsup=0.05, risk_sup=1.5, workers=workers)
        results = mine(doc, cfg)
        serialized.append(
            json.dumps(
                [
                    [r.pattern.key(), r.stats.a, r.stats.b, r.stats.c, r.stats.d,
                     r.stats.risk, list(r.matched)]
                    for r in results
                ]
            ).encode()
        )
    assert serialized[0] == serialized[1] == serialized[2]

    synth_cfg = {
        "patients": 250, "waves": 5, "features": 5, "event_rate": 0.2,
        "noise_rate": 0.05, "seed": 17,
        "planted": [{
            "groups": [
                [{"feature": "F01", "level": "H", "kind": "start"}],
                [{"feature": "F01", "level": "H", "kind": "finish"}],
            ],
            "frac_events": 0.5, "frac_nonevents": 0.1,
        }],
    }
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(synth_cfg), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--config", str(cfg_path)]) == 0
    outputs = {}
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert main([
            "pipeline",
            "--cohort", str(data / "cohort.csv"),
            "--outcomes", str(data / "outcomes.csv"),
            "--features", str(data / "features.json"),
            "--out-dir", str(out),
            "--minsup", "0.1", "--risk-threshold", "1.3", "--seed", "0",
            "--workers", "2" if run == "r2" else "1",
        ]) == 0
        outputs[run] = {
            name: (out / name).read_bytes()
            for name in ("patterns.json", "matrix.csv", "report.json", "patterns.svg")
        }
    assert outputs["r1"] == outputs["r2"]
    _ok(7, "workers {1,2,8} and pipeline reruns byte-identical")


def test_criterion_8_abstraction_fidelity():
    bmi = bmi_feature()
    suite = [(18.4, "Underweight"), (18.5, "Normal weight"), (25.0, "Overweight"), (30.0, "Obese")]
    for value, level in suite:
        assert abstract_value(value, bmi) == level
    edges = fit_percentiles(range(1, 21), (5, 25, 75, 95))
    assert np.allclose(edges, [1.95, 5.75, 15.25, 19.05], atol=1e-12)

    rng = random.Random(88)
    spec = bmi
    for _ in range(1000):
        waves = rng.randint(1, 8)
        observed = {
            w: round(rng.uniform(15, 40), 1)
            for w in range(1, waves + 1)
            if rng.random() < 0.6
        }
        record = PatientRecord(
            "p", {"bmi": observed}, SurvivalOutcome(float(rng.randint(1, waves)), rng.random() < 0.3)
        )
        cohort = RawCohort(waves, (spec,), (record,))
        once = carry_forward(cohort)
        assert carry_forward(once) == once
    _ok(8, "BMI boundary suite, percentile edges, and LOCF idempotence on 1000 series")
