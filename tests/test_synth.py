import io
import math

import pytest

from wavemine.abstraction import abstract_cohort
from wavemine.errors import ConfigError
from wavemine.ingest import write_cohort_csv, write_outcomes_csv
from wavemine.miner import MinerConfig, _Store, counts_stats, mine, relative_risk
from wavemine.synth import PlantedPattern, SynthConfig, generate, parse_synth_config

from util import ep, sequences

SPAN_PATTERN = PlantedPattern(
    groups=((ep("F01", "H", "+"),), (ep("F01", "H", "-"),)),
    frac_events=0.6,
    frac_nonevents=0.1,
)


def _config(**kwargs):
    base = dict(
        patients=300,
        waves=5,
        features=4,
        event_rate=0.2,
        noise_rate=0.05,
        planted=(SPAN_PATTERN,),
        seed=7,
    )
    base.update(kwargs)
    return SynthConfig(**base)


def test_generate_deterministic_for_seed():
    one = generate(_config())
    two = generate(_config())
    assert one[0] == two[0]
    assert one[2] == two[2]
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_cohort_csv(one[0], buf1)
    write_cohort_csv(two[0], buf2)
    assert buf1.getvalue() == buf2.getvalue()
    out1, out2 = io.StringIO(), io.StringIO()
    write_outcomes_csv(one[0].outcomes(), out1)
    write_outcomes_csv(two[0].outcomes(), out2)
    assert out1.getvalue() == out2.getvalue()
    assert generate(_config(seed=8))[2] != one[2]


def test_manifest_counts_match_containment_recount():
    cohort, specs, manifest = generate(_config(noise_rate=0.1))
    doc = abstract_cohort(cohort, specs)
    entry = manifest["patterns"][0]
    # the reference store, built from each patient's encoded sequence
    carriers = _Store(sequences(doc)).carriers(SPAN_PATTERN.groups)
    a = sum(doc.events[i] for i in carriers)
    assert entry["a"] == a
    assert entry["a"] + entry["b"] == len(carriers)
    assert entry["rr"] == pytest.approx(
        relative_risk(counts_stats(entry["a"], entry["b"], entry["c"], entry["d"])), abs=1e-15
    )


def test_carrier_fractions_within_three_sigma():
    cohort, specs, manifest = generate(
        _config(patients=1000, noise_rate=0.0, seed=13)
    )
    entry = manifest["patterns"][0]
    events = entry["a"] + entry["c"]
    non_events = entry["b"] + entry["d"]
    for observed, group_n, frac in (
        (entry["a"], events, SPAN_PATTERN.frac_events),
        (entry["b"], non_events, SPAN_PATTERN.frac_nonevents),
    ):
        sigma = math.sqrt(frac * (1 - frac) / group_n)
        assert abs(observed / group_n - frac) <= 3 * sigma


def test_miner_recovers_planted_key():
    # a pinch of background noise supplies the contrast the strict
    # risk-increase growth rule needs to close the planted interval
    cohort, specs, manifest = generate(
        SynthConfig(
            patients=400,
            waves=5,
            features=3,
            event_rate=0.25,
            noise_rate=0.05,
            planted=(
                PlantedPattern(
                    groups=SPAN_PATTERN.groups, frac_events=0.6, frac_nonevents=0.0
                ),
            ),
            seed=3,
        )
    )
    doc = abstract_cohort(cohort, specs)
    results = mine(doc, MinerConfig(minsup=0.1, risk_sup=1.2))
    keys = {r.pattern.key() for r in results}
    assert manifest["patterns"][0]["key"] in keys


def test_pattern_longer_than_waves_rejected():
    tall = PlantedPattern(
        groups=(
            (ep("F01", "H", "+"),),
            (ep("F01", "H", "-"),),
            (ep("F02", "L", "+"),),
            (ep("F02", "L", "-"),),
        ),
        frac_events=0.5,
        frac_nonevents=0.1,
    )
    with pytest.raises(ConfigError):
        SynthConfig(patients=10, waves=3, features=2, planted=(tall,))


def test_planted_validation():
    with pytest.raises(ConfigError):
        generate(_config(planted=(
            PlantedPattern(
                groups=((ep("F99", "H", "+"),), (ep("F99", "H", "-"),)),
                frac_events=0.5,
                frac_nonevents=0.1,
            ),
        )))
    with pytest.raises(ConfigError):
        generate(_config(planted=(
            PlantedPattern(
                groups=((ep("F01", "N", "+"),), (ep("F01", "N", "-"),)),
                frac_events=0.5,
                frac_nonevents=0.1,
            ),
        )))


def test_event_times_within_waves_and_censored_at_end():
    cohort, _, _ = generate(_config())
    for record in cohort.patients:
        if record.outcome.event:
            assert 1 <= record.outcome.time <= cohort.wave_count
        else:
            assert record.outcome.time == cohort.wave_count


def test_synth_config_json_round_trip():
    doc = {
        "patients": 50,
        "waves": 4,
        "features": 3,
        "event_rate": 0.3,
        "noise_rate": 0.02,
        "seed": 9,
        "planted": [
            {
                "groups": [
                    [{"feature": "F01", "level": "H", "kind": "start"}],
                    [{"feature": "F01", "level": "H", "kind": "finish"}],
                ],
                "frac_events": 0.5,
                "frac_nonevents": 0.05,
            }
        ],
    }
    config = parse_synth_config(doc)
    assert config.patients == 50
    assert config.planted[0].groups == SPAN_PATTERN.groups
    cohort, _, manifest = generate(config)
    assert len(cohort.patients) == 50
    assert manifest["patterns"][0]["key"] == "(F01=H+)->(F01=H-)"
