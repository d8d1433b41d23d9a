"""Synthetic wave-structured cohorts with planted patterns and censoring.

Backgrounds draw each (patient, feature, wave) cell as the normal level,
or, with probability ``noise_rate``, a uniformly chosen non-normal level.
Planted patterns are injected into Bernoulli-sampled carriers at random
admissible wave offsets; the manifest reports each pattern's true 2x2
counts, recounted on the generated cohort's intervals by the miner's store.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .abstraction import AbstractionRule, FeatureSpec, Level, abstract_cohort
from .encoding import (
    Endpoint,
    canonical_form,
    groups_from_payload,
    groups_to_payload,
    pair_endpoints,
    pattern_key,
)
from .errors import ConfigError, PairingError, UndefinedRiskError, typed_setting
from .ingest import Column, RawCohort, SurvivalOutcome
from .miner import _Store, counts_stats, relative_risk

log = logging.getLogger(__name__)

DEFAULT_LEVELS = (
    ("VL", "very_low"),
    ("L", "low"),
    ("N", "normal"),
    ("H", "high"),
    ("VH", "very_high"),
)


@dataclass(frozen=True)
class PlantedPattern:
    groups: tuple[tuple[Endpoint, ...], ...]
    frac_events: float
    frac_nonevents: float

    def __post_init__(self):
        object.__setattr__(self, "groups", canonical_form(self.groups))
        if not 0.0 <= self.frac_events <= 1.0 or not 0.0 <= self.frac_nonevents <= 1.0:
            raise ConfigError("carrier fractions must lie in [0, 1]")
        if not self.groups or any(not g for g in self.groups):
            raise ConfigError("planted pattern needs non-empty groups")

    def key(self) -> str:
        return pattern_key(self.groups)

    def intervals(self) -> list[tuple[str, str, int, int]]:
        """(feature, level, start group, end group) per planted interval."""
        try:
            closed, left_open = pair_endpoints(self.groups)
        except PairingError as exc:
            raise ConfigError(f"ill-formed planted pattern: {exc}") from None
        if left_open:
            raise ConfigError(f"planted pattern leaves intervals open: {sorted(left_open)}")
        return closed


@dataclass(frozen=True)
class SynthConfig:
    patients: int = 200
    waves: int = 5
    features: int = 5
    event_rate: float = 0.15
    noise_rate: float = 0.05
    planted: tuple[PlantedPattern, ...] = ()
    levels: tuple[tuple[str, str], ...] = DEFAULT_LEVELS
    normal_level: str = "N"
    seed: int = 0

    def __post_init__(self):
        if min(self.patients, self.waves, self.features) < 1:
            raise ConfigError("patients, waves and features must all be >= 1")
        if not 0.0 <= self.event_rate <= 1.0 or not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigError("rates must lie in [0, 1]")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        names = [name for name, _ in self.levels]
        if self.normal_level not in names:
            raise ConfigError(f"normal level {self.normal_level!r} not in the level alphabet")
        for pat in self.planted:
            if len(pat.groups) > self.waves:
                raise ConfigError(
                    f"planted pattern {pat.key()} has more groups than there are waves"
                )

    def feature_names(self) -> list[str]:
        return [f"F{i + 1:02d}" for i in range(self.features)]


def _feature_specs(config: SynthConfig) -> list[FeatureSpec]:
    levels = tuple(Level(name, sev) for name, sev in config.levels)
    specs = []
    for name in config.feature_names():
        specs.append(
            FeatureSpec(
                name=name,
                kind="categorical",
                rule=AbstractionRule(
                    method="categorical",
                    categories={lv.name: lv.name for lv in levels},
                ),
                levels=levels,
                normal_level=config.normal_level,
            )
        )
    return specs


def _validate_planted(config: SynthConfig) -> None:
    names = set(config.feature_names())
    level_names = {name for name, _ in config.levels}
    for pat in config.planted:
        spans: dict[str, list[tuple[int, int]]] = {}
        for feature, level, gs, ge in pat.intervals():
            if feature not in names:
                raise ConfigError(f"planted pattern uses unknown feature {feature!r}")
            if level not in level_names:
                raise ConfigError(f"planted pattern uses unknown level {level!r}")
            if level == config.normal_level:
                raise ConfigError("planted patterns cannot use the normal level")
            for s, e in spans.get(feature, []):
                if not (ge < s or gs > e):
                    raise ConfigError(
                        f"planted pattern has overlapping {feature!r} intervals"
                    )
            spans.setdefault(feature, []).append((gs, ge))


def generate(config: SynthConfig):
    """Generate (cohort, feature specs, ground-truth manifest), seeded."""
    _validate_planted(config)
    rng = np.random.default_rng(config.seed)
    n, w = config.patients, config.waves
    feature_names = config.feature_names()

    events = rng.random(n) < config.event_rate
    times = np.where(events, rng.integers(1, w + 1, size=n), w).astype(np.int64)

    # background level grid of level codes, (feature, patient, wave)
    names = tuple(name for name, _ in config.levels)
    normal = names.index(config.normal_level)
    non_normal = [code for code in range(len(names)) if code != normal]
    noisy = rng.random((config.features, n, w)) < config.noise_rate
    picks = rng.integers(0, max(len(non_normal), 1), size=(config.features, n, w))
    grid = np.full((config.features, n, w), normal, dtype=np.intp)
    if non_normal:
        alt = np.array(non_normal, dtype=np.intp)[picks]
        grid[noisy] = alt[noisy]

    fidx = {name: i for i, name in enumerate(feature_names)}
    claimed: list[set[tuple[int, int]]] = [set() for _ in range(n)]
    carrier_ids: list[list[int]] = []
    for pat in config.planted:
        k = len(pat.groups)
        template = [(fidx[f], names.index(lv), gs, ge) for f, lv, gs, ge in pat.intervals()]
        carriers = []
        for pidx in range(n):
            frac = pat.frac_events if events[pidx] else pat.frac_nonevents
            if rng.random() >= frac:
                continue
            if times[pidx] < k:
                # keep the configured carrier fraction: give the carrier a
                # horizon long enough to hold the pattern
                times[pidx] = int(rng.integers(k, w + 1))
            if _inject(rng, grid[:, pidx], claimed[pidx], template, k, int(times[pidx]), normal):
                carriers.append(pidx)
            else:
                log.warning("could not place pattern %s for patient %d", pat.key(), pidx)
        carrier_ids.append(carriers)

    ids = [f"S{idx + 1:04d}" for idx in range(n)]
    # each patient's cells run from wave 1 to its outcome wave, in every feature
    row = np.repeat(np.arange(n), times)
    wave = np.arange(row.size) - np.repeat(np.cumsum(times) - times, times) + 1
    columns = {
        name: Column(row, wave, grid[f, row, wave - 1], names)
        for f, name in enumerate(feature_names)
    }
    outcomes = [SurvivalOutcome(time=float(t), event=bool(e)) for t, e in zip(times, events)]
    specs = _feature_specs(config)
    cohort = RawCohort(w, specs, ids, outcomes, columns)
    manifest = _manifest(config, cohort, specs, carrier_ids, ids)
    return cohort, specs, manifest


def _inject(rng, cells_of, claimed, template, k, horizon, normal) -> bool:
    """Write a (feature, code, start group, end group) template into unclaimed cells."""
    for _try in range(20):
        offsets = np.sort(rng.choice(horizon, size=k, replace=False)) + 1
        cells: dict[tuple[int, int], int] = {}
        for f, code, gs, ge in template:
            for wave in range(int(offsets[gs]), int(offsets[ge]) + 1):
                cells[(f, wave)] = code
        if any(cell in claimed for cell in cells):
            continue
        # protect interval boundaries from merging with equal background noise
        guards = set()
        for f, _code, gs, ge in template:
            for wave in (int(offsets[gs]) - 1, int(offsets[ge]) + 1):
                if 1 <= wave <= horizon and (f, wave) not in cells:
                    guards.add((f, wave))
        if any(cell in claimed for cell in guards):
            continue
        for (f, wave), code in cells.items():
            cells_of[f, wave - 1] = code
        for f, wave in guards:
            cells_of[f, wave - 1] = normal
        claimed.update(cells)
        claimed.update(guards)
        return True
    return False


def _manifest(config, cohort, specs, carrier_ids, ids):
    store = _Store.from_intervals(abstract_cohort(cohort, specs))
    n, n_events = store.n, store.n_events
    entries = []
    for pat, planted_carriers in zip(config.planted, carrier_ids):
        matched = store.carriers(pat.groups)
        a = int(np.count_nonzero(store.event[matched]))
        b, c = len(matched) - a, n_events - a
        stats = counts_stats(a, b, c, n - a - b - c)
        try:
            rr = relative_risk(stats)
        except UndefinedRiskError:
            rr = None
        entries.append(
            {
                "key": pat.key(),
                "groups": groups_to_payload(pat.groups),
                "frac_events": pat.frac_events,
                "frac_nonevents": pat.frac_nonevents,
                "a": a,
                "b": b,
                "c": c,
                "d": stats.d,
                "rr": rr,
                "support_pop": stats.support_pop,
                "support_event": stats.support_event,
                "planted_carrier_ids": [ids[i] for i in planted_carriers],
                "matched_ids": sorted(store.ids[i] for i in matched),
            }
        )
    return {
        "seed": config.seed,
        "patients": config.patients,
        "waves": config.waves,
        "features": config.features,
        "event_rate": config.event_rate,
        "noise_rate": config.noise_rate,
        "event_count": n_events,
        "censoring_rate": 1.0 - n_events / n,
        "patterns": entries,
    }


def parse_synth_config(doc: dict) -> SynthConfig:
    """Build a SynthConfig from its JSON form; a malformed one raises ConfigError."""
    try:
        planted = tuple(
            PlantedPattern(
                groups=groups_from_payload(p["groups"]),
                frac_events=float(p["frac_events"]),
                frac_nonevents=float(p["frac_nonevents"]),
            )
            for p in doc.get("planted", [])
        )
        kwargs = {
            key: doc[key] for key in ("event_rate", "noise_rate", "normal_level") if key in doc
        }
        kwargs.update(
            (key, typed_setting(int, key, doc[key]))
            for key in ("patients", "waves", "features", "seed")
            if key in doc
        )
        if "levels" in doc:
            kwargs["levels"] = tuple((lv["name"], lv["severity"]) for lv in doc["levels"])
        return SynthConfig(planted=planted, **kwargs)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad synth config: {exc!r}") from None
