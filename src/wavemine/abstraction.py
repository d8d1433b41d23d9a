"""Discretization of raw feature values into named levels and state intervals.

A feature is abstracted by one of four rule methods:

* ``cutoffs``            -- fixed raw-value upper bounds (e.g. BMI categories),
* ``percentiles``        -- the standard 5/25/75/95 percentile split into
                            Very low / Low / Normal / High / Very High,
* ``custom_percentiles`` -- user-chosen percentile points and level names,
* ``categorical``        -- explicit category-to-level mapping.

Bins are half-open ``[lower, upper)``; the final bin is closed above.
Consecutive waves with the same level are merged into one state interval.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DegenerateDistributionError, FitError, MappingError

log = logging.getLogger(__name__)

SEVERITIES = ("very_low", "low", "normal", "high", "very_high", "other")

PERCENTILE_POINTS = (5.0, 25.0, 75.0, 95.0)
PERCENTILE_LEVELS = (
    ("Very low (VL)", "very_low"),
    ("Low (L)", "low"),
    ("Normal (N)", "normal"),
    ("High (H)", "high"),
    ("Very High (VH)", "very_high"),
)


@dataclass(frozen=True)
class Level:
    name: str
    severity: str = "other"


@dataclass(frozen=True)
class StateInterval:
    """One abstracted patient state holding over a contiguous wave span."""

    feature: str
    level: str
    start: int
    end: int


@dataclass(frozen=True)
class AbstractionRule:
    """How raw values map to level names.

    ``bounds`` are raw-value upper bounds for ``cutoffs`` and percentile
    points in (0, 100) for the percentile methods; ``levels`` has one more
    entry than ``bounds`` and names the bins in order.  ``categories`` maps
    raw categorical values to level names.
    """

    method: str
    bounds: tuple[float, ...] = ()
    levels: tuple[str, ...] = ()
    categories: Mapping[str, str] | None = None

    def __post_init__(self):
        if self.method not in ("cutoffs", "percentiles", "custom_percentiles", "categorical"):
            raise ConfigError(f"unknown abstraction method {self.method!r}")
        if self.method == "categorical":
            if not self.categories:
                raise ConfigError("categorical rule needs a categories mapping")
            return
        if len(self.levels) != len(self.bounds) + 1:
            raise ConfigError(
                f"{self.method} rule needs exactly {len(self.bounds) + 1} levels "
                f"for {len(self.bounds)} bounds, got {len(self.levels)}"
            )
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ConfigError("rule bounds must be strictly increasing")
        if self.method in ("percentiles", "custom_percentiles"):
            if any(not 0.0 < p < 100.0 for p in self.bounds):
                raise ConfigError("percentile points must lie strictly inside (0, 100)")

    @property
    def needs_fit(self) -> bool:
        return self.method in ("percentiles", "custom_percentiles")


@dataclass(frozen=True)
class FeatureSpec:
    """One feature of the cohort: value kind, abstraction rule, level severities."""

    name: str
    kind: str  # continuous | discrete | categorical
    rule: AbstractionRule
    levels: tuple[Level, ...]
    normal_level: str | None = None

    def __post_init__(self):
        if self.kind not in ("continuous", "discrete", "categorical"):
            raise ConfigError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        names = [lv.name for lv in self.levels]
        if len(set(names)) != len(names):
            raise ConfigError(f"feature {self.name!r}: duplicate level names")
        if self.normal_level is not None and self.normal_level not in names:
            raise ConfigError(
                f"feature {self.name!r}: normal_level {self.normal_level!r} is not a defined level"
            )
        for lv in self.levels:
            if lv.severity not in SEVERITIES:
                raise ConfigError(f"feature {self.name!r}: unknown severity {lv.severity!r}")

    def severity_of(self, level_name: str) -> str:
        for lv in self.levels:
            if lv.name == level_name:
                return lv.severity
        return "other"


def fit_percentiles(values: Iterable[float], points: Sequence[float]) -> np.ndarray:
    """Fit percentile bin edges over the pooled values.

    Uses linear interpolation between order statistics: the p-th percentile
    sits at rank 1 + (n - 1) * p / 100.
    """
    vals = np.asarray(sorted(values), dtype=float)
    if vals.size == 0:
        raise FitError("cannot fit percentiles on an empty value set")
    if vals[0] == vals[-1]:
        raise DegenerateDistributionError("all values identical: zero spread")
    edges = np.percentile(vals, points, method="linear")
    if any(e2 <= e1 for e1, e2 in zip(edges, edges[1:])):
        raise DegenerateDistributionError("percentile edges collapsed: empty bin")
    return edges


def abstract_value(value, spec: FeatureSpec, edges: np.ndarray | None = None) -> str:
    """Assign the level name for one raw, non-missing value."""
    rule = spec.rule
    if rule.method == "categorical":
        try:
            return rule.categories[value]
        except KeyError:
            raise MappingError(
                f"feature {spec.name!r}: category {value!r} not listed in the rule"
            ) from None
    if rule.method == "cutoffs":
        bin_edges = rule.bounds
    else:
        if edges is None:
            raise ConfigError(f"feature {spec.name!r}: percentile rule used without fitted edges")
        bin_edges = edges
    idx = int(np.searchsorted(bin_edges, float(value), side="right"))
    return rule.levels[idx]


def build_intervals(
    values: Mapping[str, Mapping[int, object]],
    specs: Sequence[FeatureSpec],
    edges_by_feature: Mapping[str, np.ndarray] | None = None,
) -> list[StateInterval]:
    """Abstract one patient's (carry-forwarded) series into state intervals.

    Maximal runs of the same level over consecutive waves become one interval;
    a gap in observation breaks the run even if the level matches.
    """
    edges_by_feature = edges_by_feature or {}
    out: list[StateInterval] = []
    for spec in specs:
        series = values.get(spec.name)
        if not series:
            continue
        edges = edges_by_feature.get(spec.name)
        run_level = None
        run_start = run_end = 0
        for wave in sorted(series):
            level = abstract_value(series[wave], spec, edges)
            if run_level is not None and level == run_level and wave == run_end + 1:
                run_end = wave
                continue
            if run_level is not None:
                out.append(StateInterval(spec.name, run_level, run_start, run_end))
            run_level, run_start, run_end = level, wave, wave
        if run_level is not None:
            out.append(StateInterval(spec.name, run_level, run_start, run_end))
    return out


def fit_cohort_edges(cohort, specs: Sequence[FeatureSpec]):
    """Fit percentile edges per feature over all pooled patient/wave values.

    Returns (edges_by_feature, usable_specs).  Features whose distribution is
    degenerate are excluded from abstraction with a warning.
    """
    edges: dict[str, np.ndarray] = {}
    usable: list[FeatureSpec] = []
    for spec in specs:
        if not spec.rule.needs_fit:
            usable.append(spec)
            continue
        pooled = [
            v
            for patient in cohort.patients
            for v in patient.values.get(spec.name, {}).values()
        ]
        try:
            edges[spec.name] = fit_percentiles(pooled, spec.rule.bounds)
        except FitError as exc:
            log.warning("feature %r excluded from mining: %s", spec.name, exc)
            continue
        usable.append(spec)
    return edges, usable


def abstract_cohort(cohort, specs: Sequence[FeatureSpec]):
    """Abstract a carry-forwarded cohort into per-patient state intervals."""
    from .encoding import CohortIntervals, PatientIntervals

    edges, usable = fit_cohort_edges(cohort, specs)
    severities = {
        spec.name: {lv.name: lv.severity for lv in spec.levels} for spec in usable
    }
    patients = []
    for record in cohort.patients:
        intervals = build_intervals(record.values, usable, edges)
        patients.append(
            PatientIntervals(
                patient_id=record.patient_id,
                time=record.outcome.time,
                event=record.outcome.event,
                intervals=tuple(intervals),
            )
        )
    fitted = {name: [float(e) for e in arr] for name, arr in edges.items()}
    return CohortIntervals(
        wave_count=cohort.wave_count,
        levels=severities,
        patients=tuple(patients),
        edges=fitted,
    )


def _percentile_levels() -> tuple[Level, ...]:
    return tuple(Level(name, sev) for name, sev in PERCENTILE_LEVELS)


def percentile_feature(name: str, kind: str = "continuous") -> FeatureSpec:
    """Built-in default: the 5/25/75/95 percentile rule with standard severities."""
    return FeatureSpec(
        name=name,
        kind=kind,
        rule=AbstractionRule(
            method="percentiles",
            bounds=PERCENTILE_POINTS,
            levels=tuple(name for name, _ in PERCENTILE_LEVELS),
        ),
        levels=_percentile_levels(),
        normal_level="Normal (N)",
    )


def bmi_feature(name: str = "bmi") -> FeatureSpec:
    """Built-in default: adult BMI categories (CDC reference values)."""
    return FeatureSpec(
        name=name,
        kind="continuous",
        rule=AbstractionRule(
            method="cutoffs",
            bounds=(18.5, 25.0, 30.0),
            levels=("Underweight", "Normal weight", "Overweight", "Obese"),
        ),
        levels=(
            Level("Underweight", "low"),
            Level("Normal weight", "normal"),
            Level("Overweight", "high"),
            Level("Obese", "very_high"),
        ),
        normal_level="Normal weight",
    )


def load_feature_config(source) -> list[FeatureSpec]:
    """Parse the feature-config JSON document (path, stream, or parsed list)."""
    try:
        if isinstance(source, (str, bytes)):
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        elif hasattr(source, "read"):
            doc = json.load(source)
        else:
            doc = source
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad feature config JSON: {exc}") from None
    if not isinstance(doc, list):
        raise ConfigError("feature config must be a JSON array of feature objects")
    specs = []
    seen = set()
    for entry in doc:
        spec = _feature_from_dict(entry)
        if spec.name in seen:
            raise ConfigError(f"duplicate feature name {spec.name!r}")
        seen.add(spec.name)
        specs.append(spec)
    return specs


def feature_config_payload(specs: Sequence[FeatureSpec]) -> list[dict]:
    """Serialize feature specs back to the config JSON shape."""
    out = []
    for spec in specs:
        entry: dict = {"name": spec.name, "kind": spec.kind, "method": spec.rule.method}
        if spec.rule.method == "cutoffs":
            entry["cutoffs"] = [
                {"upper": b, "level": lv} for b, lv in zip(spec.rule.bounds, spec.rule.levels)
            ] + [{"level": spec.rule.levels[-1]}]
        elif spec.rule.method == "custom_percentiles":
            entry["percentiles"] = [
                {"pct": p, "level": lv} for p, lv in zip(spec.rule.bounds, spec.rule.levels)
            ] + [{"level": spec.rule.levels[-1]}]
        elif spec.rule.method == "categorical":
            entry["categories"] = dict(spec.rule.categories)
        entry["levels"] = [{"name": lv.name, "severity": lv.severity} for lv in spec.levels]
        if spec.normal_level is not None:
            entry["normal_level"] = spec.normal_level
        out.append(entry)
    return out


def _feature_from_dict(entry: Mapping) -> FeatureSpec:
    if not isinstance(entry, Mapping):
        raise ConfigError(f"feature entry must be a JSON object, got {entry!r}")
    try:
        name = entry["name"]
        kind = entry["kind"]
        method = entry["method"]
    except KeyError as exc:
        raise ConfigError(f"feature entry missing required field {exc}") from None
    normal_level = entry.get("normal_level")

    if method == "percentiles":
        base = percentile_feature(name, kind)
        if normal_level is None and "levels" not in entry:
            return base
        rule = base.rule
        level_names = rule.levels
    elif method in ("cutoffs", "custom_percentiles"):
        key, bound = ("cutoffs", "upper") if method == "cutoffs" else ("percentiles", "pct")
        pairs = entry.get(key)
        if not pairs:
            raise ConfigError(f"feature {name!r}: {method} method needs a {key} list")
        if not isinstance(pairs, list) or not all(
            isinstance(p, Mapping) and "level" in p for p in pairs
        ):
            raise ConfigError(
                f"feature {name!r}: each {key} entry must be an object with a level"
            )
        try:
            bounds = tuple(float(p[bound]) for p in pairs if bound in p)
        except (TypeError, ValueError):
            raise ConfigError(f"feature {name!r}: {bound!r} must be a number") from None
        level_names = tuple(p["level"] for p in pairs)
        if len(level_names) != len(bounds) + 1:
            raise ConfigError(f"feature {name!r}: {key} must end with one level without {bound!r}")
        rule = AbstractionRule(method=method, bounds=bounds, levels=level_names)
    elif method == "categorical":
        categories = entry.get("categories")
        if not categories:
            raise ConfigError(f"feature {name!r}: categorical method needs a categories mapping")
        rule = AbstractionRule(method="categorical", categories=dict(categories))
        level_names = tuple(dict.fromkeys(categories.values()))
    else:
        raise ConfigError(f"feature {name!r}: unknown method {method!r}")

    declared = {lv["name"]: lv.get("severity", "other") for lv in entry.get("levels", [])}
    unknown = set(declared) - set(level_names)
    if unknown:
        raise ConfigError(f"feature {name!r}: levels {sorted(unknown)} not produced by the rule")
    levels = []
    for lname in level_names:
        severity = declared.get(lname, "other")
        if normal_level == lname:
            severity = "normal"
        levels.append(Level(lname, severity))
    return FeatureSpec(
        name=name, kind=kind, rule=rule, levels=tuple(levels), normal_level=normal_level
    )
