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
from itertools import repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DegenerateDistributionError, FitError, MappingError, utf8_text

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


class StateInterval(NamedTuple):
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
    if isinstance(values, np.ndarray):
        vals = np.sort(values.astype(float))
    else:
        vals = np.asarray(sorted(values), dtype=float)
    if vals.size == 0:
        raise FitError("cannot fit percentiles on an empty value set")
    if not np.isfinite(vals).all():
        raise FitError("cannot fit percentiles on non-finite values")
    if vals[0] == vals[-1]:
        raise DegenerateDistributionError("all values identical: zero spread")
    edges = _linear_percentiles(vals, points)
    if any(e2 <= e1 for e1, e2 in zip(edges, edges[1:])):
        raise DegenerateDistributionError("percentile edges collapsed: empty bin")
    return edges


def _linear_percentiles(vals: np.ndarray, points: Sequence[float]) -> np.ndarray:
    """``np.percentile(vals, points, method="linear")`` of sorted ``vals``, op for op.

    numpy's own call imports ``numpy.ma`` (about 10 ms) through ``np.unique``.
    """
    n = vals.size
    at = (n - 1) * np.true_divide(points, 100)
    low = np.minimum(np.floor(at), n - 1).astype(np.intp)
    a, b = vals[low], vals[np.minimum(low + 1, n - 1)]
    gamma = at - low
    diff = b - a
    edges = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=edges, where=gamma >= 0.5)
    return edges


def _level_names(rule: AbstractionRule) -> tuple[str, ...]:
    """The level names that ``_level_codes`` indexes, in code order."""
    if rule.method == "categorical":
        return tuple(dict.fromkeys(rule.categories.values()))
    return rule.levels


def _level_codes(spec: FeatureSpec, values: Sequence, edges: np.ndarray | None) -> np.ndarray:
    """Level code of each raw, non-missing value; -1 for a category the rule does not list."""
    rule = spec.rule
    if rule.method == "categorical":
        names = _level_names(rule)
        code_of = {category: names.index(level) for category, level in rule.categories.items()}
        if isinstance(values, np.ndarray):
            values = values.tolist()
        return np.fromiter(
            map(code_of.get, values, repeat(-1)), dtype=np.intp, count=len(values)
        )
    if rule.method == "cutoffs":
        bin_edges = rule.bounds
    else:
        if edges is None:
            raise ConfigError(f"feature {spec.name!r}: percentile rule used without fitted edges")
        bin_edges = edges
    return np.searchsorted(bin_edges, np.asarray(values, dtype=float), side="right")


def _unlisted(spec: FeatureSpec, value) -> MappingError:
    return MappingError(f"feature {spec.name!r}: category {value!r} not listed in the rule")


def abstract_value(value, spec: FeatureSpec, edges: np.ndarray | None = None) -> str:
    """Assign the level name for one raw, non-missing value."""
    code = int(_level_codes(spec, [value], edges)[0])
    if code < 0:
        raise _unlisted(spec, value)
    return _level_names(spec.rule)[code]


# a table of at most one cell per run holds less than the lexsort's arrays and takes a
# seventh of its time (216,702 random runs, one cell per run: 5.4 ms and 6.0 MB traced,
# against 39 ms and 8.0 MB)
_TABLE_CELLS_PER_RUN = 1


def _distinct_runs(label, start, end) -> tuple[np.ndarray, np.ndarray]:
    """Code each run by its distinct (label, start, end): an index of one run per code, the codes.

    Codes follow the triples' order; a code's index may be any of its runs,
    as they all hold the same triple.  When there are no more labels x wave
    span^2 cells than ``_TABLE_CELLS_PER_RUN`` per run, each triple is one
    cell of a dense table and a code is the rank of its cell among those
    taken.  Otherwise the runs are sorted by the triple and a code starts
    wherever it changes, whatever the waves' range.
    """
    if label.size:
        lo = min(int(start.min()), int(end.min()))
        span = max(int(start.max()), int(end.max())) - lo + 1
        cells = (int(label.max()) + 1) * span * span
        if cells <= _TABLE_CELLS_PER_RUN * label.size:
            cell = (label.astype(np.intp) * span + (start - lo)) * span + (end - lo)
            taken = np.zeros(cells, dtype=bool)
            taken[cell] = True
            code = np.cumsum(taken)[cell] - 1
            at = np.empty(int(np.count_nonzero(taken)), dtype=np.intp)
            at[code] = np.arange(cell.size)
            return at, code
    order = np.lexsort((end, start, label))
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for field in (label, start, end):
        ordered = field[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    code = np.empty(order.size, dtype=np.intp)
    code[order] = np.cumsum(new) - 1
    return order[new], code


def _intervals_by_row(
    columns: Mapping,
    specs: Sequence[FeatureSpec],
    edges_by_feature: Mapping[str, np.ndarray],
) -> tuple[tuple[StateInterval, ...], np.ndarray, np.ndarray]:
    """Abstract each row's series into dictionary-encoded state intervals.

    ``columns`` maps feature names to ``ingest.Column``s.  Each feature's
    column is coded with one ``_level_codes`` call (over its distinct values
    when it has a category table) and split into runs where the row or the
    level changes or a wave is skipped; a column with no cell gives no run.
    The runs' rows, labels and waves stay int32 (waves int64 only past
    int32's range).  Returns the distinct intervals and, per interval, its
    row and its index among them as intp arrays: rows ascending, a row's
    intervals in ``specs`` order, each feature's by wave.
    """
    run_rows, run_labels, run_starts, run_ends = [], [], [], []
    labels: list[tuple[str, str]] = []  # (feature, level) per label code
    unlisted = []  # (row, spec index, value) of each feature's first unlisted category
    for spec_index, spec in enumerate(specs):
        name = spec.name
        column = columns.get(name)
        if column is None or not column.row.size:
            continue
        row, wave = column.row, column.wave
        edges = edges_by_feature.get(name)
        if column.categories is None:
            codes = _level_codes(spec, column.values, edges)
        else:
            codes = _level_codes(spec, column.categories, edges)[column.values]
        bad = np.flatnonzero(codes < 0)
        if bad.size:
            first = int(bad[0])
            unlisted.append((int(row[first]), spec_index, column.value(first)))
            continue
        brk = np.ones(len(wave), dtype=bool)
        # an int32 wave + 1 wraps only at MAX_WAVE, a row's last wave, where the row breaks anyway
        brk[1:] = (row[1:] != row[:-1]) | (codes[1:] != codes[:-1]) | (wave[1:] != wave[:-1] + 1)
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], len(wave)) - 1
        run_rows.append(row[starts])
        run_labels.append((codes[starts] + len(labels)).astype(np.int32))
        run_starts.append(wave[starts])
        run_ends.append(wave[ends])
        labels.extend((name, level) for level in _level_names(spec.rule))
    if unlisted:
        # the error a patient-by-patient pass would meet first
        _row, spec_index, value = min(unlisted, key=lambda u: u[:2])
        raise _unlisted(specs[spec_index], value)
    if not run_rows:
        return (), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    row, label, start, end = map(np.concatenate, (run_rows, run_labels, run_starts, run_ends))
    del run_rows, run_labels, run_starts, run_ends  # a second copy of every run
    at, code = _distinct_runs(label, start, end)
    table = tuple(
        StateInterval(*labels[lb], s, e)
        for lb, s, e in zip(label[at].tolist(), start[at].tolist(), end[at].tolist())
    )
    order = np.argsort(row, kind="stable")
    return table, row[order].astype(np.intp, copy=False), code[order]


def build_intervals(
    values: Mapping[str, Mapping[int, object]],
    specs: Sequence[FeatureSpec],
    edges_by_feature: Mapping[str, np.ndarray] | None = None,
) -> list[StateInterval]:
    """Abstract one patient's (carry-forwarded) series into state intervals.

    Maximal runs of the same level over consecutive waves become one interval;
    a gap in observation breaks the run even if the level matches.
    """
    from .ingest import series_columns

    columns = series_columns([values], specs)
    table, _row, code = _intervals_by_row(columns, specs, edges_by_feature or {})
    return [table[c] for c in code.tolist()]


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
        column = cohort.columns.get(spec.name)
        if column is None:
            pooled = []
        else:
            pooled = column.values if column.categories is None else column.raw()
        try:
            edges[spec.name] = fit_percentiles(pooled, spec.rule.bounds)
        except FitError as exc:
            log.warning("feature %r excluded from mining: %s", spec.name, exc)
            continue
        usable.append(spec)
    return edges, usable


def abstract_cohort(cohort, specs: Sequence[FeatureSpec]):
    """Abstract a carry-forwarded cohort into per-patient state intervals."""
    from .encoding import CohortIntervals

    edges, usable = fit_cohort_edges(cohort, specs)
    severities = {
        spec.name: {lv.name: lv.severity for lv in spec.levels} for spec in usable
    }
    table, row, code = _intervals_by_row(cohort.columns, usable, edges)
    outcomes = cohort.patient_outcomes
    return CohortIntervals.from_table(
        cohort.wave_count,
        severities,
        {name: [float(e) for e in arr] for name, arr in edges.items()},
        table,
        row,
        code,
        cohort.patient_ids,
        [o.time for o in outcomes],
        [o.event for o in outcomes],
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


@utf8_text(ConfigError, "the feature config")
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
