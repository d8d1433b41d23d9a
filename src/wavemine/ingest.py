"""Parsing of wave-structured cohort data and carry-forward imputation.

Input formats:

* cohort CSV, long format, header ``patient_id,wave,feature,value``
  (empty value = missing),
* outcome CSV, header ``patient_id,time,event`` with event in {0, 1}.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import IO, Mapping, Sequence

from .abstraction import FeatureSpec
from .errors import CellConflictError, CohortParseError, CohortValidationError

COHORT_HEADER = ("patient_id", "wave", "feature", "value")
OUTCOME_HEADER = ("patient_id", "time", "event")


@dataclass(frozen=True)
class SurvivalOutcome:
    """Event or censoring wave: event=False means censored at ``time``."""

    time: float
    event: bool


@dataclass(frozen=True)
class PatientRecord:
    patient_id: str
    values: Mapping[str, Mapping[int, object]]  # feature -> wave -> raw value
    outcome: SurvivalOutcome


@dataclass(frozen=True)
class RawCohort:
    wave_count: int
    features: tuple[FeatureSpec, ...]
    patients: tuple[PatientRecord, ...]

    @property
    def censoring_rate(self) -> float:
        if not self.patients:
            return 0.0
        censored = sum(1 for p in self.patients if not p.outcome.event)
        return censored / len(self.patients)

    def outcomes(self) -> dict[str, SurvivalOutcome]:
        return {p.patient_id: p.outcome for p in self.patients}


def parse_outcomes(stream: IO[str]) -> dict[str, SurvivalOutcome]:
    """Parse the outcome CSV into a patient_id -> SurvivalOutcome map."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != OUTCOME_HEADER:
        raise CohortParseError(
            f"outcome header must be exactly {','.join(OUTCOME_HEADER)}", line=1
        )
    out: dict[str, SurvivalOutcome] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise CohortParseError(f"expected 3 fields, got {len(row)}", line=lineno)
        pid, time_s, event_s = (f.strip() for f in row)
        if pid in out:
            raise CellConflictError(f"line {lineno}: duplicate outcome for patient {pid!r}")
        try:
            time = float(time_s)
        except ValueError:
            raise CohortParseError(f"bad time value {time_s!r}", line=lineno) from None
        if not math.isfinite(time) or time < 1:
            raise CohortParseError(f"time must be >= 1, got {time_s!r}", line=lineno)
        if event_s not in ("0", "1"):
            raise CohortParseError(f"event must be 0 or 1, got {event_s!r}", line=lineno)
        out[pid] = SurvivalOutcome(time=time, event=event_s == "1")
    return out


def parse_cohort(
    stream: IO[str],
    features: Sequence[FeatureSpec],
    outcomes: Mapping[str, SurvivalOutcome],
    wave_count: int | None = None,
) -> RawCohort:
    """Parse the long-format cohort CSV into a RawCohort.

    Every patient appearing in the data or the outcome map becomes one
    PatientRecord; a data patient without an outcome is a validation error.
    Features are ordered by name and each series by wave.  Numeric cells
    must be finite.
    """
    by_name = {spec.name: spec for spec in features}
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != COHORT_HEADER:
        raise CohortParseError(
            f"cohort header must be exactly {','.join(COHORT_HEADER)}", line=1
        )
    isfinite = math.isfinite
    wave_of: dict[str, int] = {}  # wave cell -> validated wave index
    feature_of: dict[str, tuple[str, bool]] = {}  # feature cell -> (name, is numeric)
    cells: dict[str, dict[str, dict[int, object]]] = {}
    unordered: list[tuple[dict, str]] = []  # series that may have arrived out of wave order
    last_series: dict | None = None
    last_wave = 0
    max_wave = 0
    for lineno, row in enumerate(reader, start=2):
        if len(row) != 4:
            if not row:
                continue
            raise CohortParseError(f"expected 4 fields, got {len(row)}", line=lineno)
        pid, wave_s, feature_s, value_s = row
        known = feature_of.get(feature_s)
        if known is None:
            feature = feature_s.strip()
            if feature not in by_name:
                raise CohortValidationError(
                    f"line {lineno}: feature {feature!r} is not defined in the config"
                )
            known = feature_of[feature_s] = (
                feature, by_name[feature].kind in ("continuous", "discrete")
            )
        feature, numeric = known
        wave = wave_of.get(wave_s)
        if wave is None:
            try:
                wave = int(wave_s)
            except ValueError:
                raise CohortParseError(f"bad wave index {wave_s!r}", line=lineno) from None
            if wave < 1:
                raise CohortParseError(f"wave index must be >= 1, got {wave}", line=lineno)
            if wave_count is not None and wave > wave_count:
                raise CohortValidationError(
                    f"line {lineno}: wave {wave} exceeds the cohort wave count {wave_count}"
                )
            wave_of[wave_s] = wave
        if value_s == "":
            continue  # explicit missing cell
        if numeric:
            try:
                value: object = float(value_s)
            except ValueError:
                raise CohortParseError(
                    f"bad numeric value {value_s!r} for feature {feature!r}", line=lineno
                ) from None
            if not isfinite(value):
                raise CohortParseError(
                    f"non-finite numeric value {value_s!r} for feature {feature!r}", line=lineno
                )
        else:
            value = value_s
        pid = pid.strip()
        by_feature = cells.get(pid)
        if by_feature is None:
            by_feature = cells[pid] = {}
        series = by_feature.get(feature)
        if series is None:
            series = by_feature[feature] = {}
        elif wave in series:
            raise CellConflictError(
                f"line {lineno}: duplicate cell ({pid!r}, {feature!r}, wave {wave})"
            )
        elif series is not last_series or wave < last_wave:
            unordered.append((by_feature, feature))
        series[wave] = value
        last_series, last_wave = series, wave
        if wave > max_wave:
            max_wave = wave

    for by_feature, feature in unordered:
        series = by_feature[feature]
        by_feature[feature] = dict(sorted(series.items()))
    missing = sorted(set(cells) - set(outcomes))
    if missing:
        raise CohortValidationError(f"patients without an outcome: {missing}")
    if wave_count is None:
        horizon = max((math.ceil(o.time) for o in outcomes.values()), default=1)
        wave_count = max(max_wave, horizon, 1)
    patients = tuple(
        PatientRecord(
            patient_id=pid,
            values=dict(sorted(cells.get(pid, {}).items())),
            outcome=outcomes[pid],
        )
        for pid in sorted(outcomes)
    )
    return RawCohort(wave_count=wave_count, features=tuple(features), patients=patients)


def carry_forward(cohort: RawCohort, clip_to_outcome: bool = True) -> RawCohort:
    """Fill missing waves with the most recent prior value (LOCF).

    Filling runs from each feature's first observed wave to the patient's
    observation horizon: min(outcome wave, cohort wave count) by default,
    the full wave count with ``clip_to_outcome=False``.  Observations after
    the horizon are dropped, and so is a series with none at or before it.
    Waves before the first observation stay missing; observed values up to
    the horizon are never changed.  A series with nothing to fill or drop
    is shared with the input cohort, not copied.
    """
    patients = []
    for record in cohort.patients:
        horizon = cohort.wave_count
        if clip_to_outcome:
            horizon = min(horizon, int(math.floor(record.outcome.time)))
        values: dict[str, dict[int, object]] = {}
        for feature, series in record.values.items():
            if not series:
                continue
            waves = list(series)
            if waves[-1] == horizon and waves == list(range(waves[0], horizon + 1)):
                values[feature] = series  # nothing to fill or drop
                continue
            filled: dict[int, object] = {}
            last_value = prev = None
            for wave in sorted(waves):
                if wave > horizon:
                    break
                if prev is not None:
                    for gap in range(prev + 1, wave):
                        filled[gap] = last_value
                filled[wave] = last_value = series[wave]
                prev = wave
            if prev is None:
                continue  # nothing observed by the horizon
            for gap in range(prev + 1, horizon + 1):
                filled[gap] = last_value
            values[feature] = filled
        patients.append(PatientRecord(record.patient_id, values, record.outcome))
    return replace(cohort, patients=tuple(patients))


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_cohort_csv(cohort: RawCohort, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(COHORT_HEADER)
    for record in cohort.patients:
        for feature in sorted(record.values):
            for wave in sorted(record.values[feature]):
                writer.writerow(
                    [record.patient_id, wave, feature, _format_value(record.values[feature][wave])]
                )


def write_outcomes_csv(outcomes: Mapping[str, SurvivalOutcome], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(OUTCOME_HEADER)
    for pid in sorted(outcomes):
        o = outcomes[pid]
        writer.writerow([pid, _format_value(o.time), int(o.event)])
