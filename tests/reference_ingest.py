"""The dict-based ``parse_cohort`` and ``carry_forward`` that the columnar ones replaced.

They build every cell into nested ``feature -> wave -> value`` dicts, one
patient at a time.  Tests check the columnar ingest against them: the same
records in the same order, and the same error, message and line.
"""
import csv
import math

from wavemine.errors import CellConflictError, CohortParseError, CohortValidationError
from wavemine.ingest import COHORT_HEADER, PatientRecord


def parse_cohort(stream, features, outcomes, wave_count=None):
    """Parse the long-format cohort CSV into ``(wave_count, records)``.

    Every patient in the outcome map becomes one PatientRecord, in id order;
    a data patient without an outcome is a validation error.  Features are
    ordered by name and each series by wave.  Numeric cells must be finite.
    """
    by_name = {spec.name: spec for spec in features}
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != COHORT_HEADER:
        raise CohortParseError(
            f"cohort header must be exactly {','.join(COHORT_HEADER)}", line=1
        )
    wave_of = {}  # wave cell -> validated wave index
    feature_of = {}  # feature cell -> (name, is numeric)
    cells = {}
    unordered = []  # series that may have arrived out of wave order
    last_series = None
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
                value = float(value_s)
            except ValueError:
                raise CohortParseError(
                    f"bad numeric value {value_s!r} for feature {feature!r}", line=lineno
                ) from None
            if not math.isfinite(value):
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
        by_feature[feature] = dict(sorted(by_feature[feature].items()))
    missing = sorted(set(cells) - set(outcomes))
    if missing:
        raise CohortValidationError(f"patients without an outcome: {missing}")
    if wave_count is None:
        horizon = max((math.ceil(o.time) for o in outcomes.values()), default=1)
        wave_count = max(max_wave, horizon, 1)
    records = tuple(
        PatientRecord(
            patient_id=pid,
            values=dict(sorted(cells.get(pid, {}).items())),
            outcome=outcomes[pid],
        )
        for pid in sorted(outcomes)
    )
    return wave_count, records


def carry_forward(wave_count, records, clip_to_outcome=True):
    """Fill missing waves with the most recent prior value (LOCF), record by record.

    Filling runs from each feature's first observed wave to the patient's
    horizon: min(outcome wave, wave count), or the wave count with
    ``clip_to_outcome=False``.  Observations after the horizon are dropped,
    and so is a series with none at or before it.
    """
    out = []
    for record in records:
        horizon = wave_count
        if clip_to_outcome:
            horizon = min(horizon, int(math.floor(record.outcome.time)))
        values = {}
        for feature, series in record.values.items():
            filled = {}
            last_value = prev = None
            for wave in sorted(series):
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
        out.append(PatientRecord(record.patient_id, values, record.outcome))
    return tuple(out)
