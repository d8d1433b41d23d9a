"""Parsing of wave-structured cohort data and carry-forward imputation.

Input formats:

* cohort CSV, long format, header ``patient_id,wave,feature,value``
  (empty value = missing),
* outcome CSV, header ``patient_id,time,event`` with event in {0, 1}.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from typing import IO, Mapping, NamedTuple, Sequence

import numpy as np

from .abstraction import FeatureSpec
from .errors import CellConflictError, CohortParseError, CohortValidationError, WaveMineError

COHORT_HEADER = ("patient_id", "wave", "feature", "value")
OUTCOME_HEADER = ("patient_id", "time", "event")


@dataclass(frozen=True)
class SurvivalOutcome:
    """Event or censoring wave: event=False means censored at ``time``."""

    time: float
    event: bool


NUMERIC_KINDS = ("continuous", "discrete")
MAX_WAVE = 2**31 - 1


@dataclass(frozen=True)
class PatientRecord:
    patient_id: str
    values: Mapping[str, Mapping[int, object]]  # feature -> wave -> raw value
    outcome: SurvivalOutcome


class Column(NamedTuple):
    """One feature's observed cells, in (row, wave) order with no (row, wave) twice.

    A numeric feature's ``values`` are floats; any other feature's are codes
    into ``categories``, its distinct raw values.
    """

    row: np.ndarray  # intp: index into RawCohort.patient_ids
    wave: np.ndarray  # int64
    values: np.ndarray  # float64, or intp codes
    categories: tuple | None = None

    def raw(self) -> list:
        """Each cell's raw value, in cell order."""
        if self.categories is None:
            return self.values.tolist()
        return [self.categories[code] for code in self.values.tolist()]

    def value(self, i: int):
        """The raw value of cell ``i``."""
        code = self.values[i].item()
        return code if self.categories is None else self.categories[code]


class RawCohort:
    """A cohort held as columns: one row per patient, one Column per feature with a cell.

    ``RawCohort(wave_count, features, patients)`` builds the columns from
    PatientRecords, whose rows keep their order; a feature of a numeric kind
    holds floats.  ``patients`` gives the records back, built on first use,
    each with its features by name and each series by wave.
    """

    def __init__(
        self,
        wave_count: int,
        features: Sequence[FeatureSpec],
        patients: Sequence[PatientRecord] = (),
    ):
        columns = series_columns([p.values for p in patients], features)
        self._set(wave_count, features, [p.patient_id for p in patients],
                  [p.outcome for p in patients], columns)

    @classmethod
    def from_columns(cls, wave_count, features, patient_ids, patient_outcomes, columns):
        """A cohort over already ordered columns, which it shares."""
        cohort = cls.__new__(cls)
        cohort._set(wave_count, features, patient_ids, patient_outcomes, columns)
        return cohort

    def _set(self, wave_count, features, patient_ids, patient_outcomes, columns) -> None:
        self.wave_count = wave_count
        self.features = tuple(features)
        self.patient_ids: tuple[str, ...] = tuple(patient_ids)
        self.patient_outcomes: tuple[SurvivalOutcome, ...] = tuple(patient_outcomes)
        self.columns: dict[str, Column] = dict(sorted(columns.items()))

    @cached_property
    def patients(self) -> tuple[PatientRecord, ...]:
        values: list[dict] = [{} for _ in self.patient_ids]
        for name, column in self.columns.items():
            rows, waves, raw = column.row.tolist(), column.wave.tolist(), column.raw()
            bounds = (np.flatnonzero(np.diff(column.row)) + 1).tolist()
            for a, b in zip([0, *bounds], [*bounds, len(rows)]):
                values[rows[a]][name] = dict(zip(waves[a:b], raw[a:b]))
        return tuple(map(PatientRecord, self.patient_ids, values, self.patient_outcomes))

    def __eq__(self, other):
        if not isinstance(other, RawCohort):
            return NotImplemented
        return (self.wave_count, self.features, self.patients) == (
            other.wave_count, other.features, other.patients
        )

    def __repr__(self) -> str:
        return (f"RawCohort(wave_count={self.wave_count}, patients={len(self.patient_ids)}, "
                f"features={[spec.name for spec in self.features]})")

    @property
    def censoring_rate(self) -> float:
        if not self.patient_outcomes:
            return 0.0
        censored = sum(1 for o in self.patient_outcomes if not o.event)
        return censored / len(self.patient_outcomes)

    def outcomes(self) -> dict[str, SurvivalOutcome]:
        return dict(zip(self.patient_ids, self.patient_outcomes))


def series_columns(
    rows: Sequence[Mapping[str, Mapping[int, object]]], features: Sequence[FeatureSpec]
) -> dict[str, Column]:
    """The Columns of ``feature -> wave -> value`` series, row i holding ``rows[i]``.

    A feature of a numeric kind holds floats; any other is coded by first
    appearance.  A feature with no cell gets no Column.
    """
    numeric = {spec.name for spec in features if spec.kind in NUMERIC_KINDS}
    cells: dict[str, tuple[list, list, list]] = {}
    for r, by_feature in enumerate(rows):
        for name, series in by_feature.items():
            if series:
                row, wave, value = cells.setdefault(name, ([], [], []))
                row.extend(repeat(r, len(series)))
                wave.extend(series)
                value.extend(series.values())
    columns = {}
    for name, (row, wave, value) in cells.items():
        if name in numeric:
            categories, coded = None, np.array(value, dtype=float)
        else:
            code_of = {v: code for code, v in enumerate(dict.fromkeys(value))}
            categories = tuple(code_of)
            coded = np.fromiter(map(code_of.__getitem__, value), np.intp, len(value))
        row, wave = np.array(row, dtype=np.intp), np.array(wave, dtype=np.int64)
        order = np.lexsort((wave, row))  # a series need not be in wave order
        columns[name] = Column(row[order], wave[order], coded[order], categories)
    return columns


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


_ROW_SHIFT = 32  # a streamed cell's key is row << _ROW_SHIFT | wave
_CHUNK = 1 << 16  # records streamed between moves of the cells into arrays


class _Cells:
    """One feature's cells as the CSV streams them: key, value and line of each.

    A key packs the cell's row and wave, so keys order cells by (row, wave).
    Cells collect in lists, which ``flush`` moves into arrays every chunk of
    records.
    """

    __slots__ = ("name", "categories", "keys", "values", "lines", "chunks")

    def __init__(self, name: str, numeric: bool):
        self.name = name
        self.categories: dict[str, int] | None = None if numeric else {}  # raw value -> code
        self.keys: list[int] = []
        self.values: list = []
        self.lines: list[int] = []
        self.chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def appenders(self) -> tuple:
        return (self.name, self.categories, self.keys.append, self.values.append,
                self.lines.append)

    def flush(self) -> None:
        n = len(self.keys)
        if n:
            dtype = float if self.categories is None else np.intp
            self.chunks.append((np.fromiter(self.keys, np.int64, n),
                                np.fromiter(self.values, dtype, n),
                                np.fromiter(self.lines, np.int64, n)))
            for streamed in (self.keys, self.values, self.lines):
                streamed.clear()  # in place: the appenders stay bound to these lists

    def column(self, ids: Sequence[str]) -> tuple[Column, tuple[int, str] | None]:
        """The cells as a Column, and the first line that repeats a cell with its message."""
        key, values, lines = (np.concatenate(arrays) for arrays in zip(*self.chunks))
        if not np.all(key[1:] > key[:-1]):
            order = np.argsort(key, kind="stable")
            key, values, lines = key[order], values[order], lines[order]
        column = Column(
            key >> _ROW_SHIFT, key & ((1 << _ROW_SHIFT) - 1), values,
            None if self.categories is None else tuple(self.categories),
        )
        repeats = np.flatnonzero(key[1:] == key[:-1]) + 1
        if not repeats.size:
            return column, None
        # a stable sort keeps a cell's first line first, so each repeat is a later line
        i = int(repeats[np.argmin(lines[repeats])])
        line, row, wave = int(lines[i]), int(column.row[i]), int(column.wave[i])
        message = f"line {line}: duplicate cell ({ids[row]!r}, {self.name!r}, wave {wave})"
        return column, (line, message)


def _columns(cells: Mapping[str, _Cells], ids: Sequence[str]) -> dict[str, Column]:
    """Each feature's Column; a repeated cell raises the error of the earliest such line."""
    columns, repeats = {}, []
    for name, feature_cells in cells.items():
        feature_cells.flush()
        if not feature_cells.chunks:
            continue  # only blank cells
        columns[name], repeat_ = feature_cells.column(ids)
        if repeat_ is not None:
            repeats.append(repeat_)
    if repeats:
        raise CellConflictError(min(repeats)[1])
    return columns


def parse_cohort(
    stream: IO[str],
    features: Sequence[FeatureSpec],
    outcomes: Mapping[str, SurvivalOutcome],
    wave_count: int | None = None,
) -> RawCohort:
    """Parse the long-format cohort CSV into a columnar RawCohort.

    The rows are the outcome map's patients, sorted by id; a data patient
    without an outcome is a validation error.  One ``csv.reader`` pass codes
    each cell into its feature's arrays: numeric values as floats, which must
    be finite, others as codes into the feature's distinct values.  One sort
    per feature then orders its cells by (patient, wave) and finds duplicate
    cells.  Of several faults, the one on the earliest line is reported.
    """
    by_name = {spec.name: spec for spec in features}
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != COHORT_HEADER:
        raise CohortParseError(
            f"cohort header must be exactly {','.join(COHORT_HEADER)}", line=1
        )
    outcome_ids = sorted(outcomes)
    # patient id -> its row, shifted into a key; a patient without an outcome
    # gets a row past the outcome ones
    base_of_id = {pid: r << _ROW_SHIFT for r, pid in enumerate(outcome_ids)}
    cells: dict[str, _Cells] = {}
    try:
        _stream(reader, by_name, wave_count, base_of_id, cells)
    except WaveMineError:
        try:
            _columns(cells, list(base_of_id))
        except CellConflictError as repeated:  # on an earlier line than this fault
            raise repeated from None
        raise

    columns = _columns(cells, list(base_of_id))
    missing = sorted(list(base_of_id)[len(outcome_ids):])
    if missing:
        raise CohortValidationError(f"patients without an outcome: {missing}")
    if wave_count is None:
        horizon = max((math.ceil(o.time) for o in outcomes.values()), default=1)
        max_wave = max((int(c.wave.max()) for c in columns.values()), default=0)
        wave_count = max(max_wave, horizon, 1)
    return RawCohort.from_columns(
        wave_count, features, outcome_ids, [outcomes[pid] for pid in outcome_ids], columns
    )


def _stream(reader, by_name, wave_count, base_of_id, cells: dict[str, _Cells]) -> None:
    """Code each record of ``reader`` into ``cells``, per feature; raise at a faulty record.

    ``base_of_id`` maps each patient id to its row shifted into a key, and
    gains a row for each patient found without an outcome.
    """
    isfinite = math.isfinite
    base_of = dict(base_of_id)  # patient cell -> shifted row
    wave_of: dict[str, int] = {}  # wave cell -> validated wave index
    feature_of: dict[str, tuple] = {}  # feature cell -> its feature's _Cells.appenders()
    feature_get, wave_get, base_get = feature_of.get, wave_of.get, base_of.get
    lineno = 1
    for start in count(2, _CHUNK):
        for lineno, row in zip(range(start, start + _CHUNK), reader):
            try:
                pid, wave_s, feature_s, value_s = row
            except ValueError:
                if not row:
                    continue
                raise CohortParseError(f"expected 4 fields, got {len(row)}", line=lineno) from None
            known = feature_get(feature_s)
            if known is None:
                feature = feature_s.strip()
                if feature not in by_name:
                    raise CohortValidationError(
                        f"line {lineno}: feature {feature!r} is not defined in the config"
                    )
                if feature not in cells:
                    cells[feature] = _Cells(feature, by_name[feature].kind in NUMERIC_KINDS)
                known = feature_of[feature_s] = cells[feature].appenders()
            feature, categories, add_key, add_value, add_line = known
            wave = wave_get(wave_s)
            if wave is None:
                wave = wave_of[wave_s] = _wave(wave_s, wave_count, lineno)
            if categories is None:
                if not value_s:
                    continue  # explicit missing cell
                try:
                    value = float(value_s)
                except ValueError:
                    raise CohortParseError(
                        f"bad numeric value {value_s!r} for feature {feature!r}", line=lineno
                    ) from None
                if not isfinite(value):
                    raise CohortParseError(
                        f"non-finite numeric value {value_s!r} for feature {feature!r}",
                        line=lineno,
                    )
            else:
                value = categories.get(value_s)
                if value is None:
                    if not value_s:
                        continue  # explicit missing cell
                    value = categories[value_s] = len(categories)
            base = base_get(pid)
            if base is None:
                base = base_of[pid] = base_of_id.setdefault(
                    pid.strip(), len(base_of_id) << _ROW_SHIFT
                )
            add_key(base + wave)
            add_value(value)
            add_line(lineno)
        for feature_cells in cells.values():
            feature_cells.flush()
        if lineno < start + _CHUNK - 1:
            break  # the reader ran out within this chunk


def _wave(wave_s: str, wave_count: int | None, lineno: int) -> int:
    """The wave index a wave cell names, checked against the cohort's wave range."""
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
    if wave > MAX_WAVE:
        raise CohortParseError(f"wave index must be <= {MAX_WAVE}, got {wave}", line=lineno)
    return wave


def carry_forward(cohort: RawCohort, clip_to_outcome: bool = True) -> RawCohort:
    """Fill missing waves with the most recent prior value (LOCF).

    Filling runs from each feature's first observed wave to the patient's
    observation horizon: min(outcome wave, cohort wave count) by default,
    the full wave count with ``clip_to_outcome=False``.  Observations after
    the horizon are dropped, and so is a series with none at or before it.
    Waves before the first observation stay missing; observed values up to
    the horizon are never changed.  A column with nothing to fill or drop is
    shared with the input cohort, not copied.
    """
    horizon = np.full(len(cohort.patient_ids), cohort.wave_count, dtype=np.int64)
    if clip_to_outcome and horizon.size:
        times = np.array([o.time for o in cohort.patient_outcomes], dtype=float)
        horizon = np.minimum(np.floor(times), horizon).astype(np.int64)
    columns = {}
    for name, column in cohort.columns.items():
        filled = _carried(column, horizon)
        if filled is not None:
            columns[name] = filled
    return RawCohort.from_columns(
        cohort.wave_count, cohort.features, cohort.patient_ids, cohort.patient_outcomes, columns
    )


def _carried(column: Column, horizon: np.ndarray) -> Column | None:
    """``column`` filled forward to each row's horizon; None when no cell is left."""
    row, wave, values = column.row, column.wave, column.values
    kept = wave <= horizon[row]
    if not kept.all():
        row, wave, values = row[kept], wave[kept], values[kept]
    if not row.size:
        return None
    first = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])  # each row's first cell
    counts = horizon[row[first]] - wave[first] + 1  # cells once filled, per row
    total = int(counts.sum())
    if total == row.size:  # every row already runs unbroken to its horizon
        return column if kept.all() else Column(row, wave, values, column.categories)
    slots = np.cumsum(counts) - counts  # each row's first output slot
    run = np.repeat(np.arange(first.size), np.diff(np.append(first, row.size)))
    # each slot takes the last observed cell at or before its wave
    source = np.full(total, -1, dtype=np.intp)
    source[slots[run] + wave - wave[first][run]] = np.arange(row.size)
    np.maximum.accumulate(source, out=source)
    offset = np.repeat(slots - wave[first], counts)
    return Column(
        np.repeat(row[first], counts), np.arange(total) - offset, values[source], column.categories
    )


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_cohort_csv(cohort: RawCohort, stream: IO[str]) -> None:
    """Write every cell, ordered by patient row, feature name and wave."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(COHORT_HEADER)
    columns = list(cohort.columns.values())
    if not columns:
        return
    row = np.concatenate([c.row for c in columns])
    wave = np.concatenate([c.wave for c in columns])
    feature = np.repeat(np.arange(len(columns)), [c.row.size for c in columns])
    text = np.concatenate([_value_texts(c) for c in columns])
    order = np.lexsort((wave, feature, row))
    ids = np.array(cohort.patient_ids, dtype=object)
    names = np.array(list(cohort.columns), dtype=object)
    writer.writerows(zip(
        ids[row[order]].tolist(), wave[order].tolist(), names[feature[order]].tolist(),
        text[order].tolist(),
    ))


def _value_texts(column: Column) -> np.ndarray:
    """Each cell's value as the cohort CSV writes it."""
    if column.categories is None:
        return np.array(list(map(float.__repr__, column.values.tolist())), dtype=object)
    return np.array([_format_value(c) for c in column.categories], dtype=object)[column.values]


def write_outcomes_csv(outcomes: Mapping[str, SurvivalOutcome], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(OUTCOME_HEADER)
    for pid in sorted(outcomes):
        o = outcomes[pid]
        writer.writerow([pid, _format_value(o.time), int(o.event)])
