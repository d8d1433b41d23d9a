"""Parsing of wave-structured cohort data and carry-forward imputation.

Input formats:

* cohort CSV, long format, header ``patient_id,wave,feature,value``
  (empty value = missing),
* outcome CSV, header ``patient_id,time,event`` with event in {0, 1}.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
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
    into ``categories``, its distinct raw values.  Rows, waves and codes are
    int32 (see ``_column``); a wave past ``MAX_WAVE``, which the parser
    refuses but a library caller or carry-forward to a later outcome time may
    give, makes the waves int64.
    """

    row: np.ndarray  # int32: index into RawCohort.patient_ids
    wave: np.ndarray  # int32, or int64 for a wave past MAX_WAVE
    values: np.ndarray  # float64, or int32 codes
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
            coded = np.fromiter(map(code_of.__getitem__, value), np.int32, len(value))
        row, wave = np.array(row, dtype=np.int32), np.array(wave, dtype=np.int64)
        order = np.lexsort((wave, row))  # a series need not be in wave order
        columns[name] = _column(row[order], wave[order], coded[order], categories)
    return columns


def _column(row: np.ndarray, wave: np.ndarray, values: np.ndarray, categories) -> Column:
    """A Column with int32 rows, waves and category codes; int64 waves past int32's range."""
    if categories is not None:
        values = values.astype(np.int32, copy=False)
    return Column(row.astype(np.int32, copy=False), _narrow(wave), values, categories)


def _narrow(ints: np.ndarray) -> np.ndarray:
    """Integers as int32, or as int64 when one lies outside int32's range."""
    if ints.size and (ints.min() < -_INT32_MAX - 1 or ints.max() > _INT32_MAX):
        return ints.astype(np.int64, copy=False)
    return ints.astype(np.int32, copy=False)


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


_ROW_SHIFT = 32  # a cell's key is row << _ROW_SHIFT | wave
_BLOCK = 1 << 18  # characters read at a time; a block is then completed to a whole line
_WIDE = 64  # bytes: a block with a wider field is split by csv.reader
_INT32_MAX = 2**31 - 1
# _MASKS[n] keeps the first n bytes of a big-endian 8-byte word
_MASKS = np.array([(1 << 64) - (1 << 8 * (8 - n)) for n in range(9)], dtype=np.uint64)


class _Cells:
    """One feature's cells as the CSV streams them: chunks of key, value and line arrays.

    A key packs the cell's row and wave, so keys order cells by (row, wave).
    Category codes are int32, as the Column keeps them.
    """

    __slots__ = ("name", "categories", "chunks")

    def __init__(self, name: str, numeric: bool):
        self.name = name
        self.categories: dict[str, int] | None = None if numeric else {}  # raw value -> code
        self.chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def column(self, ids: Sequence[str]) -> tuple[Column, tuple[int, str] | None]:
        """The cells as a Column, and the first line that repeats a cell with its message."""
        key, values, lines = (np.concatenate(arrays) for arrays in zip(*self.chunks))
        self.chunks.clear()  # a second copy of every cell
        if not np.all(key[1:] > key[:-1]):
            order = np.argsort(key, kind="stable")
            key, values, lines = key[order], values[order], lines[order]
        categories = None if self.categories is None else tuple(self.categories)
        column = _column(key >> _ROW_SHIFT, key & ((1 << _ROW_SHIFT) - 1), values, categories)
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
    without an outcome is a validation error.  The stream is read a block
    of lines at a time; each distinct field of a block is checked once and
    its cells coded into the feature's arrays: numeric values as floats,
    which must be finite, others as codes into the feature's distinct
    values.  One sort per feature then orders its cells by (patient, wave)
    and finds duplicate cells.  Of several faults, the one on the earliest
    line is reported.
    """
    by_name = {spec.name: spec for spec in features}
    header = next(csv.reader(stream), None)
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
        _stream(stream, _Coder(by_name, wave_count, base_of_id, cells))
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


def _stream(stream: IO[str], coder: _Coder) -> None:
    """Code every record after the header, a block of whole lines at a time.

    A block holding a quote, a carriage return or a NUL is where ``csv.reader``
    takes over, to the end of the stream, since a quoted field may span lines.
    It gets the block's lines as the stream would give them: a stream that
    reports ``newlines`` splits lines at a lone carriage return too.
    """
    line = 2  # the line number of the block's first record
    while text := stream.read(_BLOCK):
        text += stream.readline()
        if '"' in text or "\r" in text or "\0" in text:
            lines = io.StringIO(text, newline="" if getattr(stream, "newlines", None) else "\n")
            _code_records(csv.reader(chain(lines, stream)), line, coder)
            return
        line = _code_block(text, line, coder)


def _code_block(text: str, line: int, coder: _Coder) -> int:
    """Code a block of lines split at every comma and newline; the next block's first line.

    Each field goes into ``np.unique`` as one item: up to 8 bytes packed in
    a uint64, a wider field in a fixed-width bytes array.  A block with a
    field wider than ``_WIDE`` bytes goes through ``csv.reader`` instead.
    """
    data = text.encode("utf-8", "surrogatepass")  # lone surrogates round-trip
    if not data.endswith(b"\n"):
        data += b"\n"  # the stream's last line
    buf = np.frombuffer(data + bytes(_WIDE), np.uint8)  # room to read past the last field
    sep = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    start = np.empty_like(sep)
    start[0], start[1:] = 0, sep[:-1] + 1
    width = sep - start
    if width.max() > _WIDE:
        return _code_records(csv.reader(io.StringIO(text)), line, coder)
    ends = np.flatnonzero(buf[sep] == ord("\n"))  # each line's last field
    counts = np.diff(ends, prepend=-1)
    blank = (counts == 1) & (width[ends] == 0)  # csv.reader skips it; it still counts
    wrong = np.flatnonzero((counts != 4) & ~blank)
    n_lines, miscount = ends.size, None
    if wrong.size:  # code the records before the first miscounted line
        n_lines = int(wrong[0])
        miscount = (line + n_lines, int(counts[n_lines]))
    records = np.flatnonzero(counts[:n_lines] == 4)
    words = np.ndarray(buf.size - 7, ">u8", buf, strides=(1,))  # the 8 bytes from each offset
    field_ids = ends[records] + np.arange(-3, 1)[:, None]  # patient, wave, feature, value
    fields = [_pack(buf, words, start[i], width[i]) for i in field_ids]
    coder.code(fields, _narrow(line + records), miscount)
    return line + ends.size


def _pack(buf: np.ndarray, words: np.ndarray, start: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The fields as sortable items: uint64 words left-aligned and zero-padded, or bytes."""
    widest = int(width.max(initial=0))
    if widest <= 8:
        return np.bitwise_and(words[start], _MASKS[width], dtype=np.uint64)  # native order
    offsets = np.arange(widest)
    packed = buf[start[:, None] + offsets]
    packed[offsets >= width[:, None]] = 0
    return packed.view(f"S{widest}").ravel()


def _texts(distinct: np.ndarray) -> list[str]:
    """The strings of distinct packed fields, or of an object array of strings."""
    if distinct.dtype == object:
        return distinct.tolist()
    if distinct.dtype == np.uint64:
        distinct = distinct.astype(">u8").view("S8")  # a bytes item drops its zero padding
    return [field.decode("utf-8", "surrogatepass") for field in distinct.tolist()]


def _code_records(records, line: int, coder: _Coder) -> int:
    """Code ``csv.reader`` records, ``_BLOCK >> 4`` at a time; the line after the last."""
    for stretch in iter(lambda: list(islice(records, max(1, _BLOCK >> 4))), []):
        kept, lines, miscount = [], [], None
        for lineno, record in enumerate(stretch, start=line):
            if len(record) == 4:
                kept.append(record)
                lines.append(lineno)
            elif record:  # a blank line is skipped, but counts
                miscount = (lineno, len(record))
                break
        fields = np.array(kept, dtype=object).reshape(-1, 4).T
        coder.code(fields, _narrow(np.array(lines, dtype=np.int64)), miscount)
        line += len(stretch)
    return line


class _Coder:
    """Codes records into each feature's _Cells, checking each distinct field once.

    ``base_of_id`` maps each patient id to its row shifted into a key, and
    gains a row for each patient found without an outcome, in order of first
    appearance.  Raw feature, wave and patient cells are cached once checked.
    """

    def __init__(self, by_name, wave_count, base_of_id, cells: dict[str, _Cells]):
        self.by_name, self.wave_count = by_name, wave_count
        self.base_of_id, self.cells = base_of_id, cells
        self.feature_of: dict[str, _Cells] = {}  # feature cell -> its feature's cells
        self.wave_of: dict[str, int] = {}  # wave cell -> validated wave index
        self.base_of: dict[str, int] = {}  # patient cell -> shifted row

    def code(self, fields, lines: np.ndarray, miscount: tuple[int, int] | None) -> None:
        """Append the records' cells; raise the fault on the earliest line, if any.

        ``fields`` are the patient, wave, feature and value of each record, as
        arrays ``np.unique`` can sort; ``lines`` are the records' increasing
        line numbers; ``miscount`` is the (line, field count) of a record
        right after them without 4 fields.  Cells on lines before a fault
        are appended first.  Of faults on one line, an unknown feature comes
        before a bad wave, and a bad wave before a bad value.
        """
        pid, wave, feature, value = fields
        faults = []  # (line, rank on its line, error)
        if miscount is not None:
            line, n = miscount
            faults.append((line, 0, CohortParseError(f"expected 4 fields, got {n}", line=line)))
        features = self._features(feature, lines, faults)
        wave_at = self._waves(wave, lines, faults)
        coded = []  # each feature's cells, the records with a value, and their values
        for cells, records in features:
            kept, values = self._values(cells, value[records], lines[records], faults)
            coded.append((cells, records[kept], values))
        fault = min(faults, key=lambda f: f[:2], default=None)
        if fault is not None:  # keep the cells on earlier lines only
            end = np.searchsorted(lines, fault[0])
            coded = [(cells, records[records < end], values[records < end])
                     for cells, records, values in coded]
        with_cell = np.zeros(lines.size, dtype=bool)
        for _, records, _ in coded:
            with_cell[records] = True
        at = np.flatnonzero(with_cell)
        key = np.zeros(lines.size, dtype=np.int64)
        key[at] = self._bases(pid[at])
        key += wave_at
        for cells, records, values in coded:
            if records.size:
                cells.chunks.append((key[records], values, lines[records]))
        if fault is not None:
            raise fault[2]

    def _features(self, feature, lines, faults) -> list[tuple[_Cells, np.ndarray]]:
        """Each configured feature's cells and the records that name it."""
        distinct, first, feature_at = _unique(feature)
        named: dict[_Cells, list[int]] = {}
        for k, (raw, i) in enumerate(zip(_texts(distinct), first.tolist())):
            cells = self.feature_of.get(raw)
            if cells is None:
                name = raw.strip()
                if name not in self.by_name:
                    line = int(lines[i])
                    faults.append((line, 1, CohortValidationError(
                        f"line {line}: feature {name!r} is not defined in the config"
                    )))
                    continue
                if name not in self.cells:
                    self.cells[name] = _Cells(name, self.by_name[name].kind in NUMERIC_KINDS)
                cells = self.feature_of[raw] = self.cells[name]
            named.setdefault(cells, []).append(k)
        return [(cells, np.flatnonzero(np.isin(feature_at, ks))) for cells, ks in named.items()]

    def _waves(self, wave, lines, faults) -> np.ndarray:
        """Each record's wave index; 0 for a bad wave, which is a fault."""
        distinct, first, wave_at = _unique(wave)
        index = np.zeros(distinct.size, dtype=np.int64)
        for k, (raw, i) in enumerate(zip(_texts(distinct), first.tolist())):
            if raw not in self.wave_of:
                try:
                    self.wave_of[raw] = _wave(raw, self.wave_count, int(lines[i]))
                except WaveMineError as fault:
                    faults.append((int(lines[i]), 2, fault))
                    continue
            index[k] = self.wave_of[raw]
        return index[wave_at]

    def _values(self, cells: _Cells, value, lines, faults) -> tuple[np.ndarray, np.ndarray]:
        """Which of one feature's records hold a value, and those values.

        A numeric value is a float; any other is a code into the feature's
        categories, which grow in order of first appearance.
        """
        distinct, first, value_at = _unique(value)
        raws = _texts(distinct)
        categories = cells.categories
        coded = np.zeros(len(raws), dtype=float if categories is None else np.int32)
        for k in np.argsort(first, kind="stable").tolist():
            raw = raws[k]
            if not raw:
                continue  # explicit missing cell
            if categories is not None:
                coded[k] = categories.setdefault(raw, len(categories))
                continue
            try:
                coded[k] = _number(raw, cells.name, int(lines[first[k]]))
            except CohortParseError as fault:
                faults.append((fault.line, 3, fault))
        # the empty string sorts first
        kept = value_at > 0 if raws and not raws[0] else np.ones(value_at.size, dtype=bool)
        return kept, coded[value_at[kept]]

    def _bases(self, pid) -> np.ndarray:
        """Each cell's patient row shifted into a key; a new patient gets the next row."""
        distinct, first, pid_at = _unique(pid)
        raws = _texts(distinct)
        bases = np.zeros(len(raws), dtype=np.int64)
        for k in np.argsort(first, kind="stable").tolist():  # new rows by first appearance
            base = self.base_of.get(raws[k])
            if base is None:
                base = self.base_of[raws[k]] = self.base_of_id.setdefault(
                    raws[k].strip(), len(self.base_of_id) << _ROW_SHIFT
                )
            bases[k] = base
        return bases[pid_at]


def _unique(items: np.ndarray):
    """The distinct items, the first index of each, and each item's distinct index."""
    return np.unique(items, return_index=True, return_inverse=True)


def _number(raw: str, feature: str, line: int) -> float:
    """The finite float a numeric cell holds."""
    try:
        number = float(raw)
    except ValueError:
        raise CohortParseError(
            f"bad numeric value {raw!r} for feature {feature!r}", line=line
        ) from None
    if not math.isfinite(number):
        raise CohortParseError(
            f"non-finite numeric value {raw!r} for feature {feature!r}", line=line
        )
    return number


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
    return _column(
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
