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
from .errors import (
    CellConflictError,
    CohortParseError,
    CohortValidationError,
    WaveMineError,
    utf8_text,
)

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


@utf8_text(CohortParseError, "the outcome file")
def parse_outcomes(stream: IO[str]) -> dict[str, SurvivalOutcome]:
    """Parse the outcome CSV into a patient_id -> SurvivalOutcome map.

    Each distinct (time, event) pair of cells is checked once, and the
    patients that share it share its SurvivalOutcome.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != OUTCOME_HEADER:
        raise CohortParseError(
            f"outcome header must be exactly {','.join(OUTCOME_HEADER)}", line=1
        )
    out: dict[str, SurvivalOutcome] = {}
    outcome_of: dict[tuple[str, str], SurvivalOutcome] = {}  # checked (time, event) cells
    for lineno, row in enumerate(reader, start=2):
        if len(row) != 3:
            if not row:
                continue
            raise CohortParseError(f"expected 3 fields, got {len(row)}", line=lineno)
        pid, time_s, event_s = map(str.strip, row)
        if pid in out:
            raise CellConflictError(f"line {lineno}: duplicate outcome for patient {pid!r}")
        outcome = outcome_of.get((time_s, event_s))
        if outcome is None:
            try:
                time = float(time_s)
            except ValueError:
                raise CohortParseError(f"bad time value {time_s!r}", line=lineno) from None
            if not math.isfinite(time) or time < 1:
                raise CohortParseError(f"time must be >= 1, got {time_s!r}", line=lineno)
            if event_s not in ("0", "1"):
                raise CohortParseError(f"event must be 0 or 1, got {event_s!r}", line=lineno)
            outcome = outcome_of[time_s, event_s] = SurvivalOutcome(time, event_s == "1")
        out[pid] = outcome
    return out


_ROW_SHIFT = 32  # a cell's key is row << _ROW_SHIFT | wave
_BLOCK = 1 << 18  # characters read at a time; a block is then completed to a whole line
_WIDE = 256  # bytes: a block with a wider field is split by csv.reader
_PACKED = 1 << 20  # bytes: the most one field's packed items take; a block packs in parts
_INT32_MAX = 2**31 - 1
_VOCAB_BYTES = 1 << 20  # a field's vocabulary stops growing at this size
_SCAN = 16  # a vocabulary of at most this many keys is searched by comparing with each
# _MASKS[n] keeps the first n bytes in memory of an 8-byte word
_MASKS = np.frombuffer(b"".join(bytes(n * [255] + (8 - n) * [0]) for n in range(9)), np.uint64)


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
        keys, chunk_values, chunk_lines = zip(*self.chunks)
        self.chunks.clear()  # a second copy of every cell
        key, values = np.concatenate(keys), np.concatenate(chunk_values)
        del keys, chunk_values
        categories = None if self.categories is None else tuple(self.categories)
        ordered = np.all(key[1:] > key[:-1])  # in (row, wave) order, no cell twice
        if not ordered:
            lines = np.concatenate(chunk_lines)
            order = np.argsort(key, kind="stable")
            key, values, lines = key[order], values[order], lines[order]
        column = _column(key >> _ROW_SHIFT, key & ((1 << _ROW_SHIFT) - 1), values, categories)
        if ordered:
            return column, None
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
    of lines at a time, and its cells coded into the feature's arrays:
    numeric values as floats, which must be finite, others as codes into
    the feature's distinct values.  Each distinct field is checked once per
    parse, not once per block: checked fields are kept in vocabularies (see
    ``_Coder``) that later blocks look their fields up in.  One sort per
    feature then orders its cells by (patient, wave) and finds duplicate
    cells.  Of several faults, the one on the earliest line is reported.
    """
    by_name = {spec.name: spec for spec in features}
    with utf8_text(CohortParseError, "the cohort file"):
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
        with utf8_text(CohortParseError, "the cohort file"):
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

    Each field is packed as one item (see ``_pack``), at most ``_PACKED``
    bytes of items a field at a time: a block with wide fields is coded in
    parts of fewer records.  A block with a field wider than ``_WIDE`` bytes
    goes through ``csv.reader`` instead.
    """
    data = text.encode("utf-8", "surrogatepass")  # lone surrogates round-trip
    if not data.endswith(b"\n"):
        data += b"\n"  # the stream's last line
    buf = np.frombuffer(data + bytes(_WIDE), np.uint8)  # room to read past the last field
    end = np.flatnonzero(buf == ord("\n"))  # each line's end
    comma = np.flatnonzero(buf == ord(","))
    begin = np.empty_like(end)  # each line's start
    begin[0] = 0
    np.add(end[:-1], 1, out=begin[1:])
    records, miscount = slice(None), None
    if comma.size == 3 * end.size and (comma[2::3] < end).all() and (comma[3::3] > end[:-1]).all():
        cut = comma.reshape(-1, 3)  # every line is a record
    else:
        upto = np.searchsorted(comma, end)  # the commas before each line's end
        commas = np.diff(upto, prepend=0)
        blank = (commas == 0) & (end == begin)  # csv.reader skips it; it still counts
        wrong = np.flatnonzero((commas != 3) & ~blank)
        n_lines = int(wrong[0]) if wrong.size else end.size
        if wrong.size:  # code the records before the first miscounted line
            miscount = (line + n_lines, int(commas[n_lines]) + 1)
        records = np.flatnonzero(commas[:n_lines] == 3)
        cut = comma[upto[records, None] + np.arange(-3, 0)]
    starts = (begin[records], *(cut.T + 1))  # patient, wave, feature, value
    widths = [stop - start for start, stop in zip(starts, (*cut.T, end[records]))]
    widest = max(int(width.max(initial=0)) for width in widths)
    if widest > _WIDE:
        return _code_records(csv.reader(io.StringIO(text)), line, coder)
    words = np.ndarray(buf.size - 7, np.uint64, buf, strides=(1,))  # the 8 bytes from each offset
    numbers = np.arange(line, line + end.size)[records]
    step = _PACKED // max(widest, 8)
    for lo in range(0, numbers.size or 1, step):  # the last part carries the miscount
        part = slice(lo, lo + step)
        fields = [_pack(buf, words, at[part], width[part]) for at, width in zip(starts, widths)]
        coder.code(fields, _narrow(numbers[part]), miscount if lo + step >= numbers.size else None)
    return line + end.size


def _pack(buf: np.ndarray, words: np.ndarray, start: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The fields as items: uint64 words holding the field's bytes and zeros, or bytes.

    A word's memory holds the field's bytes in order, so ``_texts`` reads them back.
    """
    widest = int(width.max(initial=0))
    if widest <= 8:
        packed = words[start]
        packed &= _MASKS[width]
        return packed
    n_words = -(-widest // 8)
    spans = np.ndarray((buf.size - 8 * n_words + 1, n_words), np.uint64, buf, strides=(1, 8))
    packed = spans[start]  # the n_words words from each field's start
    packed &= _MASKS[np.clip(width[:, None] - 8 * np.arange(n_words), 0, 8)]
    return packed.view(f"S{8 * n_words}").ravel()


def _texts(distinct: np.ndarray) -> list[str]:
    """The strings of distinct packed fields, or of an object array of strings."""
    if distinct.dtype == object:
        return distinct.tolist()
    if distinct.dtype == np.uint64:
        distinct = distinct.view("S8")  # a bytes item drops its zero padding
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


class _Vocab:
    """The distinct fields of one packing that passed their check, with their values.

    The fields sit in sorted runs of packed fields (uint64 words, ``S{w}``
    bytes, or strs), each with what its fields code to; a run holds more
    than twice as many as the next, newer one.  A block's new fields join as
    a run that merges with the newer runs it outgrows, so a field is copied
    O(log n) times over the parse, and a lookup searches O(log n) runs.  The
    vocabulary takes no more runs once it holds ``_VOCAB_BYTES``, so a
    column of all-distinct numbers costs a block no more than checking them.
    """

    __slots__ = ("runs", "nbytes", "dtype")

    def __init__(self, dtype):
        self.runs: list[tuple[np.ndarray, np.ndarray]] = []  # (sorted keys, values), oldest first
        self.nbytes, self.dtype = 0, dtype

    def find(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each item's value (arbitrary if missing), and whether it is there."""
        if not self.runs:
            return np.empty(items.size, self.dtype), np.zeros(items.size, dtype=bool)
        (keys, values), *newer = self.runs
        at = _search(keys, items)
        hit = keys.take(at) == items
        values = values.take(at)
        for keys, run_values in newer:
            missed = np.flatnonzero(~hit)
            if not missed.size:
                break
            at = _search(keys, items[missed])
            found = keys.take(at) == items[missed]
            values[missed[found]] = run_values.take(at[found])
            hit[missed[found]] = True
        return values, hit

    def add(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Add sorted new keys and their values as a run, while there is room."""
        if self.nbytes >= _VOCAB_BYTES or not keys.size:
            return
        self.nbytes += keys.nbytes + values.nbytes
        while self.runs and self.runs[-1][0].size <= 2 * keys.size:
            old_keys, old_values = self.runs.pop()
            if keys.dtype.itemsize > old_keys.dtype.itemsize:  # a wider S{w} block
                old_keys = old_keys.astype(keys.dtype)
            at = np.searchsorted(old_keys, keys)
            keys, values = np.insert(old_keys, at, keys), np.insert(old_values, at, values)
        self.runs.append((keys, values))


def _search(keys: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Where each item is or would go in the sorted ``keys``, clipped to a valid index."""
    if keys.size <= _SCAN:  # a binary search would mispredict a branch at every step
        at = np.zeros(items.size, dtype=np.uint8)
        for key in keys[:-1]:
            at += items > key
        return at
    at = np.searchsorted(keys, items)
    at[at == keys.size] = 0
    return at


class _Coder:
    """Codes records into each feature's _Cells, checking each distinct field once per parse.

    Each field (the patient, the wave, the feature, and each feature's value)
    keeps a ``_Vocab`` per packing for the whole parse.  A block looks its
    fields up there; only fields not in it are checked, each once, in order
    of first appearance, and those that pass join it.  ``base_of_id`` maps
    each patient id to its row shifted into a key, and gains a row for each
    patient found without an outcome, in order of first appearance; its
    outcome ids fill the patient vocabularies from the start.
    """

    def __init__(self, by_name, wave_count, base_of_id, cells: dict[str, _Cells]):
        self.by_name, self.wave_count = by_name, wave_count
        self.base_of_id, self.cells = base_of_id, cells
        self.named: list[_Cells] = []  # the feature vocabulary's values index it
        # small ints index ``named``, so that argsort sorts them by radix
        self.slot_type = np.min_scalar_type(-len(by_name) - 1)
        self.vocabs: dict[tuple, _Vocab] = {}  # (field, packing kind) -> its vocabulary
        self.faults: list = []  # the block's (line, rank on its line, error)
        self._seed_patients()

    def _seed_patients(self) -> None:
        """Fill the packed patient vocabularies with the outcome ids, as ``_bases`` codes them.

        Only when every id is a field that a block packs as itself: not empty,
        without surrounding whitespace, a NUL or a newline, at most ``_WIDE``
        bytes.  Otherwise every id goes through the checks when first met.
        """
        ids = list(self.base_of_id)
        try:
            text = "\n".join(ids)
        except TypeError:  # a library caller's id that is no str
            return
        if not ids or "" in self.base_of_id or "\0" in text or list(map(str.strip, ids)) != ids:
            return
        fields = text.encode("utf-8", "surrogatepass").split(b"\n")
        widths = np.fromiter(map(len, fields), np.intp, len(fields))
        if len(fields) != len(ids) or widths.max() > _WIDE:  # a newline, or too wide
            return
        bases = np.fromiter(self.base_of_id.values(), np.int64, len(ids))
        packed = np.array(fields, dtype=f"S{max(8, widths.max())}")  # zero-padded, as _pack packs
        short = widths <= 8
        for keys, values in ((packed[short].astype("S8").view(np.uint64), bases[short]),
                             (packed, bases)):
            order = np.argsort(keys)
            vocab = self.vocabs["patient", keys.dtype.kind] = _Vocab(np.int64)
            vocab.add(keys[order], values[order])

    def code(self, fields, lines: np.ndarray, miscount: tuple[int, int] | None) -> None:
        """Append the records' cells; raise the fault on the earliest line, if any.

        ``fields`` are the patient, wave, feature and value of each record, as
        packed arrays (see ``_pack``) or arrays of strs; ``lines`` are the
        records' increasing line numbers; ``miscount`` is the (line, field
        count) of a record right after them without 4 fields.  Cells on lines
        before a fault are appended first.  Of faults on one line, an unknown
        feature comes before a bad wave, and a bad wave before a bad value.
        """
        pid, wave, feature, value = fields
        self.faults = faults = []
        if miscount is not None:
            line, n = miscount
            faults.append((line, 0, CohortParseError(f"expected 4 fields, got {n}", line=line)))
        named = self._coded("feature", feature, lines, self._feature, self.slot_type, 1, -1)
        wave_at = self._coded("wave", wave, lines, self._wave_index, np.int64, 2)
        order = np.argsort(named, kind="stable")  # records grouped by feature, in line order
        bounds = np.searchsorted(named[order], np.arange(-1, len(self.named) + 1)).tolist()
        coded = []  # each feature's cells, the records with a value, and their values
        for cells, a, b in zip(self.named, bounds[1:], bounds[2:]):
            if a < b:
                records = order[a:b]
                values = self._values(cells, value[records], lines[records])
                kept = values >= 0 if cells.categories is not None else ~np.isnan(values)
                coded.append((cells, records[kept], values[kept]))
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
        key[at] = self._bases(pid[at], lines[at])
        key += wave_at
        for cells, records, values in coded:
            if records.size:
                cells.chunks.append((key[records], values, lines[records]))
        if fault is not None:
            raise fault[2]

    def _coded(self, field, items, lines, check, dtype, rank=0, refused=0) -> np.ndarray:
        """Each item's value: from ``field``'s vocabulary, else ``check(raw, line)``.

        Each distinct item the vocabulary lacks is checked once, in order of
        first appearance, at the line of its first appearance.  An item whose
        check raises gets ``refused`` and stays out of the vocabulary; its
        error joins the block's faults with ``rank`` for its line.
        """
        vocab = self.vocabs.get((field, items.dtype.kind))
        if vocab is None:
            vocab = self.vocabs[field, items.dtype.kind] = _Vocab(dtype)
        values, hit = vocab.find(items)
        if hit.all():
            return values
        missed = np.flatnonzero(~hit)
        distinct, first, missed_at = np.unique(
            items[missed], return_index=True, return_inverse=True)
        raws, first_lines = _texts(distinct), lines[missed[first]].tolist()
        checked, passed = [refused] * len(raws), [True] * len(raws)
        for k in np.argsort(first, kind="stable").tolist():
            try:
                checked[k] = check(raws[k], first_lines[k])
            except WaveMineError as fault:
                self.faults.append((first_lines[k], rank, fault))
                passed[k] = False
        checked = np.array(checked, dtype)
        values[missed] = checked[missed_at]
        vocab.add(distinct[passed], checked[passed])
        return values

    def _feature(self, raw: str, line: int) -> int:
        """The index in ``named`` of the configured feature a feature cell names."""
        name = raw.strip()
        if name not in self.by_name:
            raise CohortValidationError(
                f"line {line}: feature {name!r} is not defined in the config")
        if name not in self.cells:
            self.cells[name] = _Cells(name, self.by_name[name].kind in NUMERIC_KINDS)
            self.named.append(self.cells[name])
        return self.named.index(self.cells[name])

    def _wave_index(self, raw: str, line: int) -> int:
        return _wave(raw, self.wave_count, line)

    def _values(self, cells: _Cells, value, lines) -> np.ndarray:
        """One feature's values: floats, NaN for a blank cell; or category codes, -1 for one.

        Categories grow in order of first appearance.
        """
        categories = cells.categories
        if categories is None:
            def number(raw, line):
                return _number(raw, cells.name, line) if raw else math.nan
            return self._coded(cells, value, lines, number, float, 3)

        def code(raw, line):
            return categories.setdefault(raw, len(categories)) if raw else -1
        return self._coded(cells, value, lines, code, np.int32, 3)

    def _bases(self, pid, lines) -> np.ndarray:
        """Each cell's patient row shifted into a key, looked up once per run of one patient."""
        new_run = np.ones(pid.size, dtype=bool)
        new_run[1:] = pid[1:] != pid[:-1]
        heads = np.flatnonzero(new_run)

        def base(raw, line):
            return self.base_of_id.setdefault(raw.strip(), len(self.base_of_id) << _ROW_SHIFT)
        bases = self._coded("patient", pid[heads], lines[heads], base, np.int64)
        return np.repeat(bases, np.diff(np.append(heads, pid.size)))


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


def carry_forward(cohort: RawCohort) -> RawCohort:
    """Fill missing waves with the most recent prior value (LOCF).

    Filling runs from each feature's first observed wave to the patient's
    observation horizon, min(outcome wave, cohort wave count), so no value
    from after the outcome wave is used.  Observations after the horizon are
    dropped, and so is a series with none at or before it.  Waves before the
    first observation stay missing; observed values up to the horizon are
    never changed.  A column with nothing to fill or drop is shared with the
    input cohort, not copied.
    """
    times = np.array([o.time for o in cohort.patient_outcomes], dtype=float)
    horizon = np.minimum(np.floor(times), cohort.wave_count).astype(np.int64)
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
