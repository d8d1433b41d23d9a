"""Patients x patterns binary design matrix joined with survival outcomes."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import CohortValidationError, MatrixFormatError, utf8_text
from .miner import PatternResult, odds_ratio, relative_risk


@dataclass(frozen=True)
class BinaryDesignMatrix:
    patient_ids: tuple[str, ...]
    times: np.ndarray   # float64, one per patient
    events: np.ndarray  # bool, one per patient
    pattern_keys: tuple[str, ...]
    cells: np.ndarray   # int8, shape (patients, patterns)

    @property
    def shape(self) -> tuple[int, int]:
        return self.cells.shape

    def column(self, key: str) -> np.ndarray:
        return self.cells[:, self.pattern_keys.index(key)]

    def __eq__(self, other):
        if not isinstance(other, BinaryDesignMatrix):
            return NotImplemented
        return (
            self.patient_ids == other.patient_ids
            and self.pattern_keys == other.pattern_keys
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.events, other.events)
            and np.array_equal(self.cells, other.cells)
        )


def build_matrix(
    patterns: Sequence[PatternResult],
    ids: Sequence[str],
    outcomes: Mapping[str, tuple[float, bool]],
) -> BinaryDesignMatrix:
    """Indicator matrix: cell(i, j) = 1 iff patient ``ids[i]`` carries pattern j.

    The carriers are the miner's ``PatternResult.matched`` ids, so no pattern
    is searched for again; a matched id that names no row or repeats is
    rejected, and so are two rows with one patient id.  Rows follow ``ids``,
    such as a ``CohortIntervals``' ``ids``.  Column order follows the miner's
    deterministic result order.  Column sums are checked against each
    pattern's reported a+b at build time.
    """
    missing = [pid for pid in ids if pid not in outcomes]
    if missing:
        raise CohortValidationError(f"patients without an outcome: {sorted(missing)}")
    row_of = {pid: i for i, pid in enumerate(ids)}
    if len(row_of) != len(ids):
        raise CohortValidationError("duplicate patient ids among the matrix rows")
    cells = np.zeros((len(ids), len(patterns)), dtype=np.int8)
    for j, result in enumerate(patterns):
        rows = [row_of.get(pid) for pid in result.matched]
        if None in rows or len(set(rows)) != len(rows):
            raise MatrixFormatError(
                f"column {j}: matched ids of pattern {result.pattern.key()} "
                "name unknown or repeated patients"
            )
        cells[rows, j] = 1
        expected = result.stats.a + result.stats.b
        got = int(cells[:, j].sum())
        if got != expected:
            raise MatrixFormatError(
                f"column {j} sums to {got} but the miner reported a+b={expected} "
                f"for pattern {result.pattern.key()}"
            )
    times = np.array([outcomes[pid][0] for pid in ids], dtype=float)
    events = np.array([outcomes[pid][1] for pid in ids], dtype=bool)
    return BinaryDesignMatrix(
        patient_ids=tuple(ids),
        times=times,
        events=events,
        pattern_keys=tuple(r.pattern.key() for r in patterns),
        cells=cells,
    )


def _column_names(width: int) -> list[str]:
    return [f"P{j + 1}" for j in range(width)]


def write_matrix_csv(matrix: BinaryDesignMatrix, stream: IO[str]) -> None:
    """Write the header and one ``patient_id,time,event,cells...`` row per patient.

    ``csv`` quotes the header and each row's id, time and event prefix (one
    ``write`` per row, so each prefix arrives whole).  The 0/1 cells never
    need quoting: their ``,0,1,...`` text is laid out for all rows at once as
    one byte array.
    """
    cells = matrix.cells
    if ((cells != 0) & (cells != 1)).any():
        raise MatrixFormatError("indicator cells must be 0 or 1")
    n, p = cells.shape
    csv.writer(stream, lineterminator="\n").writerow(
        ["patient_id", "time", "event", *_column_names(p)]
    )
    times = map(repr, matrix.times.astype(float).tolist())
    prefixes: list[str] = []
    csv.writer(SimpleNamespace(write=prefixes.append), lineterminator="\n").writerows(
        zip(matrix.patient_ids, times, matrix.events.astype(int).tolist())
    )
    width = 2 * p + 1
    text = np.full((n, width), ord(","), dtype=np.uint8)
    text[:, 1::2] = cells + ord("0")
    text[:, -1] = ord("\n")
    rows = text.tobytes().decode("ascii")
    stream.write(
        "".join(prefix[:-1] + rows[i * width:(i + 1) * width] for i, prefix in enumerate(prefixes))
    )


def sidecar_payload(
    matrix: BinaryDesignMatrix, patterns: Sequence[PatternResult] | None = None
) -> dict:
    """Column -> canonical key mapping, plus risk stats when patterns are given."""
    by_key = {r.pattern.key(): r for r in patterns or ()}
    columns = []
    for name, key in zip(_column_names(len(matrix.pattern_keys)), matrix.pattern_keys):
        entry: dict = {"column": name, "key": key}
        result = by_key.get(key)
        if result is not None:
            s = result.stats
            entry.update(
                a=s.a, b=s.b, c=s.c, d=s.d, rr=relative_risk(s), odds_ratio=odds_ratio(s)
            )
        columns.append(entry)
    return {"columns": columns}


def write_sidecar_json(payload: dict, stream: IO[str]) -> None:
    json.dump(payload, stream, indent=2)
    stream.write("\n")


@utf8_text(MatrixFormatError, "the matrix file")
def read_matrix_csv(stream: IO[str], sidecar: dict | None = None) -> BinaryDesignMatrix:
    """Read the matrix CSV back; the sidecar restores canonical pattern keys.

    A time must be finite and >= 1, and a patient id must not repeat.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or header[:3] != ["patient_id", "time", "event"]:
        raise MatrixFormatError("matrix header must start with patient_id,time,event")
    names = header[3:]
    keys: list[str] = list(names)
    if sidecar is not None:
        columns = sidecar.get("columns") if isinstance(sidecar, dict) else None
        if not (isinstance(columns, list) and all(isinstance(c, dict) and "key" in c
                                                  for c in columns)):
            raise MatrixFormatError("the sidecar must hold a list of column objects with keys")
        if [c.get("column") for c in columns] != names:
            raise MatrixFormatError("sidecar columns do not match the matrix header")
        keys = [c["key"] for c in columns]
    ids: dict[str, None] = {}  # in row order
    times: list[float] = []
    events: list[bool] = []
    rows: list[list[int]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3 + len(names):
            raise MatrixFormatError(f"line {lineno}: expected {3 + len(names)} fields")
        try:
            times.append(float(row[1]))
            if row[2] not in ("0", "1"):
                raise ValueError(row[2])
            events.append(row[2] == "1")
            cells = [int(v) for v in row[3:]]
        except ValueError as exc:
            raise MatrixFormatError(f"line {lineno}: bad value ({exc})") from None
        if not (math.isfinite(times[-1]) and times[-1] >= 1):
            raise MatrixFormatError(f"line {lineno}: time must be finite and >= 1, got {row[1]!r}")
        if any(v not in (0, 1) for v in cells):
            raise MatrixFormatError(f"line {lineno}: indicator cells must be 0 or 1")
        if row[0] in ids:
            raise MatrixFormatError(f"line {lineno}: duplicate patient id {row[0]!r}")
        ids[row[0]] = None
        rows.append(cells)
    cells_arr = (
        np.array(rows, dtype=np.int8) if rows else np.zeros((0, len(names)), dtype=np.int8)
    )
    return BinaryDesignMatrix(
        patient_ids=tuple(ids),
        times=np.array(times, dtype=float),
        events=np.array(events, dtype=bool),
        pattern_keys=tuple(keys),
        cells=cells_arr,
    )
