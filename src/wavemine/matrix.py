"""Patients x patterns binary design matrix joined with survival outcomes."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from .encoding import EndpointSequence
from .errors import CohortValidationError, MatrixFormatError
from .miner import PatternResult


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
    sequences: Sequence[EndpointSequence],
    outcomes: Mapping[str, tuple[float, bool]],
) -> BinaryDesignMatrix:
    """Indicator matrix: cell(i, j) = 1 iff patient i carries pattern j.

    The carriers are the miner's ``PatternResult.matched`` ids, so no pattern
    is searched for again; a matched id that names no row or repeats is
    rejected, and so are two rows with one patient id.  Rows follow
    ``sequences``, of which only each ``patient_id`` is read, so
    ``CohortIntervals.patients`` serve as well.  Column order follows the
    miner's deterministic result order.  Column sums are checked against each
    pattern's reported a+b at build time.
    """
    missing = [s.patient_id for s in sequences if s.patient_id not in outcomes]
    if missing:
        raise CohortValidationError(f"patients without an outcome: {sorted(missing)}")
    row_of = {s.patient_id: i for i, s in enumerate(sequences)}
    if len(row_of) != len(sequences):
        raise CohortValidationError("duplicate patient ids among the matrix rows")
    cells = np.zeros((len(sequences), len(patterns)), dtype=np.int8)
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
    times = np.array([outcomes[s.patient_id][0] for s in sequences], dtype=float)
    events = np.array([outcomes[s.patient_id][1] for s in sequences], dtype=bool)
    return BinaryDesignMatrix(
        patient_ids=tuple(s.patient_id for s in sequences),
        times=times,
        events=events,
        pattern_keys=tuple(r.pattern.key() for r in patterns),
        cells=cells,
    )


def _column_names(width: int) -> list[str]:
    return [f"P{j + 1}" for j in range(width)]


def write_matrix_csv(matrix: BinaryDesignMatrix, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    names = _column_names(len(matrix.pattern_keys))
    writer.writerow(["patient_id", "time", "event", *names])
    for i, pid in enumerate(matrix.patient_ids):
        writer.writerow(
            [pid, repr(float(matrix.times[i])), int(matrix.events[i]), *matrix.cells[i].tolist()]
        )


def sidecar_payload(
    matrix: BinaryDesignMatrix, patterns: Sequence[PatternResult] | None = None
) -> dict:
    """Column -> canonical key mapping, plus risk stats when patterns are given."""
    from .miner import odds_ratio, relative_risk

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


def read_matrix_csv(stream: IO[str], sidecar: dict | None = None) -> BinaryDesignMatrix:
    """Read the matrix CSV back; the sidecar restores canonical pattern keys."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or header[:3] != ["patient_id", "time", "event"]:
        raise MatrixFormatError("matrix header must start with patient_id,time,event")
    names = header[3:]
    keys: list[str] = list(names)
    if sidecar is not None:
        columns = sidecar.get("columns")
        if not isinstance(columns, list) or [c.get("column") for c in columns] != names:
            raise MatrixFormatError("sidecar columns do not match the matrix header")
        keys = [c["key"] for c in columns]
    ids: list[str] = []
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
        if any(v not in (0, 1) for v in cells):
            raise MatrixFormatError(f"line {lineno}: indicator cells must be 0 or 1")
        ids.append(row[0])
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
