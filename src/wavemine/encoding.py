"""Endpoint-sequence representation of state intervals.

Every non-normal interval [s, e] contributes a Start endpoint at wave s and
a Finish endpoint at wave e; normal-severity levels emit nothing.  Endpoints
sharing a wave form one group.  Within a group the stored order is a pure
canonical form (Start block before Finish block, each block sorted):
pattern semantics depend only on group membership.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

from .abstraction import StateInterval
from .errors import MatrixFormatError, PairingError


class Endpoint(NamedTuple):
    feature: str
    level: str
    is_finish: bool

    @property
    def kind(self) -> str:
        return "finish" if self.is_finish else "start"

    def label(self) -> str:
        return f"{self.feature}={self.level}{'-' if self.is_finish else '+'}"


def group_order(ep: Endpoint):
    """Intra-group canonical order: Start block first, blocks sorted."""
    return (ep.is_finish, ep.feature, ep.level)


class EndpointGroup(NamedTuple):
    time: int
    endpoints: tuple[Endpoint, ...]


@dataclass(frozen=True)
class EndpointSequence:
    """Endpoint groups, paired when built: ``pairs`` holds (feature, level, start, end group)."""

    patient_id: str
    groups: tuple[EndpointGroup, ...]
    event: bool
    pairs: tuple[tuple[str, str, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            closed, left_open = pair_endpoints(g.endpoints for g in self.groups)
        except PairingError as exc:
            raise PairingError(f"{self.patient_id}: {exc}") from None
        if left_open:
            raise PairingError(f"{self.patient_id}: intervals never finished: {sorted(left_open)}")
        object.__setattr__(self, "pairs", tuple(closed))


def encode(
    patient_id: str,
    intervals: Iterable[StateInterval],
    severity_of: Mapping[tuple[str, str], str],
    event: bool,
) -> EndpointSequence:
    """Convert state intervals into the canonical endpoint sequence.

    Normal-severity levels are dropped (normal-pruning).  A single-wave
    interval places its Start and Finish in the same group.
    """
    ends: set[tuple[int, bool, str, str]] = set()
    for iv in intervals:
        feature, level = iv.feature, iv.level
        if severity_of.get((feature, level), "other") == "normal":
            continue
        ends.add((iv.start, False, feature, level))
        ends.add((iv.end, True, feature, level))
    # sorting (time, is_finish, feature, level) orders by time, then by group_order
    groups = tuple([
        EndpointGroup(time, tuple([Endpoint(f, lv, fin) for _, fin, f, lv in block]))
        for time, block in groupby(sorted(ends), key=itemgetter(0))
    ])
    return EndpointSequence(patient_id=patient_id, groups=groups, event=event)


def pair_endpoints(
    groups: Iterable[Iterable[Endpoint]],
) -> tuple[list[tuple[str, str, int, int]], dict[tuple[str, str], int]]:
    """Match every Start with its Finish across endpoint groups.

    Within a group, Starts open before Finishes close, so a single-group
    interval is well-formed.  Returns the closed intervals as
    ``(feature, level, start group, finish group)`` in closing order, and the
    still-open ``(feature, level)`` intervals mapped to their start group.
    Raises PairingError when an interval is opened while already open or
    closed without being open.
    """
    pending: dict[tuple[str, str], int] = {}
    closed: list[tuple[str, str, int, int]] = []
    for gi, group in enumerate(groups):
        for ep in sorted(group, key=lambda e: e.is_finish):
            key = (ep.feature, ep.level)
            if not ep.is_finish:
                if key in pending:
                    raise PairingError(f"{key} opened twice in group {gi}")
                pending[key] = gi
            elif key in pending:
                closed.append((ep.feature, ep.level, pending.pop(key), gi))
            else:
                raise PairingError(f"finish without open start for {key} in group {gi}")
    return closed, pending


def decode_intervals(seq: EndpointSequence) -> list[StateInterval]:
    """Invert ``encode``: rebuild the non-normal intervals from the endpoints."""
    times = [g.time for g in seq.groups]
    out = [
        StateInterval(feature, level, times[gs], times[ge])
        for feature, level, gs, ge in seq.pairs
    ]
    out.sort(key=lambda iv: (iv.feature, iv.level, iv.start))
    return out


def canonical_form(groups: Iterable[Iterable[Endpoint]]) -> tuple[tuple[Endpoint, ...], ...]:
    """Order-insensitive-within-group canonical key for a pattern's groups."""
    return tuple(tuple(sorted(g, key=group_order)) for g in groups)


def pattern_key(groups: Iterable[Iterable[Endpoint]]) -> str:
    """Canonical textual key, e.g. ``(bmi=Obese+)->(bmi=Obese-)``."""
    return "->".join(
        "(" + ",".join(ep.label() for ep in g) + ")" for g in canonical_form(groups)
    )


def groups_to_payload(groups: Iterable[Iterable[Endpoint]]) -> list[list[dict]]:
    """JSON shape for pattern groups."""
    return [
        [{"feature": ep.feature, "level": ep.level, "kind": ep.kind} for ep in g]
        for g in canonical_form(groups)
    ]


def groups_from_payload(payload) -> tuple[tuple[Endpoint, ...], ...]:
    return canonical_form(
        tuple(
            tuple(Endpoint(ep["feature"], ep["level"], ep["kind"] == "finish") for ep in g)
            for g in payload
        )
    )


@dataclass(frozen=True)
class PatientIntervals:
    patient_id: str
    time: float
    event: bool
    intervals: tuple[StateInterval, ...]


@dataclass(frozen=True)
class CohortIntervals:
    """The intermediate intervals artifact handed from abstraction to mining."""

    wave_count: int
    levels: Mapping[str, Mapping[str, str]]  # feature -> level -> severity
    patients: tuple[PatientIntervals, ...]
    edges: Mapping[str, Sequence[float]] | None = None

    def severity_of(self) -> dict[tuple[str, str], str]:
        return {
            (feature, level): sev
            for feature, by_level in self.levels.items()
            for level, sev in by_level.items()
        }

    def sequences(self) -> list[EndpointSequence]:
        sev = self.severity_of()
        return [encode(p.patient_id, p.intervals, sev, p.event) for p in self.patients]

    def outcomes(self) -> dict[str, tuple[float, bool]]:
        return {p.patient_id: (p.time, p.event) for p in self.patients}


def _number(x) -> str:
    """``x`` as ``json`` writes it."""
    if type(x) is int:
        return int.__repr__(x)
    if type(x) is float and math.isfinite(x):
        return float.__repr__(x)
    return json.dumps(x)


def _interval_text(iv: StateInterval) -> str:
    return (
        f'        {{\n          "feature": {json.dumps(iv.feature)},\n'
        f'          "level": {json.dumps(iv.level)},\n'
        f'          "start": {_number(iv.start)},\n          "end": {_number(iv.end)}\n'
        "        }"
    )


def write_intervals_json(doc: CohortIntervals, stream: IO[str]) -> None:
    """Write ``doc`` as ``json.dump(payload, stream, indent=2)`` plus a newline would.

    The layout is fixed, so the header goes through ``json`` and each patient
    and interval is written from a template, one patient at a time.  Strings
    are escaped by ``json`` itself.
    """
    header = json.dumps(
        {
            "wave_count": doc.wave_count,
            "levels": {f: dict(by) for f, by in sorted(doc.levels.items())},
            "edges": {f: list(e) for f, e in sorted((doc.edges or {}).items())},
        },
        indent=2,
    )
    stream.write(header[:-2] + ',\n  "patients": [')
    texts: dict[StateInterval, str] = {}  # interval with int waves -> its text
    sep = "\n"
    for p in doc.patients:
        lines = []
        for iv in p.intervals:
            if type(iv.start) is int and type(iv.end) is int:
                text = texts.get(iv)
                if text is None:
                    text = texts[iv] = _interval_text(iv)
            else:  # 2.0 == 2, so a float wave must not share an int wave's text
                text = _interval_text(iv)
            lines.append(text)
        intervals = "[\n" + ",\n".join(lines) + "\n      ]" if lines else "[]"
        stream.write(
            f'{sep}    {{\n      "patient_id": {json.dumps(p.patient_id)},\n'
            f'      "time": {_number(p.time)},\n      "event": {int(p.event)},\n'
            f'      "intervals": {intervals}\n    }}'
        )
        sep = ",\n"
    stream.write("\n  ]\n}\n" if doc.patients else "]\n}\n")


def _wave(pid, x) -> int:
    """An interval wave: an int, or a float such as ``2.0`` that is one; never a bool."""
    if type(x) is int or type(x) is float and x.is_integer():
        return int(x)
    raise MatrixFormatError(f"patient {pid!r}: interval waves must be integers, got {x!r}")


def _patient_intervals(p) -> PatientIntervals:
    """One patient's entry: event 0/1 or a bool, time finite and >= 1, integer waves."""
    pid, time, event = p["patient_id"], p["time"], p["event"]
    if type(event) not in (bool, int) or event not in (0, 1):
        raise MatrixFormatError(f"patient {pid!r}: event must be 0/1 or a bool, got {event!r}")
    if type(time) not in (int, float) or not (math.isfinite(time) and time >= 1):
        raise MatrixFormatError(f"patient {pid!r}: time must be finite and >= 1, got {time!r}")
    intervals = []
    for iv in p["intervals"]:
        start, end = iv["start"], iv["end"]
        if type(start) is not int or type(end) is not int:
            start, end = _wave(pid, start), _wave(pid, end)
        intervals.append(StateInterval(iv["feature"], iv["level"], start, end))
    return PatientIntervals(pid, float(time), bool(event), tuple(intervals))


def read_intervals_json(stream: IO[str]) -> CohortIntervals:
    try:
        payload = json.load(stream)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"bad intervals JSON: {exc}") from None
    try:
        patients = tuple(map(_patient_intervals, payload["patients"]))
        levels = payload["levels"]
        if not isinstance(levels, dict) or not all(isinstance(by, dict) for by in levels.values()):
            raise MatrixFormatError(
                "bad intervals JSON structure: levels must map each feature to an object"
            )
        return CohortIntervals(
            wave_count=int(payload["wave_count"]),
            levels=levels,
            patients=patients,
            edges=payload.get("edges") or None,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # overflow: an int time
        raise MatrixFormatError(f"bad intervals JSON structure: {exc}") from None
