"""Endpoint-sequence representation of state intervals.

Every non-normal interval [s, e] contributes a Start endpoint at wave s and
a Finish endpoint at wave e; normal-severity levels emit nothing.  Endpoints
sharing a wave form one group.  Within a group the stored order is a pure
canonical form (Start block before Finish block, each block sorted):
pattern semantics depend only on group membership.

The intervals travel from abstraction to ``intervals.json`` and the miner
as one dictionary-encoded ``CohortIntervals``: ``table`` holds each distinct
``StateInterval`` once, as given (an int wave and a float wave stay apart),
and two int arrays, ``row`` and ``code``, hold one entry per occurrence, in
patient order and then in the order given; ``ids``, ``times`` and ``events``
hold one per patient.  ``patients`` is a view of ``PatientIntervals`` built
on first use, and ``CohortIntervals(wave_count, levels, patients, edges)``
still builds a document by encoding the patients it is given.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .abstraction import StateInterval
from .errors import MatrixFormatError, PairingError, utf8_text


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

    Normal-severity levels are dropped (normal-pruning) and identical
    intervals collapse.  A single-wave interval places its Start and Finish
    in the same group.  Abstraction merges a level's consecutive waves, so
    an interval that ends before it starts, or overlaps the previous one of
    its (feature, level), raises PairingError naming the patient.
    """
    shown = sorted({
        (iv.feature, iv.level, iv.start, iv.end) for iv in intervals
        if severity_of.get((iv.feature, iv.level), "other") != "normal"
    })
    ends: list[tuple[int, bool, str, str]] = []
    for prev, (feature, level, start, end) in zip([None, *shown], shown):
        if end < start or prev is not None and prev[:2] == (feature, level) and start <= prev[3]:
            crossed = "an interval ends before it starts" if end < start else "intervals overlap"
            raise PairingError(f"{patient_id}: {(feature, level)} {crossed}")
        ends += [(start, False, feature, level), (end, True, feature, level)]
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


class _PatientsView:
    """``CohortIntervals.patients``: encoded when set, decoded into a tuple on first read."""

    def __get__(self, doc, owner=None):
        if doc is None:
            raise AttributeError("patients")  # so the dataclass field has no default
        view = doc.__dict__.get("_patients")
        if view is None:
            table, bounds = doc.table, doc.bounds().tolist()
            flat = list(map(table.__getitem__, doc.code.tolist()))
            view = tuple(map(
                PatientIntervals, doc.ids, doc.times, doc.events,
                [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])],
            ))
            object.__setattr__(doc, "_patients", view)
        return view

    def __set__(self, doc, patients):
        doc._encoded(*_dictionary_encode(
            (p.patient_id, p.time, p.event, p.intervals) for p in patients
        ))


def _dictionary_encode(patients: Iterable[tuple]) -> tuple:
    """Encode (patient_id, time, event, intervals) entries: table, row, code, ids, times, events.

    An interval is any (feature, level, start, end) tuple.  Each distinct one
    gets the next code when first met, keyed with its wave types so that 1
    and 1.0 stay apart, and its table entry is a ``StateInterval``.
    """
    index: dict = {}  # (interval, wave types) -> code
    code: list[int] = []
    counts, ids, times, events = [], [], [], []
    for pid, time, event, intervals in patients:
        codes = [index.setdefault((iv, type(iv[2]), type(iv[3])), len(index)) for iv in intervals]
        code += codes
        counts.append(len(codes))
        ids.append(pid)
        times.append(time)
        events.append(event)
    return (
        [StateInterval._make(iv) for iv, _, _ in index],
        np.repeat(np.arange(len(counts)), counts),
        np.array(code, dtype=np.intp),
        ids,
        times,
        events,
    )


@dataclass(frozen=True)
class CohortIntervals:
    """The intermediate intervals artifact handed from abstraction to mining.

    Dictionary-encoded (see the module docstring): occurrence k is
    ``table[code[k]]`` of patient ``row[k]``, rows ascending, and per patient
    ``ids``, ``times`` and ``events``.  ``from_table`` shares encoded arrays.
    """

    wave_count: int
    levels: Mapping[str, Mapping[str, str]]  # feature -> level -> severity
    patients: tuple[PatientIntervals, ...] = _PatientsView()
    edges: Mapping[str, Sequence[float]] | None = None

    @classmethod
    def from_table(cls, wave_count, levels, edges, table, row, code, ids, times, events):
        """A document over encoded intervals: ``row`` ascending, ``code`` indexing ``table``."""
        doc = cls.__new__(cls)
        for name, value in (("wave_count", wave_count), ("levels", levels), ("edges", edges)):
            object.__setattr__(doc, name, value)
        doc._encoded(table, row, code, ids, times, events)
        return doc

    def _encoded(self, table, row, code, ids, times, events) -> None:
        for name, value in (("table", tuple(table)), ("row", row), ("code", code),
                            ("ids", tuple(ids)), ("times", tuple(times)),
                            ("events", tuple(events))):
            object.__setattr__(self, name, value)

    def bounds(self) -> np.ndarray:
        """Patient i's occurrences are ``bounds[i]`` up to ``bounds[i + 1]``."""
        return np.searchsorted(self.row, np.arange(len(self.ids) + 1))

    def intervals_of(self, i: int) -> tuple[StateInterval, ...]:
        """Patient ``i``'s intervals, in the order given."""
        lo, hi = np.searchsorted(self.row, (i, i + 1)).tolist()
        return tuple(map(self.table.__getitem__, self.code[lo:hi].tolist()))

    def severity_of(self) -> dict[tuple[str, str], str]:
        return {
            (feature, level): sev
            for feature, by_level in self.levels.items()
            for level, sev in by_level.items()
        }

    def outcomes(self) -> dict[str, tuple[float, bool]]:
        return dict(zip(self.ids, zip(self.times, self.events)))


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


_CHUNK = 1000  # patients rendered per write


def write_intervals_json(doc: CohortIntervals, stream: IO[str]) -> None:
    """Write ``doc`` as ``json.dump(payload, stream, indent=2)`` plus a newline would.

    The layout is fixed, so the header goes through ``json`` and each table
    entry's text is rendered once from a template.  The patients follow
    ``_CHUNK`` at a time: an object array of text pieces (each patient's
    fields between constant pieces, then its intervals' texts, picked by
    code, between separators) joined by one ``"".join`` and one ``write``;
    strings are escaped as ``json`` escapes them.  What
    ``read_intervals_json`` would refuse raises its ``MatrixFormatError``
    before anything is written: a bad event or time, then a wave that is no
    integer (a bool, or a float such as 1.5), checked once per table entry
    and reported for the first patient that holds it.
    """
    for pid, time, event in zip(doc.ids, doc.times, doc.events):
        _check_outcome(pid, time, event)
    table, code = doc.table, doc.code
    refused = np.array([not (_integral(iv.start) and _integral(iv.end)) for iv in table],
                       dtype=bool)[code]  # per occurrence
    if refused.any():
        k = int(np.flatnonzero(refused)[0])
        iv, pid = table[code[k]], doc.ids[doc.row[k]]
        _wave(pid, iv.start)
        _wave(pid, iv.end)
    header = json.dumps(
        {
            "wave_count": doc.wave_count,
            "levels": {f: dict(by) for f, by in sorted(doc.levels.items())},
            "edges": {f: list(e) for f, e in sorted((doc.edges or {}).items())},
        },
        indent=2,
    )
    stream.write(header[:-2] + ',\n  "patients": [')
    texts = np.array([_interval_text(iv) for iv in table], dtype=object)
    # after an interval: another one, or the end of the patient's entry
    close = np.array([",\n", "\n      ]\n    }"], dtype=object)
    # after "event": the event, then the intervals' opening; index 2 event + (any intervals)
    opening = np.array([f'{event},\n      "intervals": {bracket}'
                        for event in (0, 1) for bracket in ("[]\n    }", "[\n")], dtype=object)
    bounds = doc.bounds()
    for a in range(0, len(doc.ids), _CHUNK):
        b = min(a + _CHUNK, len(doc.ids))
        lo, hi = int(bounds[a]), int(bounds[b])
        counts = np.diff(bounds[a:b + 1])
        # a patient's six pieces, then two per interval: patient i's start after
        # the 6 i pieces of the patients before it and their intervals' pieces
        first = 6 * np.arange(b - a) + 2 * (bounds[a:b] - lo)
        pieces = np.empty(6 * (b - a) + 2 * (hi - lo), dtype=object)
        pieces[first] = ',\n    {\n      "patient_id": '
        pieces[first + 1] = _strings(doc.ids[a:b])
        pieces[first + 2] = ',\n      "time": '
        pieces[first + 3] = list(map(_number, doc.times[a:b]))
        pieces[first + 4] = ',\n      "event": '
        events = np.array(doc.events[a:b], dtype=np.intp)
        pieces[first + 5] = opening[2 * events + (counts > 0)]
        if hi > lo:
            at = 6 * (doc.row[lo:hi] - a + 1) + 2 * np.arange(hi - lo)
            pieces[at] = texts[code[lo:hi]]
            last = np.zeros(hi - lo, dtype=np.intp)
            last[np.cumsum(counts[counts > 0]) - 1] = 1
            pieces[at + 1] = close[last]
        if a == 0:
            pieces[0] = '\n    {\n      "patient_id": '
        stream.write("".join(pieces.tolist()))
    stream.write("\n  ]\n}\n" if doc.ids else "]\n}\n")


def _strings(ids) -> list[str]:
    """Each id as ``json.dumps`` writes it; the C escaper it uses when all are strs."""
    try:
        return list(map(encode_basestring_ascii, ids))
    except TypeError:
        return list(map(json.dumps, ids))


def _integral(x) -> bool:
    """An int, or a float such as ``2.0`` that is one; never a bool."""
    return type(x) is int or type(x) is float and x.is_integer()


def _wave(pid, x) -> int:
    """An interval wave as an int; anything ``_integral`` refuses raises."""
    if _integral(x):
        return int(x)
    raise MatrixFormatError(f"patient {pid!r}: interval waves must be integers, got {x!r}")


def _check_outcome(pid, time, event) -> None:
    """Event 0/1 or a bool, time an int or float that is finite and >= 1."""
    if type(event) not in (bool, int) or event not in (0, 1):
        raise MatrixFormatError(f"patient {pid!r}: event must be 0/1 or a bool, got {event!r}")
    if type(time) not in (int, float) or not (math.isfinite(time) and time >= 1):
        raise MatrixFormatError(f"patient {pid!r}: time must be finite and >= 1, got {time!r}")


def _read_patient(p) -> tuple:
    """A checked ``intervals.json`` patient entry as (patient_id, time, event, intervals)."""
    pid, time, event = p["patient_id"], p["time"], p["event"]
    _check_outcome(pid, time, event)
    intervals = []
    for iv in p["intervals"]:
        start, end = iv["start"], iv["end"]
        if type(start) is not int or type(end) is not int:
            start, end = _wave(pid, start), _wave(pid, end)
        intervals.append((iv["feature"], iv["level"], start, end))
    return pid, float(time), bool(event), intervals


@utf8_text(MatrixFormatError, "the intervals file")
def read_intervals_json(stream: IO[str]) -> CohortIntervals:
    """Read ``intervals.json`` into the encoded form; equal intervals share a table entry.

    Events must be 0/1 or bools, times finite and >= 1, waves integers (an
    integral float becomes an int).
    """
    try:
        payload = json.load(stream)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"bad intervals JSON: {exc}") from None
    try:
        encoded = _dictionary_encode(map(_read_patient, payload["patients"]))
        levels = payload["levels"]
        if not isinstance(levels, dict) or not all(isinstance(by, dict) for by in levels.values()):
            raise MatrixFormatError(
                "bad intervals JSON structure: levels must map each feature to an object"
            )
        return CohortIntervals.from_table(
            int(payload["wave_count"]),
            levels,
            payload.get("edges") or None,
            *encoded,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # overflow: an int time
        raise MatrixFormatError(f"bad intervals JSON structure: {exc}") from None
