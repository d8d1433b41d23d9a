"""Projection-based mining of high-relative-risk interval patterns.

Patterns are grown endpoint by endpoint over a shared, immutable endpoint
table.  A growth step survives only if the extended pattern clears the
support threshold, clears the risk threshold, and strictly increases the
risk over its parent.  Pruning strategies:

* normal-pruning   -- normal levels never enter the sequences (encoding),
* scan-pruning     -- suffixes are scanned only up to the earliest finish
                      of an interval the prefix holds open,
* point-pruning    -- a Finish extends a pattern only if its Start is open,
* postfix-pruning  -- Finish endpoints without an open Start are invisible
                      in suffix scans,
* risk-pruning     -- threshold plus strict-increase gate,
* duplicate-pruning-- canonical-form seen set cuts permuted regrowth.

The store is one endpoint table sorted by (row, group, token), with groups
numbered across the table, so a patient's endpoints are one contiguous run.
A projected database is a table of states: per state the patient, an
embedding's last matched group, and the finish group of each interval it
holds open.  Every state of a pattern holds the same intervals open, so the
finish groups form one matrix with a column per open interval.  A patient
keeps every distinct state, which makes projections independent of growth
order and support counts equal to true containment counts.  A scan expands
each state's window of endpoints in numpy, masks out what the growth rule
forbids, and sorts the hits by candidate ``(endpoint, site)`` and patient:
site 0 extends a state in its last matched group, site 1 in a later one.
Support counts the distinct (candidate, patient) pairs.  Projecting a
candidate selects its hits, inserts or drops one column and removes repeated
states; it tests nothing again.
"""
from __future__ import annotations

import bisect
import math
import multiprocessing
from concurrent import futures
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .encoding import (
    CohortIntervals,
    Endpoint,
    EndpointSequence,
    canonical_form,
    encode,
    group_order,
    pair_endpoints,
    pattern_key,
)
from .errors import (
    CohortValidationError,
    ConfigError,
    GuardError,
    PairingError,
    UndefinedRiskError,
)

# Brute-force oracle guard.
_GUARD_MAX_PATIENTS = 25
_GUARD_MAX_WAVE = 5
_GUARD_MAX_ENDPOINTS = 12


@dataclass(frozen=True)
class TemporalPattern:
    """Canonical endpoint groups, relative positions only; ill-formed ones raise ConfigError."""

    groups: tuple[tuple[Endpoint, ...], ...]
    closed: bool = field(init=False)

    def __post_init__(self):
        canon = canonical_form(self.groups)
        open_fls = _sweep_open(canon)
        if open_fls is None:
            raise ConfigError(f"ill-formed pattern groups: {canon}")
        object.__setattr__(self, "groups", canon)
        object.__setattr__(self, "closed", not open_fls)

    @property
    def length(self) -> int:
        return sum(len(g) for g in self.groups)

    def key(self) -> str:
        return pattern_key(self.groups)


@dataclass(frozen=True)
class MinerConfig:
    minsup: float = 0.05
    minsup_scope: str = "event_group"  # or "population"
    risk_sup: float = 1.5
    measure: str = "relative_risk"  # or "odds_ratio"
    max_length: int | None = None
    workers: int = 1

    def __post_init__(self):
        if not 0.0 < self.minsup <= 1.0:
            raise ConfigError(f"minsup must lie in (0, 1], got {self.minsup}")
        if self.minsup_scope not in ("event_group", "population"):
            raise ConfigError(f"unknown minsup_scope {self.minsup_scope!r}")
        if not (math.isfinite(self.risk_sup) and self.risk_sup > 0):
            raise ConfigError(f"risk_sup must be finite and positive, got {self.risk_sup}")
        if self.measure not in ("relative_risk", "odds_ratio"):
            raise ConfigError(f"unknown measure {self.measure!r}")
        if self.max_length is not None and self.max_length < 1:
            raise ConfigError("max_length must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


@dataclass(frozen=True)
class RiskStats:
    """2x2 contingency counts over patients plus derived measures.

    a: with pattern & event, b: with pattern & no event,
    c: without pattern & event, d: without pattern & no event.
    """

    a: int
    b: int
    c: int
    d: int
    support_pop: float
    support_event: float
    risk: float


def counts_stats(a: int, b: int, c: int, d: int, risk: float = 0.0) -> RiskStats:
    """Build a RiskStats from raw counts (supports derived)."""
    n = a + b + c + d
    events = a + c
    return RiskStats(
        a=a,
        b=b,
        c=c,
        d=d,
        support_pop=(a + b) / n if n else 0.0,
        support_event=a / events if events else 0.0,
        risk=risk,
    )


@dataclass(frozen=True)
class PatternResult:
    pattern: TemporalPattern
    stats: RiskStats
    matched: tuple[str, ...]


@dataclass
class MiningStats:
    nodes: int = 0
    candidates: int = 0
    emitted: int = 0
    duplicates: int = 0
    undefined_risk: int = 0

    def merge(self, other: "MiningStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


# ---------------------------------------------------------------------------
# Risk measures


def _risk_value(a: int, b: int, c: int, d: int, measure: str) -> float:
    if a + b == 0:
        raise UndefinedRiskError("pattern matches no patients: risk undefined")
    if c + d == 0:
        raise UndefinedRiskError("pattern matches every patient: risk undefined")
    if min(a, b, c, d) == 0:
        # Haldane-Anscombe continuity correction on all four cells.
        a, b, c, d = a + 0.5, b + 0.5, c + 0.5, d + 0.5
    else:
        a, b, c, d = float(a), float(b), float(c), float(d)
    if measure == "relative_risk":
        return (a / (a + b)) / (c / (c + d))
    return (a * d) / (b * c)


def relative_risk(stats) -> float:
    """RR = (a/(a+b)) / (c/(c+d)) with +0.5 correction on any zero cell."""
    return _risk_value(stats.a, stats.b, stats.c, stats.d, "relative_risk")


def odds_ratio(stats) -> float:
    """OR = (a*d) / (b*c) with +0.5 correction on any zero cell."""
    return _risk_value(stats.a, stats.b, stats.c, stats.d, "odds_ratio")


# ---------------------------------------------------------------------------
# Containment (embedding with pairing consistency)


def _embeds(store: _Store, row: int, pgroups, closable: bool = False) -> bool:
    """Backtracking embedding search of token pattern groups into one patient.

    Pattern groups map to strictly later data groups; all endpoints of a
    pattern group must share one data group; a Start and its Finish must map
    to the same data interval instance.  With ``closable`` every interval the
    pattern leaves open must finish at or after the last matched group.
    """
    split = [
        ([tok for tok in g if not tok & 1], [tok for tok in g if tok & 1]) for g in pgroups
    ]
    groups, partner = store.groups_of(row)
    n = len(groups)

    def rec(pi, min_g, open_map):
        if pi == len(split):
            if closable and open_map:
                last = min_g - 1
                return all(fin >= last for fin in open_map.values())
            return True
        starts, fins = split[pi]
        for h in range(min_g, n):
            tokens = groups[h]
            new_open = dict(open_map)
            ok = True
            for tok in starts:
                if tok not in tokens or tok >> 1 in new_open:
                    ok = False
                    break
                new_open[tok >> 1] = partner[(h, tok)]
            if ok:
                for tok in fins:
                    if new_open.get(tok >> 1) != h:
                        ok = False
                        break
                    del new_open[tok >> 1]
            if ok and rec(pi + 1, h + 1, new_open):
                return True
        return False

    found = rec(0, 0, {})
    del rec  # the closure refers to itself: without this the cycle would outlive the call
    return found


# ---------------------------------------------------------------------------
# Token-space endpoint table (shared, immutable)


class _Store:
    """The database as one endpoint table: token = fl_id * 2 + is_finish.

    Integer token order is the endpoint order: (feature, level), Start first.
    Endpoints are sorted by (row, group, token), and groups are numbered
    across the whole table, so a row's groups and a group's endpoints are
    contiguous.  Per endpoint: ``tok``, ``grp`` and ``partner`` (a Start's
    finish group, -1 for a Finish).  Row r holds groups ``row_groups[r]`` up
    to ``row_groups[r + 1]``, group g endpoints ``group_starts[g]`` up to
    ``group_starts[g + 1]``.  Per row: ``ids`` and ``event``.
    ``_Store.from_intervals(doc)`` builds the miner's table from the
    intervals; ``_Store(sequences)``, the oracle's reference, builds it from
    the pairs of each patient's ``encode``d sequence.
    """

    def __init__(self, db: Sequence[EndpointSequence]):
        pairs = [(r, *pair) for r, seq in enumerate(db) for pair in seq.pairs]
        self._index({(f, lv) for _, f, lv, _, _ in pairs})
        quadruples = np.array(
            [(r, 2 * self.fl_index[f, lv], gs, ge) for r, f, lv, gs, ge in pairs], dtype=np.intp
        ).reshape(-1, 4)
        self._build([s.patient_id for s in db], [s.event for s in db], *quadruples.T)

    @classmethod
    def from_intervals(cls, doc: CohortIntervals) -> "_Store":
        """The store of ``doc``'s sequences, built from its intervals with no pairing sweep.

        Normal levels are dropped and identical intervals collapse, as in
        ``encode``.  Every interval is a Start token at its start wave and a
        Finish token at its end wave, and the Start's partner is its own
        interval's end.  A patient whose intervals of one (feature, level)
        end before they start or overlap is rejected: the first such patient
        goes through ``encode``, which raises its PairingError.
        """
        severity = doc.severity_of()
        keys, row, kid, start, end = _shown_intervals(doc, severity)
        crossed = start > end  # or starting where the key's previous interval is still open
        crossed[1:] |= (row[1:] == row[:-1]) & (kid[1:] == kid[:-1]) & (start[1:] <= end[:-1])
        if crossed.any():
            r = int(row[crossed.argmax()])
            encode(doc.ids[r], doc.intervals_of(r), severity, doc.events[r])  # raises
        held = np.unique(kid)
        store = cls.__new__(cls)
        store._index([keys[k] for k in held.tolist()])
        store._build(doc.ids, doc.events, row, 2 * np.searchsorted(held, kid), start, end)
        return store

    def _index(self, fl_pairs) -> None:
        self.fl_pairs = sorted(fl_pairs)
        self.fl_index = {p: i for i, p in enumerate(self.fl_pairs)}

    def _build(self, ids, events, row, start_token, start, end) -> None:
        """The table of intervals given as (row, start token, start, end) quadruples.

        An interval puts ``start_token`` in the group of its start position
        and the Finish token after it in the group of its end position
        (non-negative ints, compared only within a row); a row's groups are
        its distinct positions in order.
        """
        self.ids = list(ids)
        self.event = np.array(events, dtype=bool)
        self.n = len(self.ids)
        self.n_events = int(np.count_nonzero(self.event))
        m = row.size
        n_pos = int(max(start.max(), end.max())) + 1 if m else 1
        n_tokens = 2 * len(self.fl_pairs)
        # one number per endpoint, ordering endpoints by (row, position, token)
        ep_group = np.concatenate([row, row]) * n_pos + np.concatenate([start, end])
        ep_key = ep_group * n_tokens + np.concatenate([start_token, start_token + 1])
        order = np.argsort(ep_key)
        ep_group = ep_group[order]
        opens = np.ones(2 * m, dtype=bool)  # the endpoint opens a group
        opens[1:] = ep_group[1:] != ep_group[:-1]
        self.tok = ep_key[order] % n_tokens
        self.grp = np.cumsum(opens) - 1
        self.group_starts = np.append(np.flatnonzero(opens), 2 * m)
        self.row_groups = np.searchsorted(ep_group[opens] // n_pos, np.arange(self.n + 1))
        place = np.empty(2 * m, dtype=np.intp)  # each endpoint's index in the table
        place[order] = np.arange(2 * m)
        self.partner = np.full(2 * m, -1, dtype=np.intp)
        self.partner[place[:m]] = self.grp[place[m:]]

    def endpoint(self, tok: int) -> Endpoint:
        feature, level = self.fl_pairs[tok >> 1]
        return Endpoint(feature, level, bool(tok & 1))

    def token(self, ep: Endpoint) -> int | None:
        fl = self.fl_index.get((ep.feature, ep.level))
        if fl is None:
            return None
        return fl * 2 + int(ep.is_finish)

    def groups_of(self, row: int) -> tuple[list[set[int]], dict[tuple[int, int], int]]:
        """A row's groups as token sets, and its (group, Start token) -> finish group map.

        Groups are numbered from 0 within the row.
        """
        first, stop = int(self.row_groups[row]), int(self.row_groups[row + 1])
        lo, hi = self.group_starts[first], self.group_starts[stop]
        groups: list[set[int]] = [set() for _ in range(stop - first)]
        partner = {}
        for tok, g, fin in zip(
            self.tok[lo:hi].tolist(), (self.grp[lo:hi] - first).tolist(),
            (self.partner[lo:hi] - first).tolist(),
        ):
            groups[g].add(tok)
            if not tok & 1:
                partner[g, tok] = fin
        return groups, partner

    @cached_property
    def presence(self) -> np.ndarray:
        """Patients x tokens: True where the patient's groups hold the token."""
        table = np.zeros((self.n, 2 * len(self.fl_pairs)), dtype=bool)
        sizes = np.diff(self.group_starts[self.row_groups])  # each row's endpoint count
        table[np.repeat(np.arange(self.n), sizes), self.tok] = True
        return table

    def carriers(self, groups) -> list[int]:
        """Indices of the patients into which the pattern groups embed.

        Only the patients that hold every token of the pattern are searched.
        """
        tgroups = [[self.token(ep) for ep in g] for g in groups]
        if any(None in g for g in tgroups):
            return []  # an endpoint no patient holds
        held = self.presence[:, [tok for g in tgroups for tok in g]].all(axis=1)
        return [i for i in np.flatnonzero(held).tolist() if _embeds(self, i, tgroups)]


def _shown_intervals(doc: CohortIntervals, severity):
    """Each patient's distinct non-normal intervals, sorted by (row, feature, level, start, end).

    Returns the sorted (feature, level) keys and, per interval, its row, its
    key's index, and its start and end as ranks among the distinct waves:
    order and equality are all the store needs of a wave.  Table entries
    that are equal (a wave 2 and a wave 2.0) are one interval.
    """
    distinct = sorted(set(doc.table))
    rank_of = {iv: i for i, iv in enumerate(distinct)}
    rank = np.array([rank_of[iv] for iv in doc.table], dtype=np.intp)  # per table entry
    features, levels, starts, ends = zip(*distinct) if distinct else ((), (), (), ())
    keys = sorted(set(zip(features, levels)))
    key_id = {key: i for i, key in enumerate(keys)}
    kid = np.array([key_id[key] for key in zip(features, levels)], dtype=np.intp)
    shown = np.array(
        [severity.get(key, "other") != "normal" for key in zip(features, levels)], dtype=bool
    )
    # one number per (row, distinct interval): sorted, each kept once
    n = max(len(distinct), 1)
    coded = np.sort(doc.row * n + rank[doc.code])
    coded = coded[shown[coded % n] & np.append(True, coded[1:] != coded[:-1])]
    rank = coded % n
    waves = np.unique(np.asarray(starts + ends))
    start = np.searchsorted(waves, np.asarray(starts))[rank]
    end = np.searchsorted(waves, np.asarray(ends))[rank]
    return keys, coded // n, kid[rank], start, end


def _group_key(tokens: Iterable[int]) -> tuple[int, ...]:
    # Canonical intra-group order: Start block then Finish block.
    return tuple(sorted(tokens, key=lambda t: (t & 1, t >> 1)))


class _States(NamedTuple):
    """A projected database: the states of every patient that carries a pattern.

    State i is an embedding into patient ``pat[i]`` whose last matched group
    is ``last[i]``.  Every state of a pattern holds the same intervals open,
    ``open`` (fl ids, ascending), and the instance of ``open[j]`` finishes in
    group ``fin[i, j]``.  Groups are the store's, and no two states are equal.
    """

    pat: np.ndarray
    last: np.ndarray
    fin: np.ndarray
    open: tuple[int, ...]


class _Scan(NamedTuple):
    """The candidates ``(token, site)`` that extend some state of a projected database.

    Candidate i is ``key[i] = token * 2 + site``, keys ascending; ``ab[i]``
    patients hold it, ``a[i]`` of them with the event.  Its hits are
    ``state[bounds[i]:bounds[i + 1]]`` and ``endpoint[...]``: the state each
    extends and the extending endpoint, ordered by patient.
    """

    key: np.ndarray
    ab: np.ndarray
    a: np.ndarray
    bounds: np.ndarray
    state: np.ndarray
    endpoint: np.ndarray


def _root_states(store: _Store, tok: int) -> _States:
    """The projected database of the Start ``tok`` alone: one state per group that holds it."""
    endpoint = np.flatnonzero(store.tok == tok)
    last = store.grp[endpoint]
    pat = np.searchsorted(store.row_groups, last, "right") - 1
    return _States(pat, last, store.partner[endpoint][:, None], (tok >> 1,))


def _scan_states(store: _Store, states: _States, last_set) -> _Scan:
    """Every candidate ``(token, site)`` that extends a state of ``states``, with its hits.

    This is the growth rule, and the only place it is tested.  A token extends
    the state ``(g, open)`` in group ``g`` (site 0) unless the pattern's last
    group already holds it, or in a later group (site 1) up to the earliest
    open finish (scan-pruning).  A Start qualifies only while its interval is
    closed, a Finish only at exactly its open instance's finish group (point-
    and postfix-pruning fall out of the pairing structure).
    """
    pat, last, fin, open_ = states
    # each state's window of endpoints, from its last group to its earliest open finish
    stop = fin.min(axis=1) if open_ else store.row_groups[pat + 1] - 1
    lo = store.group_starts[last]
    size = store.group_starts[stop + 1] - lo
    state = np.arange(pat.size).repeat(size)
    endpoint = np.arange(state.size) + (lo - size.cumsum() + size).repeat(size)
    tok, group = store.tok[endpoint], store.grp[endpoint]
    site = group > last[state]
    # per token: a Start of a closed interval, the column of an open interval's
    # Finish, and whether the pattern's last group holds it
    n_tokens = 2 * len(store.fl_pairs)
    fresh = np.zeros(n_tokens, dtype=bool)
    fresh[0::2] = True
    column = np.full(n_tokens, -1)
    for j, fl in enumerate(open_):
        fresh[2 * fl] = False
        column[2 * fl + 1] = j
    in_last = np.zeros(n_tokens, dtype=bool)
    in_last[list(last_set)] = True
    ok = fresh[tok]
    if open_:
        col = column[tok]
        ok |= (col >= 0) & (fin[state, col] == group)
    ok &= site | ~in_last[tok]
    if not ok.any():
        none = np.zeros(0, dtype=np.intp)
        return _Scan(none, none, none, np.zeros(1, dtype=np.intp), none, none)

    state, endpoint = state[ok], endpoint[ok]
    key = (tok[ok] * 2 + site[ok]) * store.n + pat[state]  # (candidate, patient)
    order = key.argsort(kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)  # the first hit of its (candidate, patient)
    first[1:] = key[1:] != key[:-1]
    candidate = key // store.n
    bounds = np.flatnonzero(np.concatenate(([True], candidate[1:] != candidate[:-1], [True])))
    starts = bounds[:-1]
    ab = np.add.reduceat(first, starts, dtype=np.intp)
    a = np.add.reduceat(first & store.event[key % store.n], starts, dtype=np.intp)
    return _Scan(candidate[starts], ab, a, bounds, state[order], endpoint[order])


def _project(store: _Store, states: _States, scan: _Scan, i: int) -> _States:
    """The projected database after extending candidate ``i``'s hits by its endpoint.

    It applies the scan's hits and tests nothing again.
    """
    hits = slice(scan.bounds[i], scan.bounds[i + 1])
    state, endpoint = scan.state[hits], scan.endpoint[hits]
    tok, site = divmod(int(scan.key[i]), 2)
    fl = tok >> 1
    fin = states.fin[state]
    if tok & 1:  # a Finish closes its interval: drop its column
        j = states.open.index(fl)
        fin = fin[:, [c for c in range(len(states.open)) if c != j]]
        open_ = states.open[:j] + states.open[j + 1:]
    else:  # a Start opens one: a column of its finish groups
        j = bisect.bisect(states.open, fl)
        fin = np.concatenate((fin[:, :j], store.partner[endpoint, None], fin[:, j:]), axis=1)
        open_ = states.open[:j] + (fl,) + states.open[j:]
    pat, last = states.pat[state], store.grp[endpoint]
    if site:
        # states that part only before this group extend to the same state;
        # in the last group each state has at most one hit, and keeps its own
        table = np.column_stack((last, fin))
        order = np.lexsort(table.T[::-1])
        table = table[order]
        distinct = np.ones(len(table), dtype=bool)
        distinct[1:] = (table[1:] != table[:-1]).any(axis=1)
        keep = order[distinct]
        pat, last, fin = pat[keep], last[keep], fin[keep]
    return _States(pat, last, fin, open_)


def _sweep_open(groups) -> frozenset | None:
    """Open (feature, level) set after the groups, or None if ill-formed."""
    try:
        return frozenset(pair_endpoints(groups)[1])
    except PairingError:
        return None


# ---------------------------------------------------------------------------
# Growth


def _gate(store: _Store, config: MinerConfig, ab: int, a: int, parent_risk: float,
          stats: MiningStats):
    """Support, risk and strict-increase test of ``ab`` carriers, ``a`` of them with the event.

    Returns ``((a, b, c, d), risk)`` for a pattern that clears ``minsup``,
    ``risk_sup`` and its parent's risk, else None.  Branch roots pass a parent
    risk of 0.0, which both (always positive) measures clear.
    """
    support = a / store.n_events if config.minsup_scope == "event_group" else ab / store.n
    if not support > config.minsup:
        return None
    b = ab - a
    c = store.n_events - a
    d = store.n - ab - c
    try:
        risk = _risk_value(a, b, c, d, config.measure)
    except UndefinedRiskError:
        stats.undefined_risk += 1
        return None
    if not (risk > config.risk_sup and risk > parent_risk):
        return None
    return (a, b, c, d), risk


def _roots(store: _Store, config: MinerConfig, stats: MiningStats) -> list[tuple[int, float]]:
    """Frequent high-risk Start tokens: the branch roots, with their risks."""
    ab = store.presence.sum(axis=0).tolist()
    a = store.presence[store.event].sum(axis=0).tolist()
    roots = []
    for tok in range(0, len(ab), 2):  # only starting endpoints seed growth
        gated = _gate(store, config, ab[tok], a[tok], 0.0, stats)
        if gated is not None:
            roots.append((tok, gated[1]))
    return roots


def _grow_branch(store: _Store, config: MinerConfig, root: int, root_risk: float):
    """Mine every pattern whose growth starts at the given Start endpoint.

    Returns the branch's ``(groups, counts, pids, risk)`` emissions and its
    search counters.
    """
    seen: set = set()
    emitted: list = []
    stats = MiningStats()

    def grow(key, last_set, states, risk, n_tokens):
        stats.nodes += 1
        if config.max_length is not None and n_tokens >= config.max_length:
            return
        scan = _scan_states(store, states, last_set)
        stats.candidates += len(scan.key)
        for i, (cand, ab, a) in enumerate(zip(scan.key.tolist(), scan.ab.tolist(),
                                              scan.a.tolist())):
            gated = _gate(store, config, ab, a, risk, stats)
            if gated is None:
                continue
            tok, site = divmod(cand, 2)
            if site == 0:
                new_last = last_set | {tok}
                new_key = key[:-1] + (_group_key(new_last),)
            else:
                new_last = frozenset((tok,))
                new_key = key + ((tok,),)
            if new_key in seen:
                stats.duplicates += 1
                continue
            seen.add(new_key)
            counts, new_risk = gated
            if tok & 1 and len(states.open) == 1:  # it closes the last open interval
                pids = np.unique(states.pat[scan.state[scan.bounds[i]:scan.bounds[i + 1]]])
                groups = tuple(tuple(store.endpoint(t) for t in g) for g in new_key)
                emitted.append((groups, counts, tuple(pids.tolist()), new_risk))
                stats.emitted += 1
            grow(new_key, new_last, _project(store, states, scan, i), new_risk, n_tokens + 1)

    grow(((root,),), frozenset((root,)), _root_states(store, root), root_risk, 1)
    del grow  # the closure refers to itself: without this the cycle would keep the store alive
    return emitted, stats


def _check_db(ids: Sequence[str], events) -> None:
    """Reject an empty database, one without both outcomes, or one that repeats a patient id."""
    if not ids:
        raise CohortValidationError("mining needs a non-empty database")
    n_events = int(np.count_nonzero(events))
    if n_events == 0 or n_events == len(ids):
        raise CohortValidationError(
            "mining needs at least one event and one non-event patient"
        )
    if len(set(ids)) != len(ids):
        raise CohortValidationError("duplicate patient ids in the database")


def _results(store: _Store, emitted) -> list[PatternResult]:
    """Sorted, deduplicated PatternResults from ``(groups, counts, pids, risk)`` emissions."""
    by_groups: dict = {}
    for groups, counts, pids, risk in emitted:
        if by_groups.setdefault(groups, (counts, pids, risk))[0] != counts:
            raise AssertionError(f"duplicate pattern with conflicting stats: {groups}")
    results = [
        PatternResult(
            pattern=TemporalPattern(groups),
            stats=counts_stats(*counts, risk),
            matched=tuple(sorted(store.ids[p] for p in pids)),
        )
        for groups, (counts, pids, risk) in by_groups.items()
    ]
    results.sort(key=lambda r: (-r.stats.risk, r.pattern.groups))
    return results


_WORKER_STATE: tuple[_Store, MinerConfig, list[tuple[int, float]]] | None = None


def _worker_init(store, config, roots):
    global _WORKER_STATE
    _WORKER_STATE = (store, config, roots)


def _worker_branch(i: int):
    store, config, roots = _WORKER_STATE
    return _grow_branch(store, config, *roots[i])


def mine_with_stats(
    doc: CohortIntervals, config: MinerConfig
) -> tuple[list[PatternResult], MiningStats]:
    """Mine ``doc`` with ``config.workers`` processes and report the search counters."""
    store = _Store.from_intervals(doc)
    _check_db(store.ids, store.event)
    stats = MiningStats()
    roots = _roots(store, config, stats)
    if config.workers == 1 or len(roots) <= 1:
        branches = [_grow_branch(store, config, *root) for root in roots]
    else:
        # forked workers inherit the store's arrays and the roots, so only
        # root indices are sent; a failing worker fails the whole run, and
        # pool.map re-raises the worker's own exception as the diagnostic
        with futures.ProcessPoolExecutor(
            max_workers=min(config.workers, len(roots)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init,
            initargs=(store, config, roots),
        ) as pool:
            branches = list(pool.map(_worker_branch, range(len(roots))))
    emitted: list = []
    for branch_emitted, branch_stats in branches:
        emitted.extend(branch_emitted)
        stats.merge(branch_stats)
    return _results(store, emitted), stats


def mine(doc: CohortIntervals, config: MinerConfig) -> list[PatternResult]:
    """All closed patterns reachable under the growth rules (see mine_with_stats)."""
    return mine_with_stats(doc, config)[0]


# ---------------------------------------------------------------------------
# Brute-force oracle


def brute_force_mine(doc: CohortIntervals, config: MinerConfig) -> list[PatternResult]:
    """Reference miner: generate-and-test growth with embedding-based support.

    Applies the same support/risk/strict-increase rules along every growth
    path but knows nothing about projections or scan pruning; support comes
    from direct embedding searches.  Its store is built from each patient's
    ``encode``d sequence, not by ``_Store.from_intervals``.  Guarded to small
    inputs.
    """
    _check_db(doc.ids, doc.events)
    if len(doc.ids) > _GUARD_MAX_PATIENTS:
        raise GuardError(f"brute force refuses more than {_GUARD_MAX_PATIENTS} patients")
    severity = doc.severity_of()
    db = [encode(p.patient_id, p.intervals, severity, p.event) for p in doc.patients]
    alphabet = sorted({ep for s in db for g in s.groups for ep in g.endpoints})
    max_wave = max((g.time for s in db for g in s.groups), default=0)
    if max_wave > _GUARD_MAX_WAVE:
        raise GuardError(f"brute force refuses waves beyond {_GUARD_MAX_WAVE}")
    if len(alphabet) > _GUARD_MAX_ENDPOINTS:
        raise GuardError(f"brute force refuses more than {_GUARD_MAX_ENDPOINTS} endpoints")

    store = _Store(db)
    events = store.event.tolist()
    carrier_cache: dict = {}
    uncounted = MiningStats()  # the oracle reports no search counters

    def gate(groups, parent_risk):
        pids = carrier_cache.get(groups)
        if pids is None:
            tgroups = [[store.token(ep) for ep in g] for g in groups]
            pids = tuple(i for i in range(store.n) if _embeds(store, i, tgroups, closable=True))
            carrier_cache[groups] = pids
        a = sum(events[i] for i in pids)
        gated = _gate(store, config, len(pids), a, parent_risk, uncounted)
        return None if gated is None else (pids, *gated)

    seen: set = set()
    emitted: list = []

    def grow(groups, parent_risk, n_tokens):
        if config.max_length is not None and n_tokens >= config.max_length:
            return
        for ep in alphabet:
            for site in (0, 1):
                if site == 0:
                    if ep in groups[-1]:
                        continue
                    cand = groups[:-1] + (tuple(sorted((*groups[-1], ep), key=group_order)),)
                else:
                    cand = groups + ((ep,),)
                open_after = _sweep_open(cand)
                if open_after is None:
                    continue
                res = gate(cand, parent_risk)
                if res is None:
                    continue
                if cand in seen:
                    continue
                seen.add(cand)
                pids, counts, risk = res
                if not open_after:
                    emitted.append((cand, counts, pids, risk))
                grow(cand, risk, n_tokens + 1)

    for ep in alphabet:
        if ep.is_finish:
            continue
        base = ((ep,),)
        res = gate(base, 0.0)
        if res is not None:
            grow(base, res[2], 1)
    del grow  # as in _grow_branch: the closure refers to itself
    return _results(store, emitted)
