"""Projection-based mining of high-relative-risk interval patterns.

Patterns are grown endpoint by endpoint over a shared, immutable sequence
store.  A growth step survives only if the extended pattern clears the
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

A projected database maps each patient carrying the pattern to its states
``(g, open)``: an embedding's last matched group and the finish group of each
interval it holds open.  A patient keeps every distinct state, which makes
projections independent of growth order and support counts equal to true
containment counts.  A scan of the states returns each candidate
``(endpoint, site)``'s hits, the ``(patient, open map, group)`` at which the
endpoint extends a state in its last matched group (site 0) or a later one
(site 1).  Support counts the hits' distinct patients; projecting applies the
hits and tests nothing again.
"""
from __future__ import annotations

import math
import multiprocessing
from concurrent import futures
from dataclasses import dataclass, field, fields
from itertools import count
from typing import Iterable, Sequence

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


def _embeds(pat: _PatientSeq, pgroups, closable: bool = False) -> bool:
    """Backtracking embedding search of token pattern groups into one patient.

    Pattern groups map to strictly later data groups; all endpoints of a
    pattern group must share one data group; a Start and its Finish must map
    to the same data interval instance.  With ``closable`` every interval the
    pattern leaves open must finish at or after the last matched group.
    """
    split = [
        ([tok for tok in g if not tok & 1], [tok for tok in g if tok & 1]) for g in pgroups
    ]
    n = len(pat.groups)

    def rec(pi, min_g, open_map):
        if pi == len(split):
            if closable and open_map:
                last = min_g - 1
                return all(fin >= last for fin in open_map.values())
            return True
        starts, fins = split[pi]
        for h in range(min_g, n):
            tokens = pat.groups[h]
            new_open = dict(open_map)
            ok = True
            for tok in starts:
                if tok not in tokens or tok >> 1 in new_open:
                    ok = False
                    break
                new_open[tok >> 1] = pat.partner[(h, tok)]
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
    del rec  # the closure refers to itself: without this the cycle would keep ``pat`` alive
    return found


def contains(sequence: EndpointSequence, pattern) -> bool:
    """True iff the pattern embeds into the patient's endpoint sequence."""
    groups = pattern.groups if isinstance(pattern, TemporalPattern) else canonical_form(pattern)
    return bool(_Store([sequence]).carriers(groups))


# ---------------------------------------------------------------------------
# Token-space sequence store (shared, immutable)


class _PatientSeq:
    __slots__ = ("patient_id", "event", "groups", "partner")

    def __init__(self, patient_id, event, groups, partner):
        self.patient_id = patient_id
        self.event = event
        self.groups = groups    # list[tuple[int, ...]], each sorted
        self.partner = partner  # (group_idx, start_token) -> finish group_idx


class _Store:
    """Token-indexed view of the database: token = fl_id * 2 + is_finish.

    Integer token order is the endpoint order: (feature, level), Start first.
    ``_Store(sequences)`` tokenises each sequence's pairs;
    ``_Store.from_intervals(doc)`` builds the same store from the intervals.
    """

    def __init__(self, db: Sequence[EndpointSequence]):
        self._index({(f, lv) for s in db for f, lv, _, _ in s.pairs})
        self.patients = [self._tokenised(seq) for seq in db]
        self._count()

    @classmethod
    def from_intervals(cls, doc: CohortIntervals) -> "_Store":
        """The store of ``doc``'s sequences, built from its intervals with no pairing sweep.

        Normal levels are dropped and identical intervals collapse, as in
        ``encode``.  Where each (feature, level)'s intervals have start <= end
        and each starts after the previous one ends, every interval is a
        Start token at its start wave and a Finish token at its end wave, and
        the Start's partner is its own interval's end.  A patient with any
        other intervals is encoded, so it pairs, or raises PairingError, as
        its ``EndpointSequence`` does.
        """
        records = doc.patients
        severity = doc.severity_of()
        keys, row, kid, start, end = _shown_intervals(records, severity)
        crossed = start > end  # or starting where the key's previous interval is still open
        crossed[1:] |= (row[1:] == row[:-1]) & (kid[1:] == kid[:-1]) & (start[1:] <= end[:-1])
        odd = sorted(set(row[crossed].tolist()))
        encoded = {
            r: encode(records[r].patient_id, records[r].intervals, severity, records[r].event)
            for r in odd
        }
        plain = ~np.isin(row, odd)
        row, kid, start, end = row[plain], kid[plain], start[plain], end[plain]

        store = cls.__new__(cls)
        store._index(
            {keys[k] for k in np.flatnonzero(np.bincount(kid, minlength=len(keys))).tolist()}
            | {(f, lv) for seq in encoded.values() for f, lv, _, _ in seq.pairs}
        )
        token = np.array([2 * store.fl_index.get(key, -1) for key in keys], dtype=np.intp)
        groups, partners = _groups_and_partners(len(records), row, token[kid], start, end)
        store.patients = [
            store._tokenised(encoded[r]) if r in encoded
            else _PatientSeq(p.patient_id, p.event, groups[r], partners[r])
            for r, p in enumerate(records)
        ]
        store._count()
        return store

    def _index(self, fl_pairs) -> None:
        self.fl_pairs = sorted(fl_pairs)
        self.fl_index = {p: i for i, p in enumerate(self.fl_pairs)}

    def _tokenised(self, seq: EndpointSequence) -> _PatientSeq:
        groups = [[] for _ in range(len(seq.groups))]
        partner = {}
        for feature, level, gs, ge in seq.pairs:
            tok = self.fl_index[feature, level] * 2
            groups[gs].append(tok)
            groups[ge].append(tok + 1)
            partner[gs, tok] = ge
        return _PatientSeq(seq.patient_id, seq.event, [tuple(sorted(g)) for g in groups], partner)

    def _count(self) -> None:
        self.n = len(self.patients)
        self.n_events = sum(1 for p in self.patients if p.event)

    def endpoint(self, tok: int) -> Endpoint:
        feature, level = self.fl_pairs[tok >> 1]
        return Endpoint(feature, level, bool(tok & 1))

    def token(self, ep: Endpoint) -> int | None:
        fl = self.fl_index.get((ep.feature, ep.level))
        if fl is None:
            return None
        return fl * 2 + int(ep.is_finish)

    def carriers(self, groups) -> list[int]:
        """Indices of the patients into which the pattern groups embed."""
        tgroups = [[self.token(ep) for ep in g] for g in groups]
        if any(None in g for g in tgroups):
            return []  # an endpoint no patient holds
        return [i for i, pat in enumerate(self.patients) if _embeds(pat, tgroups)]


def _shown_intervals(records, severity):
    """Each patient's distinct non-normal intervals, sorted by (row, feature, level, start, end).

    Returns the sorted (feature, level) keys and, per interval, its row, its
    key's index, and its start and end as ranks among the distinct waves:
    order and equality are all the store needs of a wave.
    """
    flat = [iv for p in records for iv in p.intervals]
    first_at: dict = {}  # interval -> position of its first copy
    first = np.fromiter(map(first_at.setdefault, flat, count()), np.intp, len(flat))
    distinct = sorted(first_at)
    rank_at = np.empty(len(flat), dtype=np.intp)  # at a first copy: the interval's rank
    rank_at[[first_at[iv] for iv in distinct]] = np.arange(len(distinct))
    features, levels, starts, ends = zip(*distinct) if distinct else ((), (), (), ())
    keys = sorted(set(zip(features, levels)))
    key_id = {key: i for i, key in enumerate(keys)}
    kid = np.array([key_id[key] for key in zip(features, levels)], dtype=np.intp)
    shown = np.array(
        [severity.get(key, "other") != "normal" for key in zip(features, levels)], dtype=bool
    )
    # one number per (row, distinct interval): sorted, each kept once
    n = max(len(distinct), 1)
    coded = np.repeat(np.arange(len(records)) * n, [len(p.intervals) for p in records])
    coded = np.sort(coded + rank_at[first])
    coded = coded[shown[coded % n] & np.append(True, coded[1:] != coded[:-1])]
    rank = coded % n
    waves = np.unique(np.asarray(starts + ends))
    start = np.searchsorted(waves, np.asarray(starts))[rank]
    end = np.searchsorted(waves, np.asarray(ends))[rank]
    return keys, coded // n, kid[rank], start, end


def _groups_and_partners(n_rows: int, row, start_token, start, end):
    """Each row's token groups and partner map, from intervals sorted by row.

    An interval puts ``start_token`` in the group of its start wave and the
    Finish token after it in the group of its end wave (waves as non-negative
    ranks); a row's groups are its distinct waves in order, each group's
    tokens sorted.  A partner map takes (start group, Start token) to the
    finish group.
    """
    m = row.size
    n_waves = int(max(start.max(), end.max())) + 1 if m else 1
    n_tokens = int(start_token.max()) + 2 if m else 2
    # one number per endpoint, ordering endpoints by (row, wave, token)
    ep_group = np.concatenate([row, row]) * n_waves + np.concatenate([start, end])
    ep_key = ep_group * n_tokens + np.concatenate([start_token, start_token + 1])
    order = np.argsort(ep_key)
    ep_group = ep_group[order]
    opens = np.ones(2 * m, dtype=bool)  # the endpoint opens a group
    opens[1:] = ep_group[1:] != ep_group[:-1]
    row_cuts = np.searchsorted(ep_group[opens] // n_waves, np.arange(n_rows + 1))
    group_at = np.empty(2 * m, dtype=np.intp)  # each endpoint's group within its row
    group_at[order] = np.cumsum(opens) - 1 - row_cuts[ep_group // n_waves]

    tokens = tuple((ep_key[order] % n_tokens).tolist())
    cuts = [*np.flatnonzero(opens).tolist(), 2 * m]
    all_groups = [tokens[a:b] for a, b in zip(cuts, cuts[1:])]
    row_cuts = row_cuts.tolist()
    groups = [all_groups[a:b] for a, b in zip(row_cuts, row_cuts[1:])]
    keys = list(zip(group_at[:m].tolist(), start_token.tolist()))
    finish = group_at[m:].tolist()
    cuts = np.searchsorted(row, np.arange(n_rows + 1)).tolist()
    partners = [dict(zip(keys[a:b], finish[a:b])) for a, b in zip(cuts, cuts[1:])]
    return groups, partners


def _group_key(tokens: Iterable[int]) -> tuple[int, ...]:
    # Canonical intra-group order: Start block then Finish block.
    return tuple(sorted(tokens, key=lambda t: (t & 1, t >> 1)))


# A projection state is (last_matched_group, open) where open is a tuple of
# (fl_id, finish_group) pairs sorted by fl_id.  A hit is (patient index,
# open map of the state it extends, group of the extending endpoint).


def _scan_states(store, pdb, last_set):
    """Hits of every candidate ``(token, site)`` that extends a state of ``pdb``.

    This is the growth rule, and the only place it is tested.  A token extends
    the state ``(g, open)`` in group ``g`` (site 0) unless the pattern's last
    group already holds it, or in a later group (site 1) up to the earliest
    open finish (scan-pruning).  A Start qualifies only while its interval is
    closed, a Finish only at exactly its open instance's finish group (point-
    and postfix-pruning fall out of the pairing structure).
    """
    out: dict[tuple[int, int], list] = {}
    for pidx in sorted(pdb):
        pat = store.patients[pidx]
        for g, open_ in pdb[pidx]:
            open_map = dict(open_)
            e_min = min(open_map.values(), default=len(pat.groups) - 1)
            for h in range(g, e_min + 1):
                for tok in pat.groups[h]:
                    if tok & 1:
                        if open_map.get(tok >> 1) != h:
                            continue
                    elif (tok >> 1) in open_map:
                        continue
                    site = int(h > g)
                    if site or tok not in last_set:
                        out.setdefault((tok, site), []).append((pidx, open_map, h))
    return out


def _project(store, hits, tok):
    """The projected database after extending every hit's state by ``tok``."""
    fl = tok >> 1
    new_pdb: dict[int, set] = {}
    for pidx, open_map, h in hits:
        opened = dict(open_map)
        if tok & 1:
            del opened[fl]
        else:
            opened[fl] = store.patients[pidx].partner[(h, tok)]
        new_pdb.setdefault(pidx, set()).add((h, tuple(sorted(opened.items()))))
    return {pidx: sorted(states) for pidx, states in new_pdb.items()}


def _sweep_open(groups) -> frozenset | None:
    """Open (feature, level) set after the groups, or None if ill-formed."""
    try:
        return frozenset(pair_endpoints(groups)[1])
    except PairingError:
        return None


# ---------------------------------------------------------------------------
# Growth


def _gate(store: _Store, config: MinerConfig, pids, parent_risk: float, stats: MiningStats):
    """Support, risk and strict-increase test of one carrier set.

    Returns ``((a, b, c, d), risk)`` for a pattern that clears ``minsup``,
    ``risk_sup`` and its parent's risk, else None.  Branch roots pass a parent
    risk of 0.0, which both (always positive) measures clear.
    """
    ab = len(pids)
    a = sum(1 for p in pids if store.patients[p].event)
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


def _roots(store: _Store, config: MinerConfig, stats: MiningStats) -> list[tuple]:
    """Frequent high-risk Start endpoints: the branch roots, with their risks and hits."""
    carriers: dict[int, list[int]] = {}
    for pidx, pat in enumerate(store.patients):
        for tok in set().union(*pat.groups):
            carriers.setdefault(tok, []).append(pidx)
    roots = []
    for tok in sorted(carriers):
        if tok & 1:
            continue  # only starting endpoints seed growth
        gated = _gate(store, config, carriers[tok], 0.0, stats)
        if gated is not None:
            hits = [(pidx, {}, g) for pidx in carriers[tok]
                    for g, tokens in enumerate(store.patients[pidx].groups) if tok in tokens]
            roots.append((tok, gated[1], hits))
    return roots


def _grow_branch(store: _Store, config: MinerConfig, root: int, root_risk: float, hits):
    """Mine every pattern whose growth starts at the given Start endpoint.

    ``hits`` are the root's hits, one per group that holds it.  Returns the
    branch's ``(groups, counts, pids, risk)`` emissions and its search counters.
    """
    seen: set = set()
    emitted: list = []
    stats = MiningStats()

    def grow(key, last_set, open_fls, pdb, risk, n_tokens):
        stats.nodes += 1
        if config.max_length is not None and n_tokens >= config.max_length:
            return
        cands = _scan_states(store, pdb, last_set)
        for tok, site in sorted(cands):
            stats.candidates += 1
            hits = cands[(tok, site)]
            pids = sorted({pidx for pidx, _, _ in hits})
            gated = _gate(store, config, pids, risk, stats)
            if gated is None:
                continue
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
            fl = tok >> 1
            new_open = open_fls - {fl} if tok & 1 else open_fls | {fl}
            counts, new_risk = gated
            if not new_open:
                groups = tuple(tuple(store.endpoint(t) for t in g) for g in new_key)
                emitted.append((groups, counts, tuple(pids), new_risk))
                stats.emitted += 1
            grow(new_key, new_last, new_open, _project(store, hits, tok), new_risk, n_tokens + 1)

    grow(
        ((root,),), frozenset((root,)), frozenset((root >> 1,)), _project(store, hits, root),
        root_risk, 1,
    )
    del grow  # the closure refers to itself: without this the cycle would keep the store alive
    return emitted, stats


def _check_db(db) -> None:
    """Reject an empty database, one without both outcomes, or one that repeats a patient id.

    ``db`` holds anything with a ``patient_id`` and an ``event``.
    """
    if not db:
        raise CohortValidationError("mining needs a non-empty database")
    events = sum(1 for s in db if s.event)
    if events == 0 or events == len(db):
        raise CohortValidationError(
            "mining needs at least one event and one non-event patient"
        )
    ids = [s.patient_id for s in db]
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
            matched=tuple(sorted(store.patients[p].patient_id for p in pids)),
        )
        for groups, (counts, pids, risk) in by_groups.items()
    ]
    results.sort(key=lambda r: (-r.stats.risk, r.pattern.groups))
    return results


_WORKER_STATE: tuple[_Store, MinerConfig] | None = None


def _worker_init(store, config):
    global _WORKER_STATE
    _WORKER_STATE = (store, config)


def _worker_branch(root):
    return _grow_branch(*_WORKER_STATE, *root)


def mine_with_stats(
    db: Sequence[EndpointSequence] | CohortIntervals, config: MinerConfig
) -> tuple[list[PatternResult], MiningStats]:
    """Mine with ``config.workers`` processes and report the search counters.

    ``db`` is either the endpoint sequences or the intervals they encode; a
    ``CohortIntervals`` gives the same results without building sequences.
    """
    if isinstance(db, CohortIntervals):
        store = _Store.from_intervals(db)
    else:
        store = _Store(db)
    _check_db(store.patients)
    stats = MiningStats()
    roots = _roots(store, config, stats)
    if config.workers == 1 or len(roots) <= 1:
        branches = [_grow_branch(store, config, *root) for root in roots]
    else:
        # a failing worker fails the whole run; pool.map re-raises the
        # worker's own exception as the diagnostic
        with futures.ProcessPoolExecutor(
            max_workers=min(config.workers, len(roots)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init,
            initargs=(store, config),
        ) as pool:
            branches = list(pool.map(_worker_branch, roots))
    emitted: list = []
    for branch_emitted, branch_stats in branches:
        emitted.extend(branch_emitted)
        stats.merge(branch_stats)
    return _results(store, emitted), stats


def mine(
    db: Sequence[EndpointSequence] | CohortIntervals, config: MinerConfig
) -> list[PatternResult]:
    """All closed patterns reachable under the growth rules (see mine_with_stats)."""
    return mine_with_stats(db, config)[0]


# ---------------------------------------------------------------------------
# Brute-force oracle


def brute_force_mine(
    db: Sequence[EndpointSequence], config: MinerConfig
) -> list[PatternResult]:
    """Reference miner: generate-and-test growth with embedding-based support.

    Applies the same support/risk/strict-increase rules along every growth
    path but knows nothing about projections or scan pruning; support comes
    from direct embedding searches.  Guarded to small inputs.
    """
    _check_db(db)
    alphabet = sorted({ep for s in db for g in s.groups for ep in g.endpoints})
    max_wave = max((g.time for s in db for g in s.groups), default=0)
    if len(db) > _GUARD_MAX_PATIENTS:
        raise GuardError(f"brute force refuses more than {_GUARD_MAX_PATIENTS} patients")
    if max_wave > _GUARD_MAX_WAVE:
        raise GuardError(f"brute force refuses waves beyond {_GUARD_MAX_WAVE}")
    if len(alphabet) > _GUARD_MAX_ENDPOINTS:
        raise GuardError(f"brute force refuses more than {_GUARD_MAX_ENDPOINTS} endpoints")

    store = _Store(db)
    carrier_cache: dict = {}
    uncounted = MiningStats()  # the oracle reports no search counters

    def gate(groups, parent_risk):
        pids = carrier_cache.get(groups)
        if pids is None:
            tgroups = [[store.token(ep) for ep in g] for g in groups]
            pids = tuple(
                i for i, pat in enumerate(store.patients) if _embeds(pat, tgroups, closable=True)
            )
            carrier_cache[groups] = pids
        gated = _gate(store, config, pids, parent_risk, uncounted)
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
