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
* duplicate-pruning-- one canonical-form seen set, across all root
                      branches, cuts permuted regrowth.

The store is one endpoint table sorted by (row, group, token), with groups
numbered across the table, so a patient's endpoints are one contiguous run.
The search runs depth by depth: every live node of a depth, of every root
branch, has its states in one table.  A state is a node, a patient, an
embedding's last matched group and the finish groups of the node's open
intervals, in columns padded to the depth's widest open set.  A patient
keeps every distinct state, which makes projections independent of growth
order and support counts equal to true containment counts.  The table is
cut into blocks of whole nodes that scan at most as many endpoints as the
store holds.  A block is expanded once in numpy, masked by the growth rule,
sorted by (node, candidate ``(endpoint, site)``, patient) and counted: site
0 extends a state in its last matched group, site 1 in a later one.  The
gate runs in numpy too, so Python sees only the candidates that pass it.
Projecting them builds the next depth's table and tests nothing again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        self.tok = (ep_key[order] % n_tokens).astype(_int_type(n_tokens))
        self.grp = (np.cumsum(opens) - 1).astype(_int_type(2 * m))
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


_PAD = np.iinfo(np.int32).max  # a finish column past a node's open intervals
_ANY, _NEVER, _LATER = -1, -2, -3  # how a token may extend a node's states (see _scan)


class _Level(NamedTuple):
    """The live search nodes of one depth, of every root branch.

    Node k is ``nodes[k] = (key, open, risk)``: its token groups, the fl ids
    of its open intervals and its risk.  Its states are the contiguous rows i
    with ``node[i] == k``: an embedding into patient ``pat[i]`` whose last
    matched group is ``last[i]`` and whose ``open[j]`` finishes in group
    ``fin[i, j]`` (_PAD past ``open``).  No two states of a node are equal.
    """

    node: np.ndarray
    pat: np.ndarray
    last: np.ndarray
    fin: np.ndarray
    nodes: list


class _Scan(NamedTuple):
    """The candidates that extend some state of a block of a level's nodes.

    Candidate i is ``key[i] = (node * n_tokens + token) * 2 + site``, keys
    ascending; ``ab[i]`` patients hold it, ``a[i]`` of them with the event.
    Its hits are ``state[bounds[i]:bounds[i + 1]]`` and ``endpoint[...]``:
    the row each extends and the extending endpoint, ordered by patient.
    """

    key: np.ndarray
    ab: np.ndarray
    a: np.ndarray
    bounds: np.ndarray
    state: np.ndarray
    endpoint: np.ndarray


def _root_level(store: _Store, roots: list[int], risks: list[float]) -> _Level:
    """One node per branch root: a state per group that holds the root's Start."""
    node_of = np.full(2 * len(store.fl_pairs), -1)
    node_of[roots] = np.arange(len(roots))
    node = node_of[store.tok]
    endpoint = np.flatnonzero(node >= 0)
    endpoint = endpoint[np.argsort(node[endpoint], kind="stable")]
    last = store.grp[endpoint]
    pat = np.searchsorted(store.row_groups, last, "right") - 1
    return _Level(
        node[endpoint].astype(np.int32), pat.astype(np.int32), last.astype(np.int32),
        store.partner[endpoint, None].astype(np.int32),
        [(((tok,),), (tok >> 1,), risk) for tok, risk in zip(roots, risks)],
    )


def _int_type(bound: int) -> type:
    """int32 if it holds every integer of magnitude below ``bound``, else int64."""
    return np.int32 if bound <= 2**31 - 1 else np.int64


def _scan(store: _Store, level: _Level, bound: int):
    """Every candidate ``(token, site)`` that extends a state of ``level``: one _Scan per block.

    This is the growth rule, and the only place it is tested.  A token extends
    the state ``(g, open)`` in group ``g`` (site 0) unless the pattern's last
    group already holds it, or in a later group (site 1) up to the earliest
    open finish (scan-pruning).  A Start qualifies only while its interval is
    closed, a Finish only at exactly its open instance's finish group (point-
    and postfix-pruning fall out of the pairing structure).  A block is one
    node or a run of nodes whose windows hold at most ``bound`` endpoints.
    """
    n_nodes, n_tokens = len(level.nodes), 2 * len(store.fl_pairs)
    node, pat, last, fin, nodes = level
    # int32 where the values fit: a block expands to several ints per scanned endpoint
    state_type, code_type = _int_type(node.size), _int_type(n_nodes * n_tokens)
    key_type = _int_type(2 * n_nodes * n_tokens * store.n)
    # each state's window of endpoints, from its last group to its earliest open finish
    stop = np.minimum(store.row_groups[pat + 1] - 1, fin.min(axis=1, initial=_PAD))
    lo = store.group_starts[last]
    size = store.group_starts[stop + 1] - lo
    # per (node, token) where the token may extend a state: a Start of a closed
    # interval anywhere (_ANY) or, if the last group holds it, in later groups
    # (_LATER); a Finish of an open one where column j finishes (j); else _NEVER
    rule = np.tile(np.array([_ANY, _NEVER], dtype=np.int32), n_nodes * n_tokens // 2)
    rule[[k * n_tokens + tok for k, (key, _, _) in enumerate(nodes) for tok in key[-1]
          if not tok & 1]] = _LATER
    start = np.array([k * n_tokens + 2 * fl for k, (_, open_, _) in enumerate(nodes)
                      for fl in open_], dtype=np.intp)
    rule[start] = _NEVER
    rule[start + 1] = [j for _, open_, _ in nodes for j in range(len(open_))]
    first_row = np.searchsorted(node, np.arange(n_nodes + 1))
    scanned = np.append(0, size.cumsum())[first_row]  # endpoints in the windows before node k
    k1 = 0
    while k1 < n_nodes:  # block: nodes k0 to k1 - 1
        k0, k1 = k1, max(k1 + 1, int(np.searchsorted(scanned, scanned[k1] + bound, "right")) - 1)
        rows, n = np.arange(first_row[k0], first_row[k1]), size[first_row[k0]:first_row[k1]]
        state = rows.astype(state_type).repeat(n)
        index = _int_type(state.size + store.tok.size)  # bounds every term of ``endpoint``
        endpoint = (np.arange(state.size, dtype=index)
                    + (lo[rows] - n.cumsum() + n).astype(index).repeat(n))
        group = store.grp[endpoint]
        code = node[rows].astype(code_type).repeat(n) * n_tokens + store.tok[endpoint]
        site = group > last[rows].repeat(n)
        r = rule[code]
        ok = (r == _ANY) | ((r == _LATER) & site)
        held = np.flatnonzero(r >= 0)
        ok[held] = fin[state[held], r[held]] == group[held]
        if not ok.any():
            continue
        state, endpoint = state[ok], endpoint[ok]
        key = (code[ok].astype(key_type) * 2 + site[ok]) * store.n + pat[state]
        del group, code, site, r, ok, held  # the expansion, before the hits are sorted
        order = key.argsort()  # by (candidate, patient)
        key = key[order]
        first = np.ones(key.size, dtype=bool)  # the first hit of its (candidate, patient)
        first[1:] = key[1:] != key[:-1]
        candidate = key // store.n
        bounds = np.flatnonzero(np.concatenate(([True], candidate[1:] != candidate[:-1], [True])))
        starts = bounds[:-1]
        ab = np.add.reduceat(first, starts, dtype=np.intp)
        a = np.add.reduceat(first & store.event[key % store.n], starts, dtype=np.intp)
        yield _Scan(candidate[starts], ab, a, bounds, state[order], endpoint[order])


def _child(key, open_, tok: int, site: int):
    """A node's child by ``tok`` at ``site``: its key, its open fl ids, ``put`` and ``take``.

    A Start's finish groups go into a new last column ``put`` (``take`` is
    -1); a Finish's column ``put`` takes the last column ``take``, dropped.
    """
    new_key = key + ((tok,),) if site else key[:-1] + (_group_key(key[-1] + (tok,)),)
    if not tok & 1:
        return new_key, open_ + (tok >> 1,), len(open_), -1
    j = open_.index(tok >> 1)
    return new_key, (open_[:j] + open_[-1:] + open_[j + 1:])[:-1], j, len(open_) - 1


def _project(store: _Store, level: _Level, scan: _Scan, picked, put, take, first_node: int):
    """``(node, pat, last, fin)`` of the children ``first_node, ...`` by ``scan``'s ``picked``.

    Each hit extends its state by its endpoint, columns moved as ``_child``
    says, in a ``fin`` one column wider than the level's.
    """
    picked = np.asarray(picked)
    n = np.diff(scan.bounds)[picked]
    hit = np.arange(n.sum()) + (scan.bounds[picked] - n.cumsum() + n).repeat(n)
    state, endpoint = scan.state[hit], scan.endpoint[hit]
    node = (first_node + np.arange(picked.size)).repeat(n)
    pat, last = level.pat[state], store.grp[endpoint]
    fin = np.full((hit.size, level.fin.shape[1] + 1), _PAD, dtype=np.int32)
    fin[:, :-1] = level.fin[state]
    put, take, rows = np.repeat(put, n), np.repeat(take, n), np.arange(hit.size)
    fin[rows, put] = np.where(take < 0, store.partner[endpoint], fin[rows, take])
    fin[rows[take >= 0], take[take >= 0]] = _PAD
    later = np.flatnonzero((scan.key[picked] & 1).astype(bool).repeat(n))
    if later.size:
        # states that part only before this group extend to the same state;
        # in the last group each state has at most one hit, and keeps its own
        table = np.column_stack((node[later], last[later], fin[later]))
        order = np.lexsort(table.T[::-1])
        table = table[order]
        keep = np.ones(hit.size, dtype=bool)
        keep[later[order[1:][(table[1:] == table[:-1]).all(axis=1)]]] = False
        node, pat, last, fin = node[keep], pat[keep], last[keep], fin[keep]
    return node, pat, last, fin


def _sweep_open(groups) -> frozenset | None:
    """Open (feature, level) set after the groups, or None if ill-formed."""
    try:
        return frozenset(pair_endpoints(groups)[1])
    except PairingError:
        return None


# ---------------------------------------------------------------------------
# Growth


def _gate(store: _Store, config: MinerConfig, ab: np.ndarray, a: np.ndarray,
          parent_risk: np.ndarray, stats: MiningStats) -> tuple[np.ndarray, np.ndarray]:
    """Support, risk and strict-increase test of candidates: ``ab`` carriers, ``a`` with the event.

    Returns the indices and risks of those that clear ``minsup``, ``risk_sup``
    and ``parent_risk``, the risks in _risk_value's float operations.  A
    frequent candidate's risk is undefined only if every patient carries it:
    those count in ``stats.undefined_risk``.  Branch roots pass a parent risk
    of 0.0, which both (always positive) measures clear.
    """
    support = a / store.n_events if config.minsup_scope == "event_group" else ab / store.n
    frequent = support > config.minsup
    stats.undefined_risk += int(np.count_nonzero(frequent & (ab == store.n)))
    i = np.flatnonzero(frequent & (ab < store.n))
    a, ab = a[i], ab[i]
    cells = np.stack((a, ab - a, store.n_events - a, store.n - ab - store.n_events + a))
    cells = cells + 0.5 * (cells.min(axis=0) == 0)  # as in _risk_value
    a, b, c, d = cells
    risk = (a / (a + b)) / (c / (c + d)) if config.measure == "relative_risk" else (a * d) / (b * c)
    keep = (risk > config.risk_sup) & (risk > parent_risk[i])
    return i[keep], risk[keep]


def _roots(store: _Store, config: MinerConfig, stats: MiningStats):
    """Frequent high-risk Start tokens, the branch roots, and their risks."""
    ab = store.presence.sum(axis=0)[0::2]  # only starting endpoints seed growth
    a = store.presence[store.event].sum(axis=0)[0::2]
    i, risk = _gate(store, config, ab, a, np.zeros(ab.size), stats)
    return 2 * i, risk


def _grow_level(store: _Store, config: MinerConfig, level: _Level, bound: int, seen, emitted,
                stats: MiningStats) -> _Level | None:
    """The next depth: the gated children of ``level`` not in ``seen``, which gains them.

    A closed child is appended to ``emitted`` as ``(groups, counts, pids,
    risk)``.  Returns None if no node has a child.
    """
    risks = np.array([risk for _, _, risk in level.nodes])
    parts, nodes = [], []
    for scan in _scan(store, level, bound):
        stats.candidates += scan.key.size
        node, code = np.divmod(scan.key, 4 * len(store.fl_pairs))  # code: (token, site)
        gated, gated_risk = _gate(store, config, scan.ab, scan.a, risks[node], stats)
        moves = []  # (candidate, put, take) per child
        for i, k, c, risk in zip(gated.tolist(), node[gated].tolist(), code[gated].tolist(),
                                 gated_risk.tolist()):
            key, open_, _ = level.nodes[k]
            new_key, new_open, put, take = _child(key, open_, *divmod(c, 2))
            if new_key in seen:
                stats.duplicates += 1
                continue
            seen.add(new_key)
            if not new_open:  # it closes the last open interval
                ab, a = int(scan.ab[i]), int(scan.a[i])
                counts = (a, ab - a, store.n_events - a, store.n - ab - store.n_events + a)
                pids = np.unique(level.pat[scan.state[scan.bounds[i]:scan.bounds[i + 1]]])
                groups = tuple(tuple(store.endpoint(t) for t in g) for g in new_key)
                emitted.append((groups, counts, tuple(pids.tolist()), risk))
            moves.append((i, put, take))
            nodes.append((new_key, new_open, risk))
        if moves:
            parts.append(_project(store, level, scan, *zip(*moves), len(nodes) - len(moves)))
    if not parts:
        return None
    node, pat, last, fin = (np.concatenate(column) for column in zip(*parts))
    width = max(len(open_) for _, open_, _ in nodes)
    return _Level(node.astype(np.int32), pat, last.astype(np.int32), fin[:, :width], nodes)


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
    """Sorted PatternResults from ``(groups, counts, pids, risk)`` emissions, one per pattern."""
    results = [
        PatternResult(
            pattern=TemporalPattern(groups),
            stats=counts_stats(*counts, risk),
            matched=tuple(sorted(store.ids[p] for p in pids)),
        )
        for groups, counts, pids, risk in emitted
    ]
    results.sort(key=lambda r: (-r.stats.risk, r.pattern.groups))
    return results


def mine_with_stats(
    doc: CohortIntervals, config: MinerConfig, *, _block_endpoints: int | None = None
) -> tuple[list[PatternResult], MiningStats]:
    """Mine ``doc`` in this process and report the search counters.

    Tests pass ``_block_endpoints`` in place of the block bound, the store's
    size.
    """
    store = _Store.from_intervals(doc)
    _check_db(store.ids, store.event)
    stats = MiningStats()
    bound = store.tok.size if _block_endpoints is None else _block_endpoints
    roots, risks = _roots(store, config, stats)
    seen: set = set()
    emitted: list = []
    level, depth = _root_level(store, roots.tolist(), risks.tolist()), 1
    while level is not None:
        stats.nodes += len(level.nodes)
        if config.max_length is not None and depth >= config.max_length:
            break
        level = _grow_level(store, config, level, bound, seen, emitted, stats)
        depth += 1
    stats.emitted = len(emitted)
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

    def gate(groups, parent_risk):
        pids = carrier_cache.get(groups)
        if pids is None:
            tgroups = [[store.token(ep) for ep in g] for g in groups]
            pids = tuple(i for i in range(store.n) if _embeds(store, i, tgroups, closable=True))
            carrier_cache[groups] = pids
        ab, a = len(pids), sum(events[i] for i in pids)
        support = a / store.n_events if config.minsup_scope == "event_group" else ab / store.n
        if not support > config.minsup:
            return None
        counts = (a, ab - a, store.n_events - a, store.n - ab - store.n_events + a)
        try:
            risk = _risk_value(*counts, config.measure)
        except UndefinedRiskError:
            return None
        return (pids, counts, risk) if risk > config.risk_sup and risk > parent_risk else None

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
    del grow  # the closure refers to itself: without this the cycle would outlive the call
    return _results(store, emitted)
