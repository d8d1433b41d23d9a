import gc
import io
import itertools
import json
import os
import random
import threading
import types
import weakref

import numpy as np
import pytest

from wavemine import miner
from wavemine.encoding import EndpointGroup, EndpointSequence, canonical_form, pattern_key
from wavemine.errors import (
    CohortValidationError,
    ConfigError,
    GuardError,
    PairingError,
    UndefinedRiskError,
)
from wavemine.miner import (
    MinerConfig,
    MiningStats,
    TemporalPattern,
    _project,
    _scan,
    _Store,
    brute_force_mine,
    counts_stats,
    mine,
    mine_with_stats,
    odds_ratio,
    relative_risk,
)

from util import ep, encoded_doc, intervals_doc, random_db, result_fingerprint, sequences

# ---------------------------------------------------------------------------
# risk measures


def test_relative_risk_hand_values():
    assert relative_risk(counts_stats(8, 2, 12, 78)) == pytest.approx(6.0, abs=1e-12)
    assert relative_risk(counts_stats(2, 8, 18, 72)) == pytest.approx(1.0, abs=1e-12)
    assert relative_risk(counts_stats(5, 5, 0, 90)) == pytest.approx(91.0, abs=1e-12)


def test_odds_ratio_hand_values():
    assert odds_ratio(counts_stats(8, 2, 12, 78)) == pytest.approx(26.0, abs=1e-12)
    assert odds_ratio(counts_stats(2, 8, 18, 72)) == pytest.approx(1.0, abs=1e-12)
    assert odds_ratio(counts_stats(5, 0, 5, 90)) == pytest.approx(181.0, abs=1e-12)


def test_risk_undefined_margins():
    with pytest.raises(UndefinedRiskError):
        relative_risk(counts_stats(0, 0, 10, 10))
    with pytest.raises(UndefinedRiskError):
        relative_risk(counts_stats(10, 10, 0, 0))
    with pytest.raises(UndefinedRiskError):
        odds_ratio(counts_stats(0, 0, 10, 10))


def test_batched_gate_computes_risk_value_bit_for_bit():
    # every 2x2 table of 20 patients, 7 with the event; only the margins are undefined
    store = types.SimpleNamespace(n=20, n_events=7)
    ab, a = np.array([(ab, a) for ab in range(21) for a in range(8) if 0 <= ab - a <= 13]).T
    for measure in ("relative_risk", "odds_ratio"):
        cfg = MinerConfig(minsup=1e-9, minsup_scope="population", risk_sup=1e-9, measure=measure)
        stats = MiningStats()
        gated, risk = miner._gate(store, cfg, ab, a, np.zeros(ab.size), stats)
        assert stats.undefined_risk == np.count_nonzero(ab == 20)
        assert gated.tolist() == np.flatnonzero((ab > 0) & (ab < 20)).tolist()
        counts = [(int(a[i]), int(ab[i] - a[i])) for i in gated]  # Python ints, as mined
        assert risk.tolist() == [
            miner._risk_value(x, y, 7 - x, 13 - y, measure) for x, y in counts
        ]


def test_measure_consistency_property():
    rng = random.Random(5)
    for _ in range(500):
        a, b, c, d = (rng.randint(0, 12) for _ in range(4))
        if a + b == 0 or c + d == 0:
            continue
        rr = relative_risk(counts_stats(a, b, c, d))
        orr = odds_ratio(counts_stats(a, b, c, d))
        ca, cb, cc, cd = (
            (a + 0.5, b + 0.5, c + 0.5, d + 0.5) if min(a, b, c, d) == 0 else (a, b, c, d)
        )
        third = ca / (ca + cc) > (ca + cb) / (ca + cb + cc + cd)
        assert (rr > 1) == (orr > 1) == third


# ---------------------------------------------------------------------------
# containment


def _carries(intervals, pattern_groups) -> bool:
    """Whether the miner's store finds the pattern in one patient's intervals."""
    store = _Store.from_intervals(intervals_doc(("p", True, intervals)))
    return store.carriers(canonical_form(pattern_groups)) == [0]


_ABAB = [("A", "hi", 1, 2), ("B", "hi", 2, 4)]


def test_contains_direct_embedding():
    pattern = [
        [ep("A", "hi", "+")],
        [ep("A", "hi", "-"), ep("B", "hi", "+")],
        [ep("B", "hi", "-")],
    ]
    assert _carries(_ABAB, pattern)


def test_contains_requires_simultaneity():
    pattern = [
        [ep("A", "hi", "+")],
        [ep("A", "hi", "-"), ep("B", "hi", "+")],
        [ep("B", "hi", "-")],
    ]
    assert not _carries([("A", "hi", 1, 2), ("B", "hi", 3, 4)], pattern)


def test_contains_empty_pattern_vacuous():
    assert _carries(_ABAB, [])


def test_contains_pairs_start_and_finish_of_one_instance():
    # two single-wave instances never embed a spanning interval pattern
    singles = [("A", "hi", 1, 1), ("A", "hi", 3, 3)]
    spanning = [[ep("A", "hi", "+")], [ep("A", "hi", "-")]]
    assert not _carries(singles, spanning)
    assert _carries(singles, [[ep("A", "hi", "+"), ep("A", "hi", "-")]])
    # a later multi-wave instance provides the spanning embedding
    assert _carries([("A", "hi", 1, 1), ("A", "hi", 3, 4)], spanning)


def _naive_contains(seq, pattern_groups):
    """Independent oracle: enumerate group mappings exhaustively."""
    groups = [frozenset(g.endpoints) for g in seq.groups]
    pairs = {}
    pending = {}
    for gi, g in enumerate(seq.groups):
        for e in sorted(g.endpoints, key=lambda x: x.is_finish):
            key = (e.feature, e.level)
            if e.is_finish:
                pairs[(pending.pop(key), key)] = gi
            else:
                pending[key] = gi
    pattern = [frozenset(g) for g in canonical_form(pattern_groups)]
    if not pattern:
        return True
    for mapping in itertools.combinations(range(len(groups)), len(pattern)):
        if not all(pg <= groups[m] for pg, m in zip(pattern, mapping)):
            continue
        open_at = {}
        ok = True
        for pg, m in zip(pattern, mapping):
            for e in sorted(pg, key=lambda x: x.is_finish):
                key = (e.feature, e.level)
                if not e.is_finish:
                    if key in open_at:
                        ok = False
                        break
                    open_at[key] = pairs[(m, key)]
                else:
                    if open_at.get(key) != m:
                        ok = False
                        break
                    del open_at[key]
            if not ok:
                break
        if ok:
            return True
    return False


def test_contains_matches_naive_enumeration():
    rng = random.Random(21)
    hits = 0
    for _ in range(120):
        db = random_db(rng, n_pat=2, waves=4)
        donor = sequences(random_db(rng, n_pat=2, waves=4))[0]
        # probe patterns: sampled sub-multisets of a donor sequence's groups
        probes = []
        if donor.groups:
            picked = [
                [e for e in g.endpoints if rng.random() < 0.6] for g in donor.groups
            ]
            probe = [g for g in picked if g]
            try:
                probes.append(TemporalPattern(probe).groups)
            except ConfigError:
                pass
        probes.append(canonical_form([[ep("A", "hi", "+")], [ep("A", "hi", "-")]]))
        store, seqs = _Store.from_intervals(db), sequences(db)
        for probe in probes:
            carriers = store.carriers(probe)
            for i, seq in enumerate(seqs):
                got = i in carriers
                assert got == _naive_contains(seq, probe)
                hits += got
    assert hits > 10  # the probe set must exercise true embeddings


# ---------------------------------------------------------------------------
# projection operations


def _walk(db, start, steps=()):
    """Grow the Start ``start`` by ``(endpoint, site)`` steps with the miner's
    own helpers (site 0: the last group, site 1: a later group).

    The root's states are every group holding ``start``; each step projects
    the hits that ``_scan`` finds for it.  Returns ``(store, pdb, level)``,
    ``pdb`` mapping patient index i (``db.ids[i]``) to its sorted states
    ``(g, ((fl, finish group), ...))``, groups counted within the patient.
    """
    store = _Store.from_intervals(db)
    level = miner._root_level(store, [store.token(start)], [0.0])
    for endpoint, site in steps:
        tok = store.token(endpoint)
        (scan,) = _scan(store, level, store.tok.size)
        (i,) = np.flatnonzero(scan.key == tok * 2 + site)  # the step must extend some state
        key, open_, put, take = miner._child(*level.nodes[0][:2], tok, site)
        states = _project(store, level, scan, [i], [put], [take], 0)
        level = miner._Level(*states, [(key, open_, 0.0)])
    pdb = {}
    for p, g, fin in zip(level.pat.tolist(), level.last.tolist(), level.fin.tolist()):
        first = int(store.row_groups[p])
        opened = tuple(sorted((fl, f - first) for fl, f in zip(level.nodes[0][1], fin)))
        pdb.setdefault(p, []).append((g - first, opened))
    return store, {p: sorted(marks) for p, marks in pdb.items()}, level


def _support(db, start, steps=()):
    """Candidate extensions: endpoint -> (population, events) over both sites."""
    store, _, level = _walk(db, start, steps)
    merged = {}
    for scan in _scan(store, level, store.tok.size):
        for i, key in enumerate(scan.key.tolist()):
            hits = scan.state[scan.bounds[i]:scan.bounds[i + 1]]
            merged.setdefault(store.endpoint(key >> 1), set()).update(level.pat[hits].tolist())
    return {e: (len(p), sum(db.events[i] for i in p)) for e, p in merged.items()}


def _scan_db():
    # A=[1,3], B=[2,5], C=[4,5]: suffix after A+ reads (B+)(A-)(C+)... with
    # the scan stopping at A's finish.
    return intervals_doc(
        ("p1", True, [("A", "x", 1, 3), ("B", "x", 2, 5), ("C", "x", 4, 5)]),
        ("p2", False, []),
    )


def test_count_support_scan_stops_at_open_finish():
    counts = _support(_scan_db(), ep("A", "x", "+"))
    assert counts == {
        ep("B", "x", "+"): (1, 1),
        ep("A", "x", "-"): (1, 1),
    }


def test_count_support_empty_open_scans_whole_suffix():
    db = intervals_doc(("p1", True, [("A", "x", 1, 1), ("C", "x", 3, 3)]), ("p2", False, []))
    counts = _support(db, ep("A", "x", "+"), [(ep("A", "x", "-"), 0)])
    # C- is postfix-masked (no C open in the prefix); C+ is visible to the end
    assert counts == {ep("C", "x", "+"): (1, 1)}


def test_count_support_empty_suffix_contributes_nothing():
    db = intervals_doc(("p1", True, [("A", "x", 5, 5)]), ("p2", False, []))
    counts = _support(db, ep("A", "x", "+"), [(ep("A", "x", "-"), 0)])
    assert counts == {}


def test_count_support_masks_unopened_finishes():
    # B- sits inside the scanned region but B was never opened by the prefix
    db = intervals_doc(("p1", True, [("A", "x", 1, 4), ("B", "x", 2, 3)]), ("p2", False, []))
    counts = _support(db, ep("A", "x", "+"))
    assert ep("B", "x", "-") not in counts
    assert set(counts) == {ep("B", "x", "+"), ep("A", "x", "-")}


def test_construct_projection_advances_past_match():
    db = intervals_doc(("p1", True, [("A", "x", 1, 3), ("B", "x", 2, 2)]), ("p2", False, []))
    _, pdb, _ = _walk(db, ep("A", "x", "+"), [(ep("A", "x", "-"), 1)])
    # one marker for p1, at the group holding A- at t3, with nothing left open
    assert pdb == {0: [(2, ())]}


def test_construct_projection_simultaneous_requires_same_group():
    db = intervals_doc(
        ("q1", True, [("A", "x", 1, 2), ("B", "x", 1, 2)]),
        ("q2", False, [("A", "x", 1, 2), ("B", "x", 2, 3)]),
    )
    _, pdb, _ = _walk(db, ep("A", "x", "+"), [(ep("B", "x", "+"), 0)])
    assert set(pdb) == {0}  # q1
    _, pdb_later, _ = _walk(db, ep("A", "x", "+"), [(ep("B", "x", "+"), 1)])
    assert set(pdb_later) == {1}  # q2


def test_projection_keeps_every_viable_instance_marker():
    # two A instances: both markers must survive for completeness
    db = intervals_doc(
        ("p1", True, [("A", "x", 1, 1), ("A", "x", 3, 4), ("B", "x", 3, 3)]), ("p2", False, [])
    )
    _, pdb, _ = _walk(db, ep("A", "x", "+"), [(ep("A", "x", "-"), 1)])
    # only the multi-wave instance (waves 3-4, data groups 1-2) closes strictly later
    assert pdb == {0: [(2, ())]}
    counts = _support(db, ep("A", "x", "+"))
    # B+ reachable only through the second instance's marker
    assert ep("B", "x", "+") in counts


# ---------------------------------------------------------------------------
# mine: toy databases


def _toy_db_literal(*more):
    return intervals_doc(
        ("e1", True, [("A", "hi", 1, 2)]),
        ("e2", True, [("A", "hi", 1, 2)]),
        ("n1", False, []),
        ("n2", False, []),
        *more,
    )


def test_toy_db_strict_increase_saturates():
    # Closing the interval leaves the carrier set unchanged, so the strict
    # risk-increase gate (growth rule) admits no closed pattern here.  The
    # oracle agrees: this is inherent to the published growth rule.
    cfg = MinerConfig(minsup=0.5, minsup_scope="event_group", risk_sup=1.5)
    db = _toy_db_literal()
    assert mine(db, cfg) == []
    assert brute_force_mine(db, cfg) == []


def test_toy_db_with_contrast_patient_recovers_interval():
    db = _toy_db_literal(("n3", False, [("A", "hi", 1, 1)]))
    cfg = MinerConfig(minsup=0.5, minsup_scope="event_group", risk_sup=1.5)
    results = mine(db, cfg)
    assert result_fingerprint(results) == [("(A=hi+)->(A=hi-)", 2, 0, 0, 3)]
    (r,) = results
    assert relative_risk(r.stats) == pytest.approx((2.5 / 3.0) / (0.5 / 4.0), abs=1e-12)
    assert r.matched == ("e1", "e2")
    assert result_fingerprint(brute_force_mine(db, cfg)) == result_fingerprint(results)


def _duplicate_pruning_db():
    """Two identical event carriers of A=[1,2] with B=[2,3], plus contrast
    patients that give both growth routes to the simultaneous group a
    strictly increasing risk, so the permuted regrowth reaches the seen-set."""
    return intervals_doc(
        ("e1", True, [("A", "x", 1, 2), ("B", "x", 2, 3)]),
        ("e2", True, [("A", "x", 1, 2), ("B", "x", 2, 3)]),
        ("n1", False, [("A", "x", 1, 1)]),
        ("n2", False, [("A", "x", 1, 2)]),
        ("n3", False, [("A", "x", 1, 2), ("B", "x", 2, 2)]),
        ("n4", False, [("C", "x", 1, 1)]),
        ("n5", False, [("A", "x", 1, 3), ("B", "x", 2, 2)]),
    )


def test_duplicate_pruning_one_canonical_pattern():
    cfg = MinerConfig(minsup=0.4, minsup_scope="event_group", risk_sup=1.2)
    results, stats = mine_with_stats(_duplicate_pruning_db(), cfg)
    target = pattern_key(
        [[ep("A", "x", "+")], [ep("B", "x", "+"), ep("A", "x", "-")], [ep("B", "x", "-")]]
    )
    keys = [r.pattern.key() for r in results]
    assert keys.count(target) == 1
    assert stats.duplicates >= 1  # the permuted regrowth was cut
    assert result_fingerprint(brute_force_mine(_duplicate_pruning_db(), cfg)) == (
        result_fingerprint(results)
    )


def test_pattern_reached_from_two_roots_is_grown_and_emitted_once():
    # (A+,B+)(A-,B-) opens with two Starts, so the A+ and the B+ root both
    # reach (A+,B+); each step of the way strictly raises the risk
    # (4.2 -> 6.2 -> 9 -> 12.6): n1 and n2 hold one Start, n3 and n4 stop
    # holding the pattern at its third and fourth endpoint
    db = intervals_doc(
        *((f"e{i}", True, [("A", "x", 1, 3), ("B", "x", 1, 3)]) for i in range(4)),
        ("n1", False, [("A", "x", 1, 3)]),
        ("n2", False, [("B", "x", 1, 3)]),
        ("n3", False, [("A", "x", 1, 4), ("B", "x", 1, 3)]),
        ("n4", False, [("A", "x", 1, 3), ("B", "x", 1, 4)]),
        ("n5", False, []),
        ("n6", False, []),
    )
    cfg = MinerConfig(minsup=0.1, risk_sup=1.5)
    results, stats = mine_with_stats(db, cfg)
    target = pattern_key([[ep("A", "x", "+"), ep("B", "x", "+")],
                          [ep("A", "x", "-"), ep("B", "x", "-")]])
    assert [r.pattern.key() for r in results] == [target]
    assert stats.emitted == len(results)
    assert stats.duplicates >= 1  # the second root's (A+,B+) was cut
    assert result_fingerprint(results) == result_fingerprint(brute_force_mine(db, cfg))


def test_impossible_minsup_yields_empty():
    cfg = MinerConfig(minsup=1.0, risk_sup=1.0)
    assert mine(_duplicate_pruning_db(), cfg) == []


def test_mine_rejects_degenerate_db():
    cfg = MinerConfig()
    with pytest.raises(CohortValidationError):
        mine(intervals_doc(), cfg)
    with pytest.raises(CohortValidationError):
        mine(intervals_doc(("p", True, [("A", "hi", 1, 1)])), cfg)
    with pytest.raises(CohortValidationError, match="duplicate"):
        mine(intervals_doc(("p", True, [("A", "hi", 1, 1)]), ("p", False, [])), cfg)


def test_unclosed_start_raises_pairing_error_naming_the_patient():
    # hand-built: p-open's A+ at wave 1 never finishes, so no miner can be handed it
    with pytest.raises(PairingError, match="p-open: intervals never finished"):
        EndpointSequence("p-open", (EndpointGroup(1, (ep("A", "hi", "+"),)),), True)
    with pytest.raises(PairingError, match="p-early: finish without open start"):
        EndpointSequence("p-early", (EndpointGroup(1, (ep("A", "hi", "-"),)),), True)


def test_each_sequence_is_paired_once(monkeypatch):
    # the miner's store pairs no patient; the oracle's store reads the pairs
    # each sequence found when it was encoded
    from wavemine import encoding

    calls = []
    pair_endpoints = encoding.pair_endpoints

    def counted(groups):
        calls.append(1)
        return pair_endpoints(groups)

    monkeypatch.setattr(encoding, "pair_endpoints", counted)
    db = random_db(random.Random(5), n_pat=12, waves=5)
    cfg = MinerConfig(minsup=0.1, risk_sup=0.1)
    results, stats = mine_with_stats(db, cfg)
    assert results and stats.nodes > 0
    assert calls == []
    assert result_fingerprint(brute_force_mine(db, cfg)) == result_fingerprint(results)
    assert len(calls) == len(db.ids)


# ---------------------------------------------------------------------------
# the store built from intervals


def _store_view(store):
    return (
        store.fl_pairs, store.n, store.n_events, store.ids, store.event.tolist(),
        *(getattr(store, name).tolist()
          for name in ("tok", "grp", "partner", "row_groups", "group_starts")),
    )


def _assert_same_store(doc):
    """``_Store.from_intervals`` equals ``_Store(sequences(doc))``, or fails the same way.

    So does the store of the document built from ``doc.patients``, and of
    the one read back from ``doc``'s ``intervals.json``.
    """
    from wavemine.encoding import read_intervals_json, write_intervals_json

    text = io.StringIO()
    write_intervals_json(doc, text)
    back = read_intervals_json(io.StringIO(text.getvalue()))
    docs = [doc, encoded_doc(doc.wave_count, doc.levels, doc.patients, doc.edges), back]
    assert back.patients == doc.patients
    try:
        expected = _store_view(_Store(sequences(doc)))
    except PairingError as exc:
        for built in docs:
            with pytest.raises(PairingError) as raised:
                _Store.from_intervals(built)
            assert str(raised.value) == str(exc)
        return "raises"
    for built in docs:
        assert _store_view(_Store.from_intervals(built)) == expected
    return "pairs"


def test_store_from_intervals_matches_sequences_on_seeded_cohorts():
    from wavemine.abstraction import abstract_cohort

    from test_abstraction import RANDOM_SPECS, _random_cohort

    rng = random.Random(2024)  # the cohorts of test_abstract_cohort_matches_per_value_reference
    for _trial in range(40):
        cohort = _random_cohort(rng, patients=rng.randint(1, 60), waves=rng.randint(1, 8))
        doc = abstract_cohort(cohort, RANDOM_SPECS)
        assert _assert_same_store(doc) == "pairs"


def test_waves_at_the_int32_edge_from_the_csv_to_the_store():
    from wavemine.abstraction import StateInterval, abstract_cohort
    from wavemine.encoding import read_intervals_json, write_intervals_json
    from wavemine.ingest import Column, RawCohort, carry_forward, parse_cohort, parse_outcomes

    from test_abstraction import BMI, _reference_intervals

    top = 2**31 - 1  # MAX_WAVE, the largest int32
    outcomes = parse_outcomes(io.StringIO(f"patient_id,time,event\np1,3,1\np2,{top},0\n"))
    cohort_csv = ("patient_id,wave,feature,value\np1,1,bmi,20.0\np1,3,bmi,31.0\n"
                  f"p2,{top - 1},bmi,17.0\np2,{top},bmi,26.0\n")
    parsed = parse_cohort(io.StringIO(cohort_csv), [BMI], outcomes)
    filled = carry_forward(parsed)
    column = filled.columns["bmi"]
    assert column.wave.dtype == np.int32
    assert column.wave.tolist() == [1, 2, 3, top - 1, top]  # p1's wave 2 carried forward
    doc = abstract_cohort(filled, [BMI])
    expected = [
        [StateInterval("bmi", "Normal weight", 1, 2), StateInterval("bmi", "Obese", 3, 3)],
        [StateInterval("bmi", "Underweight", top - 1, top - 1),
         StateInterval("bmi", "Overweight", top, top)],
    ]
    assert [_reference_intervals(r.values, [BMI], {}) for r in filled.patients] == expected
    assert [list(p.intervals) for p in doc.patients] == expected
    text = io.StringIO()
    write_intervals_json(doc, text)
    assert text.getvalue() == json.dumps({
        "wave_count": top,
        "levels": {"bmi": {lv.name: lv.severity for lv in BMI.levels}},
        "edges": {},
        "patients": [
            {"patient_id": pid, "time": time, "event": event,
             "intervals": [iv._asdict() for iv in ivs]}
            for pid, time, event, ivs in zip(("p1", "p2"), (3.0, float(top)), (1, 0), expected)
        ],
    }, indent=2) + "\n"
    back = read_intervals_json(io.StringIO(text.getvalue()))
    assert [list(p.intervals) for p in back.patients] == expected
    assert _assert_same_store(doc) == "pairs"
    # the miner multiplies rows into 64-bit keys, whatever the columns' dtypes
    built = [doc, back]
    for dtype in (np.int16, np.int32, np.int64):
        columns = {"bmi": Column(column.row.astype(dtype), column.wave, column.values)}
        built.append(abstract_cohort(RawCohort(
            top, [BMI], filled.patient_ids, filled.patient_outcomes, columns
        ), [BMI]))
    assert {(d.row.dtype, d.code.dtype) for d in built} == {(np.dtype(np.intp),) * 2}


def test_carriers_prefiltered_by_token_holders_match_the_plain_scan():
    from wavemine.abstraction import abstract_cohort
    from wavemine.synth import PlantedPattern, SynthConfig, generate

    planted = PlantedPattern(
        groups=(
            (ep("F01", "H", "+"),),
            (ep("F01", "H", "-"), ep("F02", "L", "+")),
            (ep("F02", "L", "-"),),
        ),
        frac_events=0.5,
        frac_nonevents=0.1,
    )
    config = SynthConfig(patients=400, waves=6, features=8, event_rate=0.2, noise_rate=0.08,
                         planted=(planted,), seed=4)
    doc = abstract_cohort(*generate(config)[:2])
    store = _Store.from_intervals(doc)
    mined = [r.pattern.groups for r in mine(doc, MinerConfig(minsup=0.005, risk_sup=0.5))]
    assert len(mined) >= 10
    patterns = [
        *mined,
        planted.groups,
        ((ep("F01", "H", "+"),),),  # open
        ((ep("F01", "H", "+"), ep("F02", "H", "+")), (ep("F03", "L", "+"),)),
        (),  # vacuous: every patient
    ]
    held = 0
    for groups in patterns:
        tgroups = [[store.token(e) for e in g] for g in groups]
        plain = [i for i in range(store.n) if miner._embeds(store, i, tgroups)]
        assert store.carriers(groups) == plain
        held += bool(plain)
    assert held >= len(mined) + 2
    # an endpoint no patient holds has no token and no carrier
    assert ("F01", "ZZ") not in store.fl_index
    assert store.carriers(((ep("F01", "ZZ", "+"),),)) == []
    assert store.carriers(planted.groups + ((ep("F01", "ZZ", "+"),),)) == []
    assert store.presence.shape == (store.n, 2 * len(store.fl_pairs))
    assert store.presence.any(axis=0).all()  # every token has a holder


_PLAIN = ("p0", True, [("A", "hi", 1, 2), ("B", "hi", 2, 4), ("A", "ok", 3, 6), ("A", "lo", 5, 5)])


@pytest.mark.parametrize("intervals,outcome", [
    pytest.param([("A", "hi", 1, 3), ("A", "hi", 2, 4)], "raises", id="overlapping"),
    pytest.param([("A", "hi", 1, 3), ("A", "hi", 1, 5)], "raises", id="same-start"),
    pytest.param([("A", "hi", 1, 4), ("A", "hi", 2, 3)], "raises", id="nested"),
    pytest.param([("A", "hi", 1, 2), ("A", "hi", 2, 3)], "raises", id="abutting-at-a-wave"),
    pytest.param([("A", "hi", 1, 2), ("A", "hi", 3, 4)], "pairs", id="abutting-waves"),
    pytest.param([("A", "hi", 3, 1)], "raises", id="start-after-end"),
    pytest.param([("A", "hi", 1, 2), ("A", "hi", 3, 2)], "raises", id="start-after-end-left-open"),
    pytest.param([("A", "hi", 1, 4), ("A", "hi", 3, 2)], "raises", id="start-after-end-repaired"),
    pytest.param([("A", "hi", 1, 3), ("A", "hi", 1, 5), ("A", "hi", 4, 5)], "raises",
                 id="same-start-and-nested"),
    pytest.param([("A", "hi", 1, 2), ("A", "hi", 1, 2), ("B", "hi", 2, 2)], "pairs",
                 id="repeated"),
    pytest.param([("A", "mid", 1, 2), ("C", "hi", 2, 3)], "pairs", id="level-not-in-levels"),
    pytest.param([("A", "ok", 1, 6), ("B", "ok", 1, 3)], "pairs", id="all-normal"),
    pytest.param([("A", "ok", 1, 2), ("A", "ok", 2, 3)], "pairs", id="normal-overlap-dropped"),
    pytest.param([], "pairs", id="no-intervals"),
])
def test_store_from_intervals_matches_sequences_on_hostile_intervals(intervals, outcome):
    doc = intervals_doc(_PLAIN, ("p1", False, intervals), ("p2", False, _PLAIN[2]))
    assert _assert_same_store(doc) == outcome
    if outcome == "raises":  # the error names the patient
        with pytest.raises(PairingError, match="^p1: "):
            mine_with_stats(doc, MinerConfig())


def test_store_from_intervals_reports_the_first_unpaired_patient():
    bad = [("A", "hi", 1, 3), ("A", "hi", 2, 4)]
    doc = intervals_doc(_PLAIN, ("p1", False, [("B", "hi", 4, 2)]), ("p2", True, bad))
    assert _assert_same_store(doc) == "raises"
    with pytest.raises(PairingError, match="^p1: "):
        _Store.from_intervals(doc)


def test_mining_intervals_rejects_duplicate_patient_ids():
    doc = intervals_doc(_PLAIN, ("p1", False, _PLAIN[2]), ("p1", False, []))
    assert _assert_same_store(doc) == "pairs"
    with pytest.raises(CohortValidationError, match="duplicate patient ids"):
        mine_with_stats(doc, MinerConfig())


def test_miner_config_validation():
    with pytest.raises(ConfigError):
        MinerConfig(minsup=0.0)
    with pytest.raises(ConfigError):
        MinerConfig(minsup=1.5)
    with pytest.raises(ConfigError):
        MinerConfig(risk_sup=0.0)
    for risk_sup in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            MinerConfig(risk_sup=risk_sup)
    with pytest.raises(ConfigError):
        MinerConfig(measure="hazard")
    with pytest.raises(ConfigError):
        MinerConfig(minsup_scope="both")
    with pytest.raises(ConfigError):
        MinerConfig(max_length=0)


def test_max_length_caps_growth():
    db = _duplicate_pruning_db()
    cfg_short = MinerConfig(minsup=0.4, risk_sup=1.2, max_length=2)
    cfg_full = MinerConfig(minsup=0.4, risk_sup=1.2)
    short_keys = {r.pattern.key() for r in mine(db, cfg_short)}
    full_keys = {r.pattern.key() for r in mine(db, cfg_full)}
    assert short_keys <= full_keys
    assert all(r.pattern.length <= 2 for r in mine(db, cfg_short))
    assert any(r.pattern.length > 2 for r in mine(db, cfg_full))


# ---------------------------------------------------------------------------
# oracle equivalence and invariants


def test_mine_equals_brute_force_on_random_instances():
    rng = random.Random(2024)
    for _ in range(60):
        db = random_db(rng, n_pat=rng.randint(4, 12), waves=rng.randint(2, 5))
        cfg = MinerConfig(
            minsup=rng.choice([0.1, 0.2, 0.35]),
            minsup_scope=rng.choice(["event_group", "population"]),
            risk_sup=rng.choice([1.0, 1.3, 1.8]),
            measure=rng.choice(["relative_risk", "odds_ratio"]),
            max_length=rng.choice([3, 5, None]),
        )
        results, stats = mine_with_stats(db, cfg)
        assert result_fingerprint(results) == result_fingerprint(brute_force_mine(db, cfg))
        assert stats.emitted == len(results)  # each pattern is emitted once


def test_emitted_patterns_are_sound():
    rng = random.Random(77)
    cfg = MinerConfig(minsup=0.15, risk_sup=1.2)
    for _ in range(20):
        db = random_db(rng, n_pat=10, waves=5)
        seqs = sequences(db)
        n = len(seqs)
        n_events = sum(db.events)
        for r in mine(db, cfg):
            assert r.pattern.closed
            from wavemine.miner import _sweep_open

            assert _sweep_open(r.pattern.groups) == frozenset()
            carriers = {s.patient_id for s in seqs if _naive_contains(s, r.pattern.groups)}
            assert carriers == set(r.matched)
            a = sum(1 for s in seqs if s.event and s.patient_id in carriers)
            assert (a, len(carriers) - a) == (r.stats.a, r.stats.b)
            assert r.stats.a + r.stats.b + r.stats.c + r.stats.d == n
            assert r.stats.support_event == pytest.approx(a / n_events)
            assert r.stats.support_event > cfg.minsup
            assert r.stats.risk > cfg.risk_sup


def test_threshold_monotonicity_property():
    rng = random.Random(31)
    for _ in range(10):
        db = random_db(rng, n_pat=18, waves=5)
        base = {r.pattern.key() for r in mine(db, MinerConfig(minsup=0.1, risk_sup=1.0))}
        tighter_sup = {
            r.pattern.key() for r in mine(db, MinerConfig(minsup=0.3, risk_sup=1.0))
        }
        tighter_risk = {
            r.pattern.key() for r in mine(db, MinerConfig(minsup=0.1, risk_sup=1.8))
        }
        assert tighter_sup <= base
        assert tighter_risk <= base


def test_blocks_of_one_node_match_one_block_per_depth(monkeypatch):
    dbs = [
        (random_db(random.Random(62), n_pat=20, waves=5), MinerConfig(minsup=0.1, risk_sup=1.1)),
        (random_db(random.Random(62), n_pat=40, waves=5), MinerConfig(minsup=0.1, risk_sup=1.05)),
        (_duplicate_pruning_db(), MinerConfig(minsup=0.1, risk_sup=1.1)),
    ]
    blocks = []  # (depth, nodes with a candidate) per block scanned
    scan = miner._scan

    def recording(store, level, bound):
        for block in scan(store, level, bound):
            nodes = np.unique(block.key // (4 * len(store.fl_pairs)))
            blocks.append((sum(map(len, level.nodes[0][0])), nodes.size))
            yield block

    monkeypatch.setattr(miner, "_scan", recording)
    shared = False  # some block holds several nodes' candidates
    for db, cfg in dbs:
        blocks.clear()
        whole, whole_stats = mine_with_stats(db, cfg, _block_endpoints=2 ** 62)
        depths = [depth for depth, _ in blocks]
        assert len(set(depths)) == len(depths)
        shared |= any(n > 1 for _, n in blocks)
        blocks.clear()
        single, single_stats = mine_with_stats(db, cfg, _block_endpoints=1)
        assert all(n == 1 for _, n in blocks)
        assert [(r.pattern, r.stats, r.matched) for r in single] == [
            (r.pattern, r.stats, r.matched) for r in whole
        ]
        assert single_stats == whole_stats
    # the last input mines patterns and prunes a permuted regrowth
    assert shared and whole and whole_stats.duplicates >= 1


def test_undefined_risk_is_counted_after_support():
    # A and B: every patient carries them, so their risk is undefined
    db = intervals_doc(*(
        (f"p{i}", i % 2 == 0, [("A", "hi", 1, 2), ("B", "hi", 3, 4)] + [("C", "hi", 1, 4)] * (i < 3))
        for i in range(6)
    ))
    for measure in ("relative_risk", "odds_ratio"):
        cfg = MinerConfig(minsup=0.1, risk_sup=0.5, measure=measure)
        results, stats = mine_with_stats(db, cfg)
        assert stats == MiningStats(nodes=1, candidates=3, emitted=0, duplicates=0,
                                    undefined_risk=2)
        assert result_fingerprint(results) == result_fingerprint(brute_force_mine(db, cfg))


def test_workers_start_no_process_or_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mining started a process or a thread")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    db = random_db(random.Random(62), n_pat=40, waves=5)
    cfg = MinerConfig(minsup=0.1, risk_sup=1.05)
    results, stats = mine_with_stats(db, cfg)
    assert results and stats == mine_with_stats(db, cfg)[1]


def test_no_frequent_endpoints_no_work():
    db = _toy_db_literal()
    results, stats = mine_with_stats(db, MinerConfig(minsup=0.99, risk_sup=1e9))
    assert results == []
    assert stats.nodes == 0


def test_brute_force_guard():
    rng = random.Random(9)
    too_many = random_db(rng, n_pat=26, waves=3)
    with pytest.raises(GuardError):
        brute_force_mine(too_many, MinerConfig(minsup=0.5, risk_sup=1.5))
    long_waves = intervals_doc(("p1", True, [("A", "hi", 1, 6)]), ("p2", False, []))
    with pytest.raises(GuardError):
        brute_force_mine(long_waves, MinerConfig(minsup=0.5, risk_sup=1.5))


def test_temporal_pattern_validates():
    with pytest.raises(ConfigError):
        TemporalPattern([[ep("A", "x", "-")]])
    with pytest.raises(ConfigError):
        TemporalPattern([[ep("A", "x", "+")], [ep("A", "x", "+")]])
    open_pattern = TemporalPattern([[ep("A", "x", "+")]])
    assert not open_pattern.closed
    closed = TemporalPattern([[ep("A", "x", "+")], [ep("A", "x", "-")]])
    assert closed.closed and closed.length == 2


def test_results_are_json_stable():
    db = _duplicate_pruning_db()
    cfg = MinerConfig(minsup=0.4, risk_sup=1.2)
    one = json.dumps(result_fingerprint(mine(db, cfg)))
    two = json.dumps(result_fingerprint(mine(db, cfg)))
    assert one == two


def test_mining_frees_its_store_by_reference_counting(monkeypatch):
    # commands run with the cyclic collector paused, so nothing the search
    # builds may sit in a reference cycle
    stores = []
    build = _Store._build

    def tracked(self, *args):
        build(self, *args)
        stores.append(weakref.ref(self))

    monkeypatch.setattr(_Store, "_build", tracked)
    db = random_db(random.Random(3), n_pat=12, waves=5)
    cfg = MinerConfig(minsup=0.1, risk_sup=0.1)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        results, stats = mine_with_stats(db, cfg)
        assert stats.nodes > 0
        del results, stats
        assert len(stores) == 1 and stores[0]() is None
        # the oracle grows by a recursive closure too
        assert brute_force_mine(db, cfg)
        assert len(stores) == 2 and stores[1]() is None
    finally:
        if was_enabled:
            gc.enable()
