import dataclasses
import random

import numpy as np
import pytest

from wavemine.abstraction import StateInterval
from wavemine.encoding import (
    Endpoint,
    canonical_form,
    decode_intervals,
    encode,
    groups_from_payload,
    groups_to_payload,
    pattern_key,
    read_intervals_json,
)
from wavemine.errors import MatrixFormatError, PairingError

from util import encoded_doc, ep, sequences


def test_encode_intervals_to_groups():
    sev = {("bmi", "Overweight"): "high", ("bmi", "Obese"): "very_high"}
    seq = encode(
        "p1",
        [StateInterval("bmi", "Overweight", 1, 3), StateInterval("bmi", "Obese", 4, 4)],
        sev,
        True,
    )
    assert [(g.time, g.endpoints) for g in seq.groups] == [
        (1, (ep("bmi", "Overweight", "+"),)),
        (3, (ep("bmi", "Overweight", "-"),)),
        (4, (ep("bmi", "Obese", "+"), ep("bmi", "Obese", "-"))),
    ]


def test_normal_levels_emit_nothing():
    sev = {("bmi", "Normal weight"): "normal"}
    seq = encode("p1", [StateInterval("bmi", "Normal weight", 1, 7)], sev, False)
    assert seq.groups == ()


def test_intra_group_canonical_order_start_block_first():
    sev = {("A", "high"): "high", ("B", "low"): "low"}
    seq = encode(
        "p1",
        [StateInterval("A", "high", 1, 2), StateInterval("B", "low", 2, 2)],
        sev,
        True,
    )
    t2 = seq.groups[1]
    assert t2.time == 2
    # Start block precedes the Finish block; each block sorted by (feature, level).
    assert t2.endpoints == (
        ep("B", "low", "+"),
        ep("A", "high", "-"),
        ep("B", "low", "-"),
    )


def test_canonical_form_collapses_simultaneous_permutations():
    a_plus, a_minus = ep("A", "x", "+"), ep("A", "x", "-")
    b_plus, b_minus = ep("B", "x", "+"), ep("B", "x", "-")
    one = canonical_form([[a_plus], [b_plus, a_minus], [b_minus]])
    two = canonical_form([[a_plus], [a_minus, b_plus], [b_minus]])
    assert one == two
    assert pattern_key(one) == pattern_key(two)


def test_canonical_form_distinct_symbols_differ():
    assert canonical_form([[ep("A", "x", "+")], [ep("A", "x", "-")]]) != canonical_form(
        [[ep("B", "x", "+")], [ep("B", "x", "-")]]
    )


def test_canonical_form_all_permutations_of_two_groups_collapse():
    a_plus, a_minus = ep("A", "x", "+"), ep("A", "x", "-")
    b_plus, b_minus = ep("B", "x", "+"), ep("B", "x", "-")
    keys = {
        canonical_form([g1, g2])
        for g1 in ([a_plus, b_plus], [b_plus, a_plus])
        for g2 in ([a_minus, b_minus], [b_minus, a_minus])
    }
    assert len(keys) == 1


def test_decode_inverts_encode():
    rng = random.Random(17)
    sev = {("A", "x"): "high", ("B", "y"): "low", ("C", "z"): "very_high"}
    for _ in range(200):
        intervals = []
        for feat, lvl in sev:
            w = 1
            while w <= 6:
                if rng.random() < 0.5:
                    span = rng.randint(0, 6 - w)
                    intervals.append(StateInterval(feat, lvl, w, w + span))
                    w += span + 2
                else:
                    w += 1
        seq = encode("p", intervals, sev, False)
        assert decode_intervals(seq) == sorted(
            intervals, key=lambda iv: (iv.feature, iv.level, iv.start)
        )


A_PLUS, A_MINUS = ep("A", "x", "+"), ep("A", "x", "-")
B_PLUS, B_MINUS = ep("B", "y", "+"), ep("B", "y", "-")


@pytest.mark.parametrize(
    "groups, closed, left_open",
    [
        # closed is None: the groups are ill-formed
        pytest.param([[A_PLUS], [A_MINUS]], [("A", "x", 0, 1)], {}, id="one-interval"),
        pytest.param([[A_MINUS, A_PLUS]], [("A", "x", 0, 0)], {}, id="single-group"),
        pytest.param(
            [[A_PLUS], [A_MINUS, B_PLUS], [B_MINUS]],
            [("A", "x", 0, 1), ("B", "y", 1, 2)],
            {},
            id="chained",
        ),
        pytest.param(
            [[A_PLUS], [A_MINUS], [A_PLUS, A_MINUS]],
            [("A", "x", 0, 1), ("A", "x", 2, 2)],
            {},
            id="reopened",
        ),
        pytest.param([[A_MINUS]], None, None, id="unmatched-finish"),
        pytest.param([[A_MINUS], [A_PLUS], [A_MINUS]], None, None, id="finish-before-start"),
        pytest.param([[A_PLUS], [A_PLUS]], None, None, id="double-open"),
        pytest.param(
            [[A_PLUS], [B_PLUS, A_MINUS]], [("A", "x", 0, 1)], {("B", "y"): 1}, id="left-open"
        ),
    ],
)
def test_pairing_sweep(groups, closed, left_open):
    """One Start/Finish sweep; each caller keeps its own result and error type."""
    from wavemine.encoding import EndpointGroup, EndpointSequence, pair_endpoints
    from wavemine.errors import ConfigError
    from wavemine.miner import TemporalPattern, _Store, _sweep_open
    from wavemine.synth import PlantedPattern
    from wavemine.viz import RenderPattern, render_svg

    def sequence():
        return EndpointSequence(
            patient_id="p",
            groups=tuple(EndpointGroup(t + 1, tuple(g)) for t, g in enumerate(groups)),
            event=False,
        )

    planted = PlantedPattern(groups=groups, frac_events=0.5, frac_nonevents=0.1)
    render = lambda: render_svg(["k"], {"k": RenderPattern(groups=groups, risk=2.0)})  # noqa: E731
    if closed is None:
        with pytest.raises(PairingError):
            pair_endpoints(groups)
        assert _sweep_open(groups) is None
        with pytest.raises(ConfigError):
            TemporalPattern(groups)
        with pytest.raises(PairingError):
            render()
    else:
        assert pair_endpoints(groups) == (closed, left_open)
        assert _sweep_open(groups) == frozenset(left_open)
        assert TemporalPattern(groups).closed == (not left_open)
        assert render().count("<rect") == len(closed)
    if closed is not None and not left_open:
        seq = sequence()
        assert seq.pairs == tuple(closed)
        assert decode_intervals(seq) == sorted(
            (StateInterval(f, lvl, s + 1, e + 1) for f, lvl, s, e in closed),
            key=lambda iv: (iv.feature, iv.level, iv.start),
        )
        assert sorted(planted.intervals()) == sorted(closed)
        assert _Store([seq]).carriers(groups) == [0]
    else:
        # an ill-formed sequence cannot be built, so neither decode nor a store sees one
        with pytest.raises(PairingError, match="^p: "):
            sequence()
        with pytest.raises(ConfigError):
            planted.intervals()


def test_groups_payload_round_trip():
    groups = canonical_form(
        [[ep("A", "x", "+"), ep("B", "y", "+")], [ep("A", "x", "-")], [ep("B", "y", "-")]]
    )
    assert groups_from_payload(groups_to_payload(groups)) == groups


def test_intervals_json_round_trip():
    import io

    from wavemine.encoding import PatientIntervals, read_intervals_json, write_intervals_json
    from wavemine.errors import MatrixFormatError

    doc = encoded_doc(
        wave_count=5,
        levels={"A": {"x": "high"}, "B": {"y": "low", "N": "normal"}},
        patients=(
            PatientIntervals("p1", 4.0, True, (StateInterval("A", "x", 1, 2),)),
            PatientIntervals("p2", 5.0, False, ()),
        ),
        edges={"A": [1.5, 2.5]},
    )
    buf = io.StringIO()
    write_intervals_json(doc, buf)
    back = read_intervals_json(io.StringIO(buf.getvalue()))
    assert back == doc
    assert [s.patient_id for s in sequences(back)] == ["p1", "p2"]
    with pytest.raises(MatrixFormatError):
        read_intervals_json(io.StringIO("not json"))
    with pytest.raises(MatrixFormatError):
        read_intervals_json(io.StringIO('{"wave_count": 3}'))


_GOOD_PATIENT = {
    "patient_id": "p7",
    "time": 4.0,
    "event": 1,
    "intervals": [{"feature": "A", "level": "x", "start": 1, "end": 2}],
}


@pytest.mark.parametrize("field,value", [
    ("event", "0"),
    ("event", 2),
    ("start", 1.7),
    ("end", True),
    ("time", "nan"),
    ("time", -5),
], ids=["event-string", "event-two", "wave-fraction", "wave-bool", "time-string", "time-negative"])
def test_read_intervals_json_rejects_bad_patient_fields(field, value):
    import io
    import json

    from wavemine.encoding import read_intervals_json
    from wavemine.errors import MatrixFormatError

    patient = json.loads(json.dumps(_GOOD_PATIENT))
    if field in ("start", "end"):
        patient["intervals"][0][field] = value
    else:
        patient[field] = value
    doc = {"wave_count": 4, "levels": {"A": {"x": "high"}}, "patients": [patient]}
    with pytest.raises(MatrixFormatError, match="patient 'p7'"):
        read_intervals_json(io.StringIO(json.dumps(doc)))


def test_read_intervals_json_rejects_a_time_beyond_float_range():
    import io
    import json

    from wavemine.encoding import read_intervals_json
    from wavemine.errors import MatrixFormatError

    doc = {"wave_count": 4, "levels": {}, "patients": [{**_GOOD_PATIENT, "time": 10**400}]}
    with pytest.raises(MatrixFormatError, match="too large"):
        read_intervals_json(io.StringIO(json.dumps(doc)))


def test_read_intervals_json_accepts_bools_and_integral_float_waves():
    import io
    import json

    from wavemine.encoding import read_intervals_json

    patient = {**_GOOD_PATIENT, "time": 4, "event": False,
               "intervals": [{"feature": "A", "level": "x", "start": 1.0, "end": 2}]}
    doc = {"wave_count": 4, "levels": {"A": {"x": "high"}}, "patients": [patient]}
    (back,) = read_intervals_json(io.StringIO(json.dumps(doc))).patients
    assert (back.time, back.event) == (4.0, False)
    assert back.intervals == (StateInterval("A", "x", 1, 2),)
    assert type(back.intervals[0].start) is int


def _reference_intervals_json(doc) -> str:
    """``intervals.json`` as ``json.dump(payload, indent=2)`` writes it: the fixed layout."""
    import json

    payload = {
        "wave_count": doc.wave_count,
        "levels": {f: dict(by) for f, by in sorted(doc.levels.items())},
        "edges": {f: list(e) for f, e in sorted((doc.edges or {}).items())},
        "patients": [
            {
                "patient_id": p.patient_id,
                "time": p.time,
                "event": int(p.event),
                "intervals": [
                    {"feature": iv.feature, "level": iv.level, "start": iv.start, "end": iv.end}
                    for iv in p.intervals
                ],
            }
            for p in doc.patients
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


_ODD_NAMES = ["plain", "naïve", "日本", "quo\"te", "back\\slash", "tab\there", "nl\nx", "\x00\x1f",
              "emoji\U0001f600", "del\x7f", " sep", ""]


def _writer_cases():
    from wavemine.encoding import PatientIntervals

    rng = random.Random(17)
    odd = encoded_doc(
        wave_count=7,
        levels={name: {lvl: "high" for lvl in _ODD_NAMES[:4]} for name in _ODD_NAMES},
        patients=tuple(
            PatientIntervals(
                pid,
                time,
                i % 2 == 0,
                tuple(
                    StateInterval(rng.choice(_ODD_NAMES), rng.choice(_ODD_NAMES), w, w + 2)
                    for w in range(rng.randint(0, 4))
                ),
            )
            for i, (pid, time) in enumerate(
                zip(_ODD_NAMES, [3, 4.0, 2.5, 1e16, 7, 0.1, 3.0000000000000004, 5, 6, 1, 2.0, 3])
            )
        ),
        edges={"é\"": [0.1 + 0.2, 1e-300, 123456789.12345678], "b": [1, 2.0]},
    )
    valid_times = tuple(
        dataclasses.replace(p, time=1.1) if p.time < 1 else p for p in odd.patients
    )
    return {
        "odd strings, int and float times": odd,
        "odd strings, valid times": encoded_doc(odd.wave_count, odd.levels, valid_times, odd.edges),
        "patient without intervals": encoded_doc(
            3, {"A": {"x": "high"}}, (PatientIntervals("p1", 2.0, False, ()),), {}
        ),
        "float and bool waves": encoded_doc(
            4,
            {"A": {"x": "high"}},
            (PatientIntervals("p1", 3.0, True, (
                StateInterval("A", "x", 1, 2),
                StateInterval("A", "x", 1.0, 2.0),
                StateInterval("A", "x", True, 2),
                StateInterval("A", "x", 1, 2),
            )),),
            {},
        ),
        "float waves": encoded_doc(
            4,
            {"A": {"x": "high"}},
            (PatientIntervals("p1", 3.0, True, (
                StateInterval("A", "x", 1, 2),
                StateInterval("A", "x", 1.0, 2.0),
                StateInterval("A", "x", 1, 2),
            )),),
            {},
        ),
        "fraction wave after valid patients": encoded_doc(
            4,
            {"A": {"x": "high"}},
            (
                PatientIntervals("p1", 3.0, True, (StateInterval("A", "x", 1, 2),)),
                PatientIntervals("p2", 3.0, False, (StateInterval("A", "x", 1, 2),
                                                    StateInterval("A", "x", 2.5, 3))),
                PatientIntervals("p3", 3.0, False, (StateInterval("A", "x", True, 2),
                                                    StateInterval("A", "x", 2.5, 3))),
            ),
            {},
        ),
        "nan time": encoded_doc(2, {}, (PatientIntervals("p1", float("nan"), False, ()),)),
        "no patients": encoded_doc(3, {"A": {"x": "high"}}, (), {"A": [1.5]}),
        "no levels, no edges": encoded_doc(
            2, {}, (PatientIntervals("p1", 1.0, True, (StateInterval("A", "x", 1, 1),)),), None
        ),
        "long float edges": encoded_doc(
            4,
            {"A": {"x": "normal"}},
            (
                PatientIntervals("p1", 4.0, True, (StateInterval("A", "x", 1, 4),)),
                PatientIntervals("p2", 1.0, False, ()),
                PatientIntervals("p3", 2, True, (StateInterval("A", "x", 1, 1),
                                                 StateInterval("A", "x", 2, 2))),
            ),
            {"A": [rng.uniform(-1e6, 1e6) for _ in range(5)] + [2.0 / 3.0, -0.0, 5e-324]},
        ),
    }


# cases the reader refuses: the writer raises its error naming the patient
# before anything is written, a bad wave for the first patient that holds one
_REFUSED = {
    "odd strings, int and float times": "'tab\\there': time must be finite and >= 1, got 0.1",
    "float and bool waves": "'p1': interval waves must be integers, got True",
    "fraction wave after valid patients": "'p2': interval waves must be integers, got 2.5",
    "nan time": "'p1': time must be finite and >= 1, got nan",
}


@pytest.mark.parametrize("name", list(_writer_cases()))
def test_intervals_json_writer_matches_json_dump(name):
    import io

    from wavemine.encoding import write_intervals_json

    doc = _writer_cases()[name]
    buf = io.StringIO()
    if name in _REFUSED:
        with pytest.raises(MatrixFormatError) as err:
            write_intervals_json(doc, buf)
        assert str(err.value) == "patient " + _REFUSED[name]
        assert buf.getvalue() == ""
        return
    write_intervals_json(doc, buf)
    assert buf.getvalue() == _reference_intervals_json(doc)
    assert len(read_intervals_json(io.StringIO(buf.getvalue())).patients) == len(doc.patients)


def test_cohort_intervals_store_each_distinct_interval_once():
    from wavemine.encoding import PatientIntervals

    a, b, c = StateInterval("A", "x", 1, 2), StateInterval("A", "x", 1.0, 2.0), StateInterval(
        "B", "y", 2, 2
    )
    patients = (
        PatientIntervals("p1", 3.0, True, (a, b, a)),
        PatientIntervals("p2", 2, False, ()),
        PatientIntervals("p3", 4.0, 1, (c, a)),
    )
    doc = encoded_doc(4, {"A": {"x": "high"}}, iter(patients))
    # an int wave and a float wave are equal, but each keeps its own entry
    assert doc.table == (a, b, c)
    assert [type(iv.start) for iv in doc.table] == [int, float, int]
    assert (doc.row.tolist(), doc.code.tolist()) == ([0, 0, 0, 2, 2], [0, 1, 0, 2, 0])
    assert (doc.ids, doc.times, doc.events) == (("p1", "p2", "p3"), (3.0, 2, 4.0), (True, False, 1))
    assert doc.bounds().tolist() == [0, 3, 3, 5]
    assert doc.patients == patients
    assert [type(iv.start) for iv in doc.patients[0].intervals] == [int, float, int]
    assert type(doc.patients[1].time) is int
    assert [doc.intervals_of(i) for i in range(3)] == [p.intervals for p in patients]
    assert doc.outcomes() == {"p1": (3.0, True), "p2": (2, False), "p3": (4.0, 1)}
    fewer = encoded_doc(4, doc.levels, patients[1:])
    assert (fewer.table, fewer.row.tolist(), fewer.code.tolist()) == ((c, a), [1, 1], [0, 1])
    assert fewer.patients == patients[1:]
    # replace shares the arrays it is not given
    moved = dataclasses.replace(doc, edges={"A": [1.5]})
    assert moved.code is doc.code and (moved.edges, moved.levels) == ({"A": [1.5]}, doc.levels)
    assert dataclasses.replace(moved, edges=None) == doc != fewer
    # equality is over each patient's intervals in order, whatever the table order
    reordered = dataclasses.replace(doc, table=(c, b, a), code=np.array([2, 1, 2, 0, 2]))
    assert reordered == doc
    assert dataclasses.replace(reordered, code=np.array([2, 1, 2, 2, 0])) != doc  # p3: (a, c)
    empty = encoded_doc(2, {}, ())
    assert (empty.table, empty.row.size, empty.code.size, empty.patients) == ((), 0, 0, ())


def test_read_intervals_json_shares_equal_intervals():
    import io
    import json

    from wavemine.encoding import read_intervals_json

    def iv(start, end):
        return {"feature": "A", "level": "x", "start": start, "end": end}

    doc = {"wave_count": 4, "levels": {"A": {"x": "high"}}, "patients": [
        {**_GOOD_PATIENT, "patient_id": "p1", "intervals": [iv(1, 2), iv(3, 4), iv(1.0, 2.0)]},
        {**_GOOD_PATIENT, "patient_id": "p2", "intervals": []},
        {**_GOOD_PATIENT, "patient_id": "p3", "intervals": [iv(3, 4)]},
    ]}
    back = read_intervals_json(io.StringIO(json.dumps(doc)))
    assert back.table == (StateInterval("A", "x", 1, 2), StateInterval("A", "x", 3, 4))
    assert (back.row.tolist(), back.code.tolist()) == ([0, 0, 0, 2], [0, 1, 0, 1])
    assert (back.ids, back.times, back.events) == (("p1", "p2", "p3"), (4.0,) * 3, (True,) * 3)
    empty = read_intervals_json(io.StringIO(json.dumps({**doc, "patients": []})))
    assert (empty.table, empty.row.size, empty.patients) == ((), 0, ())


def _many_patients(n=23):
    """Patients with 0 to 3 intervals each, the first and last with none, int and float times."""
    from wavemine.encoding import PatientIntervals

    rng = random.Random(5)
    patients = tuple(
        PatientIntervals(
            f"p{i:02d}", rng.choice([2, 3.5, 6.0]), rng.random() < 0.5,
            () if i in (0, n - 1) else tuple(
                StateInterval(rng.choice("AB"), rng.choice(["x", "y"]), w, w + rng.randint(0, 2))
                for w in range(1, rng.randint(1, 4))
            ),
        )
        for i in range(n)
    )
    return encoded_doc(6, {"A": {"x": "high", "y": "low"}, "B": {"x": "high"}}, patients, {})


@pytest.mark.parametrize("chunk", [1, 2, 5, 1000])
def test_intervals_json_writer_chunks_join_as_one(monkeypatch, chunk):
    import io

    from wavemine import encoding

    monkeypatch.setattr(encoding, "_CHUNK", chunk)
    many = _many_patients()
    int_ids = dataclasses.replace(many, ids=range(len(many.ids)))
    cases = {**_writer_cases(), "many patients": many, "int ids": int_ids}
    for name, doc in cases.items():
        if name not in _REFUSED:
            buf = io.StringIO()
            encoding.write_intervals_json(doc, buf)
            assert buf.getvalue() == _reference_intervals_json(doc), name
