import random

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
)
from wavemine.errors import PairingError

from util import ep


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
    from wavemine.miner import TemporalPattern, _sweep_open, contains
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
        assert contains(seq, groups)
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

    from wavemine.encoding import (
        CohortIntervals,
        PatientIntervals,
        read_intervals_json,
        write_intervals_json,
    )
    from wavemine.errors import MatrixFormatError

    doc = CohortIntervals(
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
    assert [s.patient_id for s in back.sequences()] == ["p1", "p2"]
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
    from wavemine.encoding import CohortIntervals, PatientIntervals

    rng = random.Random(17)
    odd = CohortIntervals(
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
    return {
        "odd strings, int and float times": odd,
        "patient without intervals": CohortIntervals(
            3, {"A": {"x": "high"}}, (PatientIntervals("p1", 2.0, False, ()),), {}
        ),
        "float and bool waves": CohortIntervals(
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
        "nan time": CohortIntervals(2, {}, (PatientIntervals("p1", float("nan"), False, ()),)),
        "no patients": CohortIntervals(3, {"A": {"x": "high"}}, (), {"A": [1.5]}),
        "no levels, no edges": CohortIntervals(
            2, {}, (PatientIntervals("p1", 1.0, True, (StateInterval("A", "x", 1, 1),)),), None
        ),
        "long float edges": CohortIntervals(
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


@pytest.mark.parametrize("name", list(_writer_cases()))
def test_intervals_json_writer_matches_json_dump(name):
    import io

    from wavemine.encoding import write_intervals_json

    doc = _writer_cases()[name]
    buf = io.StringIO()
    write_intervals_json(doc, buf)
    assert buf.getvalue() == _reference_intervals_json(doc)
