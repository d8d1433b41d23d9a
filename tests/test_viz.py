import xml.etree.ElementTree as ET

import pytest

from wavemine.errors import ConfigError
from wavemine.viz import COLOR_MAP, GROUP_WIDTH, MARGIN_LEFT, RenderPattern, RenderSpec, render_svg

from util import ep

SVG_NS = "{http://www.w3.org/2000/svg}"


def _pattern():
    return RenderPattern(
        groups=(
            (ep("A", "high", "+"),),
            (ep("B", "low", "+"), ep("A", "high", "-")),
            (ep("B", "low", "-"),),
        ),
        risk=2.5,
    )


def _spec(**kwargs):
    base = dict(
        severity_of={("A", "high"): "very_low", ("B", "low"): "low"},
        max_patterns=10,
    )
    base.update(kwargs)
    return RenderSpec(**base)


def test_empty_ranking_is_valid_svg_with_time_arrow():
    svg = render_svg([], {}, _spec())
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    assert root.findall(f".//{SVG_NS}rect") == []
    assert any(m.get("id") == "arrow" for m in root.iter(f"{SVG_NS}marker"))
    assert "time" in svg


def test_single_pattern_layout():
    patterns = {"k": _pattern()}
    svg = render_svg(["k"], patterns, _spec())
    root = ET.fromstring(svg)
    rects = root.findall(f".//{SVG_NS}rect")
    assert len(rects) == 2  # one bar per interval
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert "A - high" in texts and "B - low" in texts
    assert "RR 2.50" in texts
    # bars are laid out in start order: A spans groups 0-1, B spans groups 1-2;
    # A's finish and B's start share group column 1 (vertical alignment)
    a_rect, b_rect = rects
    a_end = float(a_rect.get("x")) + float(a_rect.get("width"))
    b_start = float(b_rect.get("x"))
    column = lambda x: int((x - MARGIN_LEFT) // GROUP_WIDTH)  # noqa: E731
    assert column(a_end) == column(b_start) == 1
    # severity colors come from the fixed map
    assert a_rect.get("fill") == COLOR_MAP["very_low"]
    assert b_rect.get("fill") == COLOR_MAP["low"]


def test_render_deterministic():
    patterns = {"k": _pattern()}
    assert render_svg(["k"], patterns, _spec()) == render_svg(["k"], patterns, _spec())


def test_row_count_respects_max():
    patterns = {f"k{i}": _pattern() for i in range(6)}
    ranking = sorted(patterns)
    svg = render_svg(ranking, patterns, _spec(max_patterns=3))
    root = ET.fromstring(svg)
    rects = root.findall(f".//{SVG_NS}rect")
    assert len(rects) == 3 * 2  # three rows, two bars each
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert "P3" in texts and "P4" not in texts


def test_unknown_severity_renders_gray():
    patterns = {"k": RenderPattern(groups=((ep("Z", "q", "+"), ep("Z", "q", "-")),), risk=1.1)}
    svg = render_svg(["k"], patterns, _spec(severity_of={}))
    root = ET.fromstring(svg)
    (rect,) = root.findall(f".//{SVG_NS}rect")
    assert rect.get("fill") == COLOR_MAP["other"]


def test_labels_are_escaped():
    patterns = {
        "k": RenderPattern(groups=((ep("A<b>", "x&y", "+"), ep("A<b>", "x&y", "-")),), risk=1.0)
    }
    svg = render_svg(["k"], patterns, _spec())
    ET.fromstring(svg)  # parses despite markup-hostile names


def test_max_patterns_validation():
    with pytest.raises(ConfigError):
        RenderSpec(max_patterns=0)
