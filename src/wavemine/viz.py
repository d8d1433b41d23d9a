"""Static SVG rendering of ranked patterns.

One row per pattern, best rank first.  The left gutter carries the pattern
id and its risk value; each interval becomes a rounded bar labelled
"feature - level", colored by level severity, positioned horizontally by
group index so that bars sharing group indices align vertically.  A time
arrow spans the top.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from html import escape
from typing import Mapping, Sequence

from .encoding import Endpoint, pair_endpoints
from .errors import ConfigError

COLOR_MAP = {
    "very_low": "#d62728",   # red
    "low": "#ff8c00",        # orange
    "normal": "#2ca02c",     # green
    "high": "#87cefa",       # light blue
    "very_high": "#1f3f8f",  # dark blue
    "other": "#9e9e9e",      # gray
}

# Layout, in pixels.
LANE_HEIGHT = 26
GROUP_WIDTH = 120
MARGIN_LEFT = 150
MARGIN_TOP = 56
BAR_PAD = 6
ROW_GAP = 16


@dataclass(frozen=True)
class RenderPattern:
    groups: tuple[tuple[Endpoint, ...], ...]
    risk: float


@dataclass(frozen=True)
class RenderSpec:
    max_patterns: int = 10
    risk_label: str = "RR"
    severity_of: Mapping[tuple[str, str], str] = field(default_factory=dict)

    def __post_init__(self):
        if self.max_patterns < 1:
            raise ConfigError(f"max_patterns must be >= 1, got {self.max_patterns}")


def render_svg(
    ranking: Sequence[str],
    patterns: Mapping[str, RenderPattern],
    spec: RenderSpec | None = None,
) -> str:
    """Render the top-ranked patterns as an SVG document."""
    spec = spec or RenderSpec()
    shown = [key for key in ranking if key in patterns][: spec.max_patterns]
    rows = []
    max_groups = 1
    for key in shown:
        pat = patterns[key]
        # one bar per interval: (feature, level, start group, end group)
        bars = sorted(pair_endpoints(pat.groups)[0], key=lambda b: (b[2], b[0], b[1]))
        rows.append((key, pat, bars))
        max_groups = max(max_groups, len(pat.groups))

    width = MARGIN_LEFT + max_groups * GROUP_WIDTH + 40
    y = MARGIN_TOP
    body: list[str] = []
    for rank, (key, pat, bars) in enumerate(rows, start=1):
        lanes = max(len(bars), 1)
        row_h = lanes * LANE_HEIGHT
        label_y = y + row_h / 2
        body.append(
            f'<text x="12" y="{label_y - 4:.1f}" class="pid">P{rank}</text>'
        )
        body.append(
            f'<text x="12" y="{label_y + 14:.1f}" class="risk">'
            f"{escape(spec.risk_label, quote=False)} {pat.risk:.2f}</text>"
        )
        for lane, (feature, level, gs, ge) in enumerate(bars):
            x = MARGIN_LEFT + gs * GROUP_WIDTH + BAR_PAD
            w = (ge - gs + 1) * GROUP_WIDTH - 2 * BAR_PAD
            by = y + lane * LANE_HEIGHT + 3
            bh = LANE_HEIGHT - 6
            severity = spec.severity_of.get((feature, level), "other")
            color = COLOR_MAP.get(severity, COLOR_MAP["other"])
            body.append(
                f'<rect x="{x}" y="{by}" width="{w}" height="{bh}" rx="6" fill="{color}"/>'
            )
            body.append(
                f'<text x="{x + w / 2:.1f}" y="{by + bh - 6:.1f}" class="bar">'
                f"{escape(feature, quote=False)} - {escape(level, quote=False)}</text>"
            )
        body.append(
            f'<line x1="{MARGIN_LEFT - 8}" y1="{y + row_h + ROW_GAP / 2:.1f}" '
            f'x2="{width - 20}" y2="{y + row_h + ROW_GAP / 2:.1f}" class="sep"/>'
        )
        y += row_h + ROW_GAP
    height = y + 20

    arrow_y = MARGIN_TOP - 24
    header = [
        f'<line x1="{MARGIN_LEFT}" y1="{arrow_y}" x2="{width - 28}" y2="{arrow_y}" '
        'class="axis" marker-end="url(#arrow)"/>',
        f'<text x="{MARGIN_LEFT}" y="{arrow_y - 8}" class="axis-label">time</text>',
    ]
    doc = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<defs>",
        '<marker id="arrow" markerWidth="10" markerHeight="8" refX="8" refY="4" orient="auto">',
        '<path d="M0,0 L10,4 L0,8 z" fill="#2b4a8b"/>',
        "</marker>",
        "</defs>",
        "<style>",
        "text { font-family: sans-serif; font-size: 12px; }",
        ".pid { font-weight: bold; font-size: 14px; }",
        ".risk { fill: #444444; }",
        ".bar { fill: #111111; text-anchor: middle; font-size: 11px; }",
        ".axis { stroke: #2b4a8b; stroke-width: 2; }",
        ".axis-label { fill: #2b4a8b; }",
        ".sep { stroke: #dddddd; stroke-width: 1; }",
        "</style>",
        *header,
        *body,
        "</svg>",
    ]
    return "\n".join(doc) + "\n"
