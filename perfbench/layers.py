"""Layer boundaries for the traced run and the per-layer metrics built from its spans.

A span is recorded around each call to a function listed in ``TRACED``.  Its
name is ``<layer>.<function>`` and its layer is the module the function lives
in.  A span's self time is its duration minus that of its direct children, so
the self times of one process add up to the duration of its root span.  The
interpreter's start before the root span and its exit after it (writing the
spans included) are taken from the parent's spawn and exit times, so all self
times together add up to the traced wall time.
"""
from __future__ import annotations

from collections import defaultdict

# Public functions of each layer, as (module, function).  ``cli.main`` is the
# root of every command; spans named ``trace.*`` are the tracer's own work.
TRACED = (
    ("wavemine.ingest", "parse_outcomes"),
    ("wavemine.ingest", "parse_cohort"),
    ("wavemine.ingest", "carry_forward"),
    ("wavemine.abstraction", "load_feature_config"),
    ("wavemine.abstraction", "abstract_cohort"),
    ("wavemine.abstraction", "fit_cohort_edges"),
    ("wavemine.encoding", "encode"),
    ("wavemine.encoding", "write_intervals_json"),
    ("wavemine.encoding", "read_intervals_json"),
    ("wavemine.miner", "mine_with_stats"),
    ("wavemine.matrix", "build_matrix"),
    ("wavemine.matrix", "write_matrix_csv"),
    ("wavemine.matrix", "sidecar_payload"),
    ("wavemine.matrix", "write_sidecar_json"),
    ("wavemine.matrix", "read_matrix_csv"),
    ("wavemine.survival", "cross_validate"),
    ("wavemine.survival", "cox_objective"),
    ("wavemine.survival", "concordance_index"),
    ("wavemine.survival", "rank_patterns"),
    ("wavemine.survival", "rr_score"),
    ("wavemine.survival", "cv_score_vector"),
    ("wavemine.viz", "render_svg"),
)


def span_name(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{function}"


# metric -> spans whose self time it sums
SELF_TIMES = {
    "ingest.parse_s": ("ingest.parse_cohort", "ingest.parse_outcomes"),
    "ingest.carry_forward_s": ("ingest.carry_forward",),
    "abstraction.abstract_s": ("abstraction.abstract_cohort",),
    "abstraction.fit_percentiles_s": ("abstraction.fit_cohort_edges",),
    "encoding.encode_s": ("encoding.encode",),
    "encoding.write_intervals_s": ("encoding.write_intervals_json",),
    "encoding.intervals_io_s": ("encoding.write_intervals_json", "encoding.read_intervals_json"),
    "miner.mine_s": ("miner.mine_with_stats",),
    "matrix.build_s": ("matrix.build_matrix",),
    "matrix.write_csv_s": ("matrix.write_matrix_csv",),
    "matrix.read_csv_s": ("matrix.read_matrix_csv",),
    "survival.concordance_s": ("survival.concordance_index",),
    "survival.cox_objective_s": ("survival.cox_objective",),
    "survival.cross_validate_self_s": ("survival.cross_validate",),
    "viz.render_s": ("viz.render_svg",),
    "cli.import_s": ("cli.import",),
    "cli.self_s": ("cli.main",),
}

# metric -> span whose calls it counts
CALLS = {
    "survival.concordance_calls": "survival.concordance_index",
    "survival.cox_objective_calls": "survival.cox_objective",
}

# metrics the tracer's hooks count inside the traced processes
HOOK_COUNTS = {
    "ingest.rows": "count",
    "ingest.cells_filled": "count",
    "abstraction.intervals": "count",
    "encoding.endpoints": "count",
    "miner.nodes": "count",
    "miner.candidates": "count",
    "miner.emitted": "count",
    "miner.duplicates": "count",
    "miner.undefined_risk": "count",
    "miner.patterns": "count",
    "matrix.cells": "count",
    "survival.rss_growth_mb": "MB",
}

# metric -> artifacts whose sizes it sums; a name ending in "manifest.json"
# matches every manifest the command wrote
ARTIFACT_BYTES = {
    "encoding.intervals_bytes": ("intervals.json",),
    "viz.svg_bytes": ("patterns.svg",),
    "cli.artifact_bytes": ("patterns.json", "report.json", "manifest.json"),
}

# counts combined across processes by maximum rather than by sum
_MAX_COUNTS = {"survival.rss_growth_mb"}


def self_times(spans) -> list[tuple[str, float]]:
    """(name, self seconds) per span of one process."""
    covered: dict[int, float] = defaultdict(float)
    for sid, parent, _name, start, end in spans:
        covered[parent] += end - start
    return [(name, end - start - covered[sid]) for sid, _parent, name, start, end in spans]


def summarize(processes, artifact_sizes: dict[str, int], untraced_wall: float):
    """Per-layer metrics, per-layer self times and per-span self times of one traced run.

    ``processes`` holds ``(trace, spawned, exited)`` per traced process: its
    ``{"spans": [...], "counts": {...}}`` document and the parent's
    ``perf_counter`` readings at spawn and exit.  ``artifact_sizes`` maps
    artifact file names to bytes.
    """
    by_span: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = {name: 0 for name in HOOK_COUNTS}
    traced_wall = 0.0
    for trace, spawned, exited in processes:
        traced_wall += exited - spawned
        _sid, _parent, _name, root_start, root_end = trace["spans"][0]
        by_span["interpreter.start"] += root_start - spawned
        by_span["interpreter.exit"] += exited - root_end
        for name, seconds in self_times(trace["spans"]):
            by_span[name] += seconds
            calls[name] += 1
        for name, value in trace["counts"].items():
            counts[name] = max(counts[name], value) if name in _MAX_COUNTS else counts[name] + value

    metrics = {}
    for metric, names in SELF_TIMES.items():
        metrics[metric] = (sum(by_span[n] for n in names), "s")
    for metric, name in CALLS.items():
        metrics[metric] = (calls[name], "count")
    for metric, unit in HOOK_COUNTS.items():
        metrics[metric] = (counts[metric], unit)
    candidates = counts["miner.candidates"]
    metrics["miner.yield"] = (counts["miner.patterns"] / candidates if candidates else 0.0, "ratio")
    for metric, suffixes in ARTIFACT_BYTES.items():
        size = sum(b for f, b in artifact_sizes.items() if any(f.endswith(s) for s in suffixes))
        metrics[metric] = (size, "bytes")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")

    by_layer: dict[str, float] = defaultdict(float)
    for name, seconds in by_span.items():
        by_layer[name.split(".", 1)[0]] += seconds
    return metrics, dict(by_layer), dict(by_span)
