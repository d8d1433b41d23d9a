"""Command-line pipeline: synth, abstract, mine, matrix, evaluate, render.

Each stage is one ``_*_stage`` function that computes and writes its
artifact; its subcommand reads the inputs from disk, while ``pipeline`` hands
each stage the previous one's results in memory and reads nothing back.

Every run writes a run manifest (tool version, input digests, effective
config, measured ``metrics`` such as the miner's search counters and each
fold's Cox fit diagnostics, per-stage timings; ``mining`` times the search
alone, apart from loading, abstraction and writing ``patterns.json``, which
``patterns_io`` times).
All stages are deterministic for fixed inputs and seeds; only the manifest's
timing fields vary between reruns.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import logging
import sys
import time
from pathlib import Path

from . import __version__
from .abstraction import abstract_cohort, load_feature_config, feature_config_payload
from .encoding import (
    CohortIntervals,
    groups_from_payload,
    groups_to_payload,
    read_intervals_json,
    write_intervals_json,
)
from .errors import ConfigError, MatrixFormatError, WaveMineError, typed_setting
from .ingest import carry_forward, parse_cohort, parse_outcomes, write_cohort_csv, write_outcomes_csv
from .matrix import (
    build_matrix,
    read_matrix_csv,
    sidecar_payload,
    write_matrix_csv,
    write_sidecar_json,
)
from .miner import MinerConfig, MiningStats, PatternResult, RiskStats, TemporalPattern, mine_with_stats, odds_ratio, relative_risk
from .survival import DEFAULT_LAMBDA_GRID, _check_folds, _check_penalty, _heldout_c, cross_validate, rank_patterns, rr_score
from .synth import generate, parse_synth_config
from .viz import RenderPattern, RenderSpec, render_svg

log = logging.getLogger(__name__)


def _digest(path: Path) -> str:
    """The file's SHA-256, read 1 MiB at a time into one buffer."""
    sha, buf = hashlib.sha256(), bytearray(1 << 20)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            sha.update(view[:n])
    return sha.hexdigest()


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON in {path}: {exc}") from None


def _run_manifest(
    path: Path, command: str, inputs: dict, config: dict, metrics: dict, timings: dict
) -> None:
    _write_json(
        path,
        {
            "tool": "wavemine",
            "version": __version__,
            "command": command,
            "input_digests": {name: _digest(Path(p)) for name, p in inputs.items()},
            "config": config,
            "metrics": metrics,
            "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
        },
    )


def _mining_metrics(stats: MiningStats) -> dict:
    """The miner's search counters, as recorded by ``mine`` and ``pipeline``."""
    return {"mining": dataclasses.asdict(stats)}


def _evaluate_metrics(cv) -> dict:
    """Each fold's chosen fit, as recorded by ``evaluate`` and ``pipeline``."""
    return {"evaluate": {"folds": [
        {"lambda": lam, "iterations": m.iterations, "converged": m.converged,
         "train_c": c_train, "test_c": c_test, "objective_path_length": len(m.objective_path)}
        for lam, m, c_train, c_test in zip(cv.chosen_lambda, cv.models, cv.train_c, cv.fold_c)
    ]}}


def _mine_config_payload(config: MinerConfig) -> dict:
    return {"minsup": config.minsup, "minsup_scope": config.minsup_scope,
            "risk_threshold": config.risk_sup, "measure": config.measure,
            "max_length": config.max_length}


def _patterns_payload(results, config: MinerConfig, doc: CohortIntervals):
    return {
        "config": _mine_config_payload(config),
        "total_patients": len(doc.ids),
        "total_events": sum(1 for event in doc.events if event),
        "levels": {f: dict(by) for f, by in sorted(doc.levels.items())},
        "patterns": [
            {
                "id": f"P{j + 1}",
                "key": r.pattern.key(),
                "groups": groups_to_payload(r.pattern.groups),
                **dataclasses.asdict(r.stats),
                "rr": relative_risk(r.stats),
                "odds_ratio": odds_ratio(r.stats),
                "matched_patient_ids": list(r.matched),
            }
            for j, r in enumerate(results)
        ],
    }


def _read_patterns(path: Path):
    """A patterns.json file as (results, level severities, risk measure)."""
    payload = _read_json(path)
    try:
        results = [
            PatternResult(
                pattern=TemporalPattern(groups_from_payload(entry["groups"])),
                stats=RiskStats(**{f.name: entry[f.name] for f in dataclasses.fields(RiskStats)}),
                matched=tuple(entry["matched_patient_ids"]),
            )
            for entry in payload["patterns"]
        ]
        severity_of = {
            (feature, level): sev
            for feature, by in payload.get("levels", {}).items()
            for level, sev in by.items()
        }
        return results, severity_of, payload.get("config", {}).get("measure")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MatrixFormatError(f"bad patterns JSON structure in {path}: {exc!r}") from None


def _load_intervals(path: Path) -> CohortIntervals:
    with open(path, "r", encoding="utf-8") as fh:
        return read_intervals_json(fh)


MINE_DEFAULTS = {
    "minsup": 0.05,
    "minsup_scope": "event_group",
    "risk_threshold": 1.5,
    "measure": "rr",
    "max_length": None,
}
EVAL_DEFAULTS = {"k": 5, "seed": 0, "lambda_grid": ",".join(str(x) for x in DEFAULT_LAMBDA_GRID)}
RENDER_DEFAULTS = {"top": 10}
SYNTH_FLAGS = ("patients", "waves", "features", "event_rate", "noise_rate", "seed")


def _config_file(args) -> dict:
    """The settings of the ``--config`` file, if one is given: a JSON object."""
    doc = _read_json(Path(args.config)) if getattr(args, "config", None) else {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{args.config}: a config file must hold a JSON object")
    return doc


def _effective(args, defaults: dict) -> dict:
    """Flag > config file > built-in default."""
    doc = _config_file(args)
    out = {}
    for name, default in defaults.items():
        value = getattr(args, name, None)
        if value is None:
            value = doc.get(name, default)
        out[name] = value
    return out


def _miner_config(eff: dict) -> MinerConfig:
    measure = eff["measure"]
    if measure not in ("rr", "or"):
        raise ConfigError(f"measure must be rr or or, got {measure!r}")
    max_length = eff["max_length"]
    return MinerConfig(
        minsup=typed_setting(float, "minsup", eff["minsup"]),
        minsup_scope=eff["minsup_scope"],
        risk_sup=typed_setting(float, "risk_threshold", eff["risk_threshold"]),
        measure={"rr": "relative_risk", "or": "odds_ratio"}[measure],
        max_length=None if max_length is None else typed_setting(int, "max_length", max_length),
    )


# Each stage's settings, as its manifest ``config`` records them; ``pipeline``
# records their union.


def _abstract_config(args) -> dict:
    return {"wave_count": args.wave_count}


def _eval_config(eff: dict) -> dict:
    lam_grid = [_check_penalty(typed_setting(float, "lambda_grid", x))
                for x in str(eff["lambda_grid"]).split(",")]
    k, seed = typed_setting(int, "k", eff["k"]), typed_setting(int, "seed", eff["seed"])
    _check_folds(k, seed)
    return {"k": k, "seed": seed, "lambda_grid": lam_grid}


def _render_config(eff: dict) -> dict:
    return {"top": RenderSpec(max_patterns=typed_setting(int, "top", eff["top"])).max_patterns}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    t0 = time.perf_counter()
    # flag > config file > SynthConfig's default
    flags = {name: value for name in SYNTH_FLAGS if (value := getattr(args, name)) is not None}
    config = parse_synth_config({**_config_file(args), **flags})
    cohort, specs, manifest = generate(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "cohort.csv", "w", encoding="utf-8", newline="") as fh:
        write_cohort_csv(cohort, fh)
    with open(out_dir / "outcomes.csv", "w", encoding="utf-8", newline="") as fh:
        write_outcomes_csv(cohort.outcomes(), fh)
    _write_json(out_dir / "features.json", feature_config_payload(specs))
    _write_json(out_dir / "manifest.json", manifest)
    inputs = {"config": args.config} if args.config else {}
    _run_manifest(
        out_dir / "run_manifest.json",
        "synth",
        inputs,
        {"seed": config.seed, "patients": config.patients, "waves": config.waves,
         "features": config.features, "event_rate": config.event_rate,
         "noise_rate": config.noise_rate},
        {},
        {"synth": time.perf_counter() - t0},
    )
    print(f"synth: wrote cohort of {config.patients} patients to {out_dir}")
    return 0


def _abstract_stage(args, out: Path) -> CohortIntervals:
    specs = load_feature_config(args.features)
    with open(args.outcomes, "r", encoding="utf-8") as fh:
        outcomes = parse_outcomes(fh)
    with open(args.cohort, "r", encoding="utf-8") as fh:
        cohort = parse_cohort(fh, specs, outcomes, wave_count=args.wave_count)
    cohort = carry_forward(cohort)
    doc = abstract_cohort(cohort, specs)
    del cohort  # its columns are done with before intervals.json is written
    with open(out, "w", encoding="utf-8") as fh:
        write_intervals_json(doc, fh)
    return doc


def _cmd_abstract(args) -> int:
    t0 = time.perf_counter()
    doc = _abstract_stage(args, Path(args.out))
    _run_manifest(
        Path(args.out + ".manifest.json"),
        "abstract",
        {"cohort": args.cohort, "outcomes": args.outcomes, "features": args.features},
        _abstract_config(args),
        {},
        {"abstract": time.perf_counter() - t0},
    )
    print(f"abstract: wrote intervals for {len(doc.ids)} patients to {args.out}")
    return 0


def _mine_stage(doc: CohortIntervals, config: MinerConfig, out: Path, timings: dict):
    """Mine, then write ``out``.

    ``timings`` gets the search as ``mining`` and the write as ``patterns_io``.
    """
    t0 = time.perf_counter()
    results, stats = mine_with_stats(doc, config)
    t1 = time.perf_counter()
    _write_json(out, _patterns_payload(results, config, doc))
    timings["mining"] = t1 - t0
    timings["patterns_io"] = time.perf_counter() - t1
    return results, stats


def _cmd_mine(args) -> int:
    t0 = time.perf_counter()
    doc = _load_intervals(Path(args.intervals))
    config = _miner_config(_effective(args, MINE_DEFAULTS))
    timings = {"load": time.perf_counter() - t0}
    results, stats = _mine_stage(doc, config, Path(args.out), timings)
    _run_manifest(
        Path(args.out + ".manifest.json"),
        "mine",
        {"intervals": args.intervals},
        _mine_config_payload(config),
        _mining_metrics(stats),
        timings,
    )
    print(f"mine: {len(results)} patterns ({stats.nodes} nodes) in {timings['mining']:.2f}s "
          f"-> {args.out}")
    return 0


def _matrix_stage(results, doc: CohortIntervals, out: Path):
    matrix = build_matrix(results, doc.ids, doc.outcomes())
    with open(out, "w", encoding="utf-8", newline="") as fh:
        write_matrix_csv(matrix, fh)
    sidecar = sidecar_payload(matrix, results)
    with open(str(out) + ".cols.json", "w", encoding="utf-8") as fh:
        write_sidecar_json(sidecar, fh)
    return matrix, sidecar


def _cmd_matrix(args) -> int:
    t0 = time.perf_counter()
    doc = _load_intervals(Path(args.intervals))
    results = _read_patterns(Path(args.patterns))[0]
    matrix, _ = _matrix_stage(results, doc, Path(args.out))
    _run_manifest(
        Path(args.out + ".manifest.json"),
        "matrix",
        {"intervals": args.intervals, "patterns": args.patterns},
        {},
        {},
        {"matrix": time.perf_counter() - t0},
    )
    print(f"matrix: {matrix.shape[0]}x{matrix.shape[1]} -> {args.out}")
    return 0


def _evaluate_stage(matrix, sidecar: dict, settings: dict, out: Path) -> tuple[dict, dict]:
    cv = cross_validate(
        matrix, k=settings["k"], seed=settings["seed"], lam_grid=settings["lambda_grid"]
    )
    ranking = rank_patterns(cv.models, matrix)
    rr_by_key = {c["key"]: c["rr"] for c in sidecar["columns"] if "rr" in c}
    scores = rr_score(matrix, rr_by_key)
    rr_fold_c, rr_mean_c = _heldout_c(matrix, scores, cv.folds)
    report = {
        **settings,
        "cox": {
            "fold_c": list(cv.fold_c),
            "mean_c": cv.mean_c,
            "chosen_lambda": list(cv.chosen_lambda),
            "converged": [m.converged for m in cv.models],
            "coefficients_per_fold": [m.coefficients.tolist() for m in cv.models],
        },
        "rr_score": {
            "fold_c": list(rr_fold_c),
            "mean_c": rr_mean_c,
        },
        "ranking": {
            "keys": list(ranking.ordered_keys),
            "rank_sums": [ranking.rank_sum[k_] for k_ in ranking.ordered_keys],
        },
    }
    _write_json(out, report)
    return report, _evaluate_metrics(cv)


def _cmd_evaluate(args) -> int:
    t0 = time.perf_counter()
    settings = _eval_config(_effective(args, EVAL_DEFAULTS))
    sidecar_path = Path(args.sidecar if args.sidecar else args.matrix + ".cols.json")
    sidecar = _read_json(sidecar_path)
    with open(args.matrix, "r", encoding="utf-8") as fh:
        matrix = read_matrix_csv(fh, sidecar)
    report, metrics = _evaluate_stage(matrix, sidecar, settings, Path(args.out))
    _run_manifest(
        Path(args.out + ".manifest.json"),
        "evaluate",
        {"matrix": args.matrix, "sidecar": str(sidecar_path)},
        settings,
        metrics,
        {"evaluate": time.perf_counter() - t0},
    )
    print(f"evaluate: cox mean C={report['cox']['mean_c']:.3f} "
          f"rr mean C={report['rr_score']['mean_c']:.3f} -> {args.out}")
    return 0


def _render_stage(results, severity_of, measure, ranking_keys, top: int, out: Path) -> None:
    patterns = {
        r.pattern.key(): RenderPattern(groups=r.pattern.groups, risk=r.stats.risk) for r in results
    }
    label = "RR" if measure != "odds_ratio" else "OR"
    spec = RenderSpec(max_patterns=top, severity_of=severity_of, risk_label=label)
    out.write_text(render_svg(ranking_keys, patterns, spec), encoding="utf-8")


def _cmd_render(args) -> int:
    t0 = time.perf_counter()
    settings = _render_config(_effective(args, RENDER_DEFAULTS))
    results, severity_of, measure = _read_patterns(Path(args.patterns))
    if args.report:
        try:
            ranking_keys = _read_json(Path(args.report))["ranking"]["keys"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{args.report}: no ranking keys ({exc!r})") from None
        if not (isinstance(ranking_keys, list) and all(isinstance(k, str) for k in ranking_keys)):
            raise ConfigError(f"{args.report}: ranking keys must be a list of strings")
    else:
        ranking_keys = [r.pattern.key() for r in results]
    _render_stage(results, severity_of, measure, ranking_keys, settings["top"], Path(args.out))
    inputs = {"patterns": args.patterns}
    if args.report:
        inputs["report"] = args.report
    _run_manifest(
        Path(args.out + ".manifest.json"),
        "render",
        inputs,
        settings,
        {},
        {"render": time.perf_counter() - t0},
    )
    print(f"render: wrote {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    # every setting is checked before the first stage writes anything
    eff = _effective(args, {**MINE_DEFAULTS, **EVAL_DEFAULTS, **RENDER_DEFAULTS})
    config = _miner_config(eff)
    eval_settings, render_settings = _eval_config(eff), _render_config(eff)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    doc = _abstract_stage(args, out_dir / "intervals.json")
    timings["abstract"] = time.perf_counter() - t0

    results, stats = _mine_stage(doc, config, out_dir / "patterns.json", timings)

    t2 = time.perf_counter()
    matrix, sidecar = _matrix_stage(results, doc, out_dir / "matrix.csv")
    timings["matrix"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    report, eval_metrics = _evaluate_stage(matrix, sidecar, eval_settings, out_dir / "report.json")
    timings["evaluate"] = time.perf_counter() - t3

    t4 = time.perf_counter()
    _render_stage(
        results, doc.severity_of(), config.measure, report["ranking"]["keys"],
        render_settings["top"], out_dir / "patterns.svg",
    )
    timings["render"] = time.perf_counter() - t4

    _run_manifest(
        out_dir / "run_manifest.json",
        "pipeline",
        {"cohort": args.cohort, "outcomes": args.outcomes, "features": args.features},
        {**_abstract_config(args), **_mine_config_payload(config), **eval_settings,
         **render_settings},
        {**_mining_metrics(stats), **eval_metrics},
        timings,
    )
    print(f"pipeline: {len(results)} patterns, cox mean C={report['cox']['mean_c']:.3f}, "
          f"outputs in {out_dir}")
    return 0


# ---------------------------------------------------------------------------


def _add_abstract_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cohort", required=True)
    p.add_argument("--outcomes", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--wave-count", type=int, default=None)


def _add_mine_flags(p: argparse.ArgumentParser) -> None:
    # defaults of None let a --config file fill unset flags (see MINE_DEFAULTS)
    p.add_argument("--minsup", type=float, default=None, help="minimum support fraction")
    p.add_argument("--minsup-scope", choices=("event_group", "population"), default=None)
    p.add_argument("--risk-threshold", type=float, default=None)
    p.add_argument("--measure", choices=("rr", "or"), default=None)
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON file with default parameter values")
    # accepted and never read: the benchmark's command lines still pass it
    p.add_argument("--workers", type=int, help=argparse.SUPPRESS)


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=None, help="cross-validation folds")
    p.add_argument("--lambda-grid", default=None, help="comma-separated ridge penalties")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavemine",
        description="Mine high-relative-risk temporal patterns from wave-structured cohorts",
    )
    parser.add_argument("--version", action="version", version=f"wavemine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort with planted patterns")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="synth config JSON (incl. planted patterns)")
    # defaults of None let a --config file fill unset flags, and SynthConfig the rest
    p.add_argument("--patients", type=int, default=None)
    p.add_argument("--waves", type=int, default=None)
    p.add_argument("--features", type=int, default=None)
    p.add_argument("--event-rate", type=float, default=None)
    p.add_argument("--noise-rate", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("abstract", help="parse, carry forward, and abstract a cohort")
    _add_abstract_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_abstract)

    p = sub.add_parser("mine", help="mine high-risk patterns from intervals JSON")
    p.add_argument("--intervals", required=True)
    p.add_argument("--out", required=True)
    _add_mine_flags(p)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("matrix", help="build the patients x patterns design matrix")
    p.add_argument("--intervals", required=True)
    p.add_argument("--patterns", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("evaluate", help="cross-validated survival evaluation")
    p.add_argument("--matrix", required=True)
    p.add_argument("--sidecar", default=None, help="defaults to <matrix>.cols.json")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON file with default parameter values")
    _add_eval_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("render", help="render ranked patterns as SVG")
    p.add_argument("--patterns", required=True)
    p.add_argument("--report", default=None, help="report JSON providing the ranking")
    p.add_argument("--top", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("pipeline", help="run abstract -> mine -> matrix -> evaluate -> render")
    _add_abstract_flags(p)
    p.add_argument("--out-dir", required=True)
    _add_mine_flags(p)
    p.add_argument("--seed", type=int, default=None)
    _add_eval_flags(p)
    p.add_argument("--top", type=int, default=None)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    """Run one command, in this one process, with the cyclic garbage collector paused.

    Reference counting frees everything a command builds, so full collections
    would only walk it again.
    """
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (WaveMineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
