"""End-to-end benchmark of the wavemine CLI.

    python3 perfbench/run.py --workload cohort-10k --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the program is imported from its
``src`` directory.  The benchmark generates seeded inputs, times fresh
interpreters that import ``wavemine.cli`` and exit (``setup_s``, sampled
before the loop and after every repetition), then runs the workload as a
closed loop: one CLI process at a time, each started only after the previous
one exited.  A repetition runs the workload once on each of its cohorts;
repetitions follow one another while the next one is expected to end within
``--seconds`` (at least one runs).  Wall time and CPU time (``os.wait4``
rusage, which includes forked miner workers and BLAS threads) are summed over
a repetition's processes, peak RSS is their maximum, and each is reported as
the median over repetitions.  Every repetition's exit status and artifacts
are checked; a failed check counts the repetition in ``failed``.

With ``--trace 1`` one more repetition runs under ``tracer.py`` and the
per-layer metrics of ``layers.py`` are reported instead of the end-to-end
ones.  ``--smoke`` shrinks every cohort to a few hundred patients.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import cohorts
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

TIME_LIMIT_S = 170.0  # the whole run, including input generation
# set-up samples before the loop and after each repetition, so that they
# span the same stretch of time as the repetitions
SETUP_RUNS = 4
SETUP_RUNS_PER_REP = 2
SMOKE_PATIENTS = 300


@dataclass(frozen=True)
class Workload:
    patients: int
    cohorts: int  # independent seeded cohorts, each run once per repetition
    continuous: bool  # add the BMI/SBP features written by cohorts.add_continuous
    pipeline_args: tuple[str, ...] | None  # None: the five stage subcommands instead


# Why each workload exists:
# cohort-10k  - ~3 patterns, so the per-patient layers (parse, carry-forward,
#               abstraction, intervals.json, O(n^2) concordance) do nearly all
#               the work; the only input with numeric, blank and percentile
#               features.
# patterns-5k - ~100 patterns: the parallel miner, matrix re-embedding and
#               Cox fits with ~100 columns dominate.  The pattern count, and
#               with it the run time, varies by a quarter from one cohort to
#               the next (86 to 145 over 20 seeds), so each repetition runs
#               three cohorts.
# stages-5k   - the same layers through their on-disk artifacts, five
#               processes chained; guards the subcommands' read side and
#               their five-fold set-up cost.  Not in BENCHMARK.json: three
#               steady workloads do not fit the driver's time budget.
WORKLOADS = {
    "cohort-10k": Workload(
        10_000, 1, True, ("--minsup", "0.05", "--risk-threshold", "1.5", "--workers", "1")
    ),
    "patterns-5k": Workload(
        5_000, 3, False, ("--minsup", "0.005", "--risk-threshold", "0.5", "--workers", "2")
    ),
    "stages-5k": Workload(5_000, 1, False, None),
}

# artifacts a stage chain and a pipeline run both write, byte for byte
SHARED_ARTIFACTS = (
    "intervals.json",
    "patterns.json",
    "matrix.csv",
    "matrix.csv.cols.json",
    "report.json",
    "patterns.svg",
)

ENV_PROBE = """
import json, os, platform
import numpy
import wavemine.cli
from wavemine import _kernels
with open("/proc/self/status") as fh:
    threads = next(int(l.split()[1]) for l in fh if l.startswith("Threads:"))
print(json.dumps({"backend": _kernels.backend_name(), "numpy": numpy.__version__,
                  "python": platform.python_version(), "threads_after_import": threads,
                  "nproc": os.cpu_count()}))
"""


def _pipeline_commands(data: Path, out: Path, args: tuple[str, ...]) -> list[list[str]]:
    return [[
        "pipeline",
        "--cohort", str(data / "cohort.csv"),
        "--outcomes", str(data / "outcomes.csv"),
        "--features", str(data / "features.json"),
        "--out-dir", str(out),
        *args,
    ]]


def _stage_commands(data: Path, out: Path) -> list[list[str]]:
    return [
        ["abstract", "--cohort", str(data / "cohort.csv"), "--outcomes", str(data / "outcomes.csv"),
         "--features", str(data / "features.json"), "--out", str(out / "intervals.json")],
        ["mine", "--intervals", str(out / "intervals.json"), "--out", str(out / "patterns.json")],
        ["matrix", "--intervals", str(out / "intervals.json"),
         "--patterns", str(out / "patterns.json"), "--out", str(out / "matrix.csv")],
        ["evaluate", "--matrix", str(out / "matrix.csv"), "--out", str(out / "report.json")],
        ["render", "--patterns", str(out / "patterns.json"), "--report", str(out / "report.json"),
         "--out", str(out / "patterns.svg")],
    ]


def commands(
    datas: list[Path], out: Path, pipeline_args: tuple[str, ...] | None
) -> list[list[str]]:
    """The CLI invocations of one repetition; cohort j writes to ``out/c<j>``."""
    argvs = []
    for j, data in enumerate(datas):
        cohort_out = out / f"c{j}"
        cohort_out.mkdir(parents=True)
        if pipeline_args is None:
            argvs += _stage_commands(data, cohort_out)
        else:
            argvs += _pipeline_commands(data, cohort_out, pipeline_args)
    return argvs


# ---------------------------------------------------------------------------
# processes


@dataclass
class Exit:
    status: int  # exit code; negative for a signal
    spawned: float  # perf_counter readings
    exited: float
    cpu_s: float
    maxrss_mb: float

    @property
    def wall_s(self) -> float:
        return self.exited - self.spawned


def spawn(argv: list[str], env: dict, log: Path, timeout: float) -> Exit:
    """Run ``python argv`` to completion; kill its process group after ``timeout``."""
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *argv],
            env,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, fd, 1),
                (os.POSIX_SPAWN_DUP2, fd, 2),
            ],
            setpgroup=0,
        )
    finally:
        os.close(fd)

    def kill(_signum, _frame):
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(pid, 0)
        exited = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return Exit(
        status=os.waitstatus_to_exitcode(status),
        spawned=t0,
        exited=exited,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,
    )


class Runner:
    """Spawns CLI processes against the checkout's ``src`` within one time limit."""

    def __init__(self, work: Path, started: float):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.log = work / "processes.log"
        self.deadline = started + TIME_LIMIT_S

    def python(self, argv: list[str]) -> Exit:
        with open(self.log, "a", encoding="utf-8") as fh:
            fh.write(f"$ python {' '.join(argv)}\n")
        return spawn(argv, self.env, self.log, self.deadline - time.perf_counter())

    def cli(self, argv: list[str]) -> Exit:
        return self.python(["-m", "wavemine.cli", *argv])


# ---------------------------------------------------------------------------
# repetitions and their checks


@dataclass
class Rep:
    exits: list[Exit]
    digests: dict[str, str] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(e.wall_s for e in self.exits)

    @property
    def cpu_s(self) -> float:
        return sum(e.cpu_s for e in self.exits)

    @property
    def peak_rss_mb(self) -> float:
        return max(e.maxrss_mb for e in self.exits)


def artifact_digests(out: Path) -> dict[str, str]:
    """SHA-256 per artifact; manifests are hashed without their timings."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith("manifest.json"):
            doc = json.loads(data)
            doc.pop("timings_seconds", None)
            data = json.dumps(doc, sort_keys=True).encode()
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def run_rep(run, datas: list[Path], out: Path, pipeline_args: tuple[str, ...] | None) -> Rep:
    """Run one repetition's commands one after another; stop at the first that fails."""
    rep = Rep(exits=[])
    for argv in commands(datas, out, pipeline_args):
        rep.exits.append(run(argv))
        if rep.exits[-1].status != 0:
            rep.problems.append(f"`{argv[0]}` exited with status {rep.exits[-1].status}")
            return rep
    rep.digests = artifact_digests(out)
    rep.sizes = {p.relative_to(out).as_posix(): p.stat().st_size
                 for p in out.rglob("*") if p.is_file()}
    for j in range(len(datas)):
        cohort_out = out / f"c{j}"
        missing = [name for name in SHARED_ARTIFACTS if not (cohort_out / name).is_file()]
        if missing:
            rep.problems.append(f"c{j}: missing artifacts {missing}")
            continue
        report = json.loads((cohort_out / "report.json").read_text(encoding="utf-8"))
        patterns = json.loads((cohort_out / "patterns.json").read_text(encoding="utf-8"))
        outcome = {
            "patterns": len(patterns["patterns"]),
            "cox_mean_c": report["cox"]["mean_c"],
            "rr_mean_c": report["rr_score"]["mean_c"],
        }
        rep.report[f"c{j}"] = outcome
        for name in ("cox_mean_c", "rr_mean_c"):
            value = outcome[name]
            if not (isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0):
                rep.problems.append(f"c{j}: {name} is {value!r}")
        if not outcome["patterns"]:
            rep.problems.append(f"c{j}: no patterns mined")
    return rep


def check_same(rep: Rep, reference: dict[str, str], names, what: str) -> None:
    for name in names:
        if rep.digests.get(name) != reference.get(name):
            rep.problems.append(f"{name} differs from {what}")


# ---------------------------------------------------------------------------
# report


def print_log_tail(log: Path, lines: int = 40) -> None:
    """Copy the end of the spawned processes' output to stderr."""
    if log.exists():
        tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:]
        print("\n".join(["--- end of process output ---", *tail]), file=sys.stderr)


def timing_line(name: str, values: list[float], unit: str) -> str:
    return (f"{name}: median {statistics.median(values):.4f} {unit}, "
            f"max {max(values):.4f} {unit}, n={len(values)}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(runner: Runner) -> dict:
    """Backend, versions and thread counts, from a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", ENV_PROBE], env=runner.env,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise SystemExit(f"cannot import wavemine from {ROOT / 'src'}:\n{done.stderr}")
    env = json.loads(done.stdout)
    env["blas_env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ}
    env["commit"] = git_commit()
    return env


def make_inputs(runner: Runner, workload: Workload, patients: int, seed: int,
                work: Path) -> list[Path]:
    """One directory per cohort; cohort j of seed s uses synth seed s * cohorts + j."""
    datas = []
    for j in range(workload.cohorts):
        synth_seed = seed * workload.cohorts + j
        data = work / f"data-{j}"
        config = work / f"synth-{j}.json"
        config.write_text(json.dumps(cohorts.synth_config(patients, synth_seed)), encoding="utf-8")
        done = runner.cli(["synth", "--out-dir", str(data), "--config", str(config)])
        if done.status != 0:
            raise SystemExit(f"wavemine synth exited with status {done.status}")
        if workload.continuous:
            cohorts.add_continuous(data, synth_seed)
        datas.append(data)
    return datas


def trace_rep(runner: Runner, workload: Workload, datas: list[Path], work: Path):
    """One repetition with every process under tracer.py.

    Returns the repetition and ``(trace, spawned, exited)`` per process.
    """
    spans_dir = work / "spans"
    spans_dir.mkdir()
    files: list[Path] = []

    def traced(argv):
        files.append(spans_dir / f"{len(files)}-{argv[0]}.json")
        return runner.python([str(HERE / "tracer.py"), str(files[-1]), "--", *argv])

    rep = run_rep(traced, datas, work / "traced", workload.pipeline_args)
    traces = [
        (json.loads(f.read_text(encoding="utf-8")), e.spawned, e.exited)
        for f, e in zip(files, rep.exits)
        if f.exists()
    ]
    return rep, traces


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_PATIENTS}-patient cohorts")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wavemine" / "cli.py").is_file():
        print(f"error: no wavemine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    patients = SMOKE_PATIENTS if args.smoke else workload.patients

    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        runner = Runner(work, started)
        env = environment(runner)  # also compiles the sources once
        datas = make_inputs(runner, workload, patients, args.seed, work)
        inputs = {f"c{j}/{name}": digest
                  for j, data in enumerate(datas) for name, digest in cohorts.digests(data).items()}

        setup: list[Exit] = []

        def measure_setup(count: int) -> None:
            for _ in range(count):
                setup.append(runner.python(["-c", "import wavemine.cli"]))
                if setup[-1].status != 0:
                    raise SystemExit(f"`import wavemine.cli` exited with status {setup[-1].status}")

        measure_setup(SETUP_RUNS)

        reference, reference_problems = None, []
        if workload.pipeline_args is None:
            # the stage chain must reproduce a default-threshold pipeline run
            ref = run_rep(runner.cli, datas, work / "reference", ())
            reference, reference_problems = ref.digests, ref.problems

        reps: list[Rep] = []
        loop_end = time.perf_counter() + args.seconds
        while True:
            began = time.perf_counter()
            out = work / f"rep-{len(reps)}"
            reps.append(run_rep(runner.cli, datas, out, workload.pipeline_args))
            shutil.rmtree(out)
            measure_setup(SETUP_RUNS_PER_REP)
            now = time.perf_counter()
            if now + (now - began) > loop_end:
                break

        traced = traces = None
        if args.trace:
            traced, traces = trace_rep(runner, workload, datas, work)
            reps.append(traced)

        first = next((r.digests for r in reps if r.digests), {})
        for rep in reps:
            if rep.digests:
                check_same(rep, first, sorted(set(first) | set(rep.digests)),
                           "the first repetition")
                if reference is not None:
                    check_same(rep, reference,
                               [f"c{j}/{name}" for j in range(len(datas)) for name in SHARED_ARTIFACTS],
                               "the pipeline run")

        print(f"wavemine benchmark: workload={args.workload} seed={args.seed} "
              f"patients={patients} seconds={args.seconds:g} trace={args.trace}")
        print("environment: " + json.dumps(env, sort_keys=True))
        for name, digest in inputs.items():
            print(f"input {name} sha256 {digest}")
        for name, digest in first.items():
            print(f"artifact {name} sha256 {digest}")
        timed = [r for r in reps if r is not traced]
        good = [r for r in timed if not r.problems] or timed
        series = {
            "wall_s": ([r.wall_s for r in good], "s"),
            "cpu_s": ([r.cpu_s for r in good], "s"),
            "peak_rss_mb": ([r.peak_rss_mb for r in good], "MB"),
            "setup_s": ([e.wall_s for e in setup], "s"),
        }
        for name, (values, unit) in series.items():
            print(timing_line(name, values, unit))
        failed = [r for r in reps if r.problems]
        print(f"runs_failed: {len(failed)} of {len(reps)} runs")
        for k, rep in enumerate(reps):
            for problem in rep.problems:
                print(f"  run {k}: {problem}")
        for problem in reference_problems:
            print(f"  reference pipeline run: {problem}")
        outcome = next((r.report for r in reps if r.report), {})
        print("outputs per cohort (recorded, not gated): " + json.dumps(outcome, sort_keys=True))

        if args.trace:
            untraced = statistics.median(series["wall_s"][0])
            metrics, by_layer, by_span = layers.summarize(traces, traced.sizes, untraced)
            print("self time per layer (s): " + ", ".join(
                f"{layer} {seconds:.4f}" for layer, seconds in sorted(by_layer.items())))
            print(f"traced wall {traced.wall_s:.4f} s = sum of self times "
                  f"{sum(by_layer.values()):.4f} s, of which the tracer's own "
                  f"{by_layer.get('trace', 0.0):.4f} s; untraced median {untraced:.4f} s, "
                  f"trace.overhead_s {traced.wall_s - untraced:.4f} s")
            print("self time per span (s): " + ", ".join(
                f"{name} {seconds:.4f}" for name, seconds in sorted(by_span.items())))
            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"processes": traces, "metrics": metrics}),
                                  encoding="utf-8")
            print(f"spans written to {trace_file}")
        else:
            metrics = {name: (statistics.median(values), unit)
                       for name, (values, unit) in series.items()}
        result = {
            "correct": not failed,
            "attempted": len(reps),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        if failed:
            print_log_tail(runner.log)
        return 0
    except SystemExit:
        print_log_tail(work / "processes.log")
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
