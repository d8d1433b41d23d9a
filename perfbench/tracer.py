"""Run one wavemine CLI command with a span around every call into a layer.

    python3 perfbench/tracer.py SPANS_JSON -- <wavemine arguments>

The functions listed in ``layers.TRACED`` are replaced, in every loaded
``wavemine`` module that refers to them, by wrappers that record
``[id, parent id, name, start, end]`` in memory.  Hooks count the work each
layer did.  Spans and counts are written to SPANS_JSON when the command ends.
Times come from ``time.perf_counter``, the same monotonic clock in every
process, so they line up with the parent's spawn and exit times.
"""
import time

_STARTED = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import layers  # noqa: E402


class Tracer:
    def __init__(self, started: float):
        self.spans = [[1, 0, "trace.process", started, 0.0]]
        self.stack = [1]
        self.counts: dict[str, float] = {}

    def _open(self, name: str) -> list:
        record = [len(self.spans) + 1, self.stack[-1], name, 0.0, 0.0]
        self.spans.append(record)
        self.stack.append(record[0])
        record[3] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[4] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, fn, name: str, hook=None):
        """``fn`` timed as span ``name``; ``hook(tracer, before, args, result)`` counts its work.

        ``hook.before(args)``, if defined, takes a reading before the call.
        Hooks run inside ``trace.hook`` spans, so their cost is not charged
        to any layer.
        """
        before = getattr(hook, "before", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = None
            if before is not None:
                with self.span("trace.hook"):
                    state = before(args)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if hook is not None:
                with self.span("trace.hook"):
                    hook(self, state, args, result)
            return result

        return traced

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def dump(self, path: str) -> None:
        """End the root span and write spans and counts."""
        self.spans[0][4] = time.perf_counter()
        text = json.dumps({"spans": self.spans, "counts": self.counts})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# --- hooks: (tracer, before, args, result) -> None


def _rows(tracer, _before, args, _result):
    path = getattr(args[0], "name", None)
    if isinstance(path, str):
        with open(path, "rb") as fh:
            tracer.add("ingest.rows", fh.read().count(b"\n") - 1)


def _cells(cohort) -> int:
    return sum(len(series) for p in cohort.patients for series in p.values.values())


def _filled(tracer, _before, args, result):
    tracer.add("ingest.cells_filled", _cells(result) - _cells(args[0]))


def _intervals(tracer, _before, _args, result):
    tracer.add("abstraction.intervals", sum(len(p.intervals) for p in result.patients))


def _endpoints(tracer, _before, _args, result):
    tracer.add("encoding.endpoints", sum(len(g.endpoints) for g in result.groups))


def _mined(tracer, _before, _args, result):
    results, stats = result
    for field in ("nodes", "candidates", "emitted", "duplicates", "undefined_risk"):
        tracer.add(f"miner.{field}", getattr(stats, field))
    tracer.add("miner.patterns", len(results))


def _matrix_cells(tracer, _before, _args, result):
    tracer.add("matrix.cells", result.cells.size)


_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_growth(tracer, before, _args, _result):
    """Peak RSS during the call minus RSS at its start.

    Exact whenever the call sets a new process peak; a call that stays
    under an earlier peak tells nothing and is skipped.
    """
    rss, peak_kb = before
    after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if after_kb > peak_kb:
        growth = (after_kb * 1024 - rss) / 2**20
        tracer.counts["survival.rss_growth_mb"] = max(
            tracer.counts.get("survival.rss_growth_mb", 0.0), growth
        )


def _rss_before(_args):
    with open("/proc/self/statm", "rb") as fh:
        rss = int(fh.read().split()[1]) * _PAGE
    return rss, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


_rss_growth.before = _rss_before

HOOKS = {
    "ingest.parse_cohort": _rows,
    "ingest.carry_forward": _filled,
    "abstraction.abstract_cohort": _intervals,
    "encoding.encode": _endpoints,
    "miner.mine_with_stats": _mined,
    "matrix.build_matrix": _matrix_cells,
    "survival.concordance_index": _rss_growth,
}


def install(tracer: Tracer) -> None:
    """Swap every traced function for its wrapper wherever a wavemine module binds it."""
    swap = {}
    for module, function in layers.TRACED:
        fn = getattr(sys.modules[module], function)
        name = layers.span_name(module, function)
        swap[id(fn)] = (fn, tracer.wrap(fn, name, HOOKS.get(name)))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "wavemine" and not mod_name.startswith("wavemine."):
            continue
        for attr, value in list(vars(mod).items()):
            entry = swap.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- <wavemine arguments>")
    tracer = Tracer(_STARTED)
    try:
        with tracer.span("cli.import"):
            import wavemine.cli
        install(tracer)
        return tracer.wrap(wavemine.cli.main, "cli.main")(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
