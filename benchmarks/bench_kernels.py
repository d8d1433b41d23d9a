"""Benchmark the ``_nb`` kernels against their pure-numpy fallbacks.

Run: python benchmarks/bench_kernels.py

The ``_nb`` kernels are numba-compiled when the package's backend is numba.
Otherwise (numba absent, or WAVEMINE_NO_NUMBA set) they are the uncompiled
Python loops, and their column is headed "loop" instead of "numba".  The
O(n^2) concordance loop then takes seconds per call beyond n=500, so it is
checked and timed at n=500 only and larger rows show "-" in its columns.
"""
import time

import numpy as np

from wavemine._kernels import (
    backend_name,
    concordance_counts_nb,
    concordance_counts_py,
    cox_suffix_sums_nb,
    cox_suffix_sums_py,
)

NB_LABEL = "numba" if backend_name() == "numba" else "loop"


def _time(fn, *args, repeat=5):
    fn(*args)  # warm-up (and JIT compile for the numba path)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _header(first):
    return f"{first:>12} {'numpy (ms)':>12} {NB_LABEL + ' (ms)':>12} {NB_LABEL + ' speedup':>14}"


def bench_concordance():
    rng = np.random.default_rng(0)
    print("concordance pair counts (O(n^2))")
    print(_header("n"))
    for n in (500, 2000, 5000):
        scores = rng.normal(size=n)
        times = rng.integers(1, 8, size=n).astype(float)
        events = rng.random(n) < 0.2
        t_py = _time(concordance_counts_py, scores, times, events)
        if NB_LABEL == "loop" and n > 500:
            print(f"{n:>12} {t_py * 1e3:>12.2f} {'-':>12} {'-':>14}")
            continue
        assert concordance_counts_py(scores, times, events) == concordance_counts_nb(
            scores, times, events
        )
        t_nb = _time(concordance_counts_nb, scores, times, events)
        print(f"{n:>12} {t_py * 1e3:>12.2f} {t_nb * 1e3:>12.2f} {t_py / t_nb:>13.2f}x")


def bench_cox_sums():
    rng = np.random.default_rng(1)
    print("\ncox risk-set suffix sums")
    print(_header("n x p"))
    for n, p in ((2000, 10), (2000, 100), (10000, 25)):
        w = np.exp(rng.normal(size=n))
        x = rng.normal(size=(n, p))
        s_py = cox_suffix_sums_py(w, x)
        s_nb = cox_suffix_sums_nb(w, x)
        assert np.allclose(s_py[0], s_nb[0]) and np.allclose(s_py[1], s_nb[1])
        t_py = _time(cox_suffix_sums_py, w, x)
        t_nb = _time(cox_suffix_sums_nb, w, x)
        print(f"{f'{n}x{p}':>12} {t_py * 1e3:>12.2f} {t_nb * 1e3:>12.2f} {t_py / t_nb:>13.2f}x")


if __name__ == "__main__":
    print(f"kernel backend: {backend_name()}\n")
    bench_concordance()
    bench_cox_sums()
