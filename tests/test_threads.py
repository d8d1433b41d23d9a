"""The package's BLAS thread default, checked in fresh interpreters."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str, **preset: str):
    """JSON printed by ``code`` in a fresh interpreter whose only thread variables are ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout)


SHOW_VARIABLES = f"""
import json, os
import wavemine
print(json.dumps({{k: os.environ.get(k) for k in {VARIABLES!r}}}))
"""


def test_import_sets_one_blas_thread():
    assert _run(SHOW_VARIABLES) == {
        "OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None,
    }


@pytest.mark.parametrize("variable", VARIABLES)
def test_import_keeps_a_thread_count_the_caller_set(variable):
    expected = dict.fromkeys(VARIABLES)
    expected[variable] = "2"
    assert _run(SHOW_VARIABLES, **{variable: "2"}) == expected


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.25 only prints its configuration
        return ""


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and "openblas" in _blas_name()),
    reason="counts the threads of an OpenBLAS build through /proc",
)
def test_a_solve_after_import_starts_no_blas_thread():
    code = """
import json
import wavemine
import numpy as np
rng = np.random.default_rng(0)
np.linalg.solve(rng.random((200, 200)) + 200 * np.eye(200), rng.random(200))
with open("/proc/self/status") as fh:
    print(json.dumps(next(int(l.split()[1]) for l in fh if l.startswith("Threads:"))))
"""
    assert _run(code) == 1
