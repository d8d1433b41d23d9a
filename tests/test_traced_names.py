"""Every function the benchmark's tracer wraps still exists in the package."""
import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TRACED


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    missing = [
        (module, function)
        for module, function in traced
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []
