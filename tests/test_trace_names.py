"""The benchmark's per-layer spans name functions that exist.

``perfbench/tracer.py`` sums span times by name; a name that no longer
matches a public function is never wrapped, and its metric reads 0.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_spans_name_public_functions():
    tracer = load_tracer()
    names = [name for names in tracer.LAYER_TIMES.values() for name in names]
    assert names
    for name in names:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"seifert.{module_name}")
        value = getattr(module, attr, None)
        if name == "groups.FiniteGroup":
            # the tracer wraps the class's table check, not a function
            assert inspect.isclass(value), name
            continue
        assert inspect.isfunction(value), name
        assert value.__module__ == module.__name__, name
        assert not attr.startswith("_") and attr not in tracer.SKIP, name
