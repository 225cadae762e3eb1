"""The benchmark's tracer must still find every entry point it wraps.

``perfbench/tracing.py`` wraps the package's public functions and methods by
name at run time; renaming one of them would otherwise fail only the traced
benchmark run.
"""

import importlib.util
import inspect
from pathlib import Path

from decaystream import dyadic

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_against_the_package():
    tracing = load_tracing()
    before = dict(vars(dyadic.DyadicTree))
    tracer = tracing.Tracer().install()  # raises if a traced name is gone
    try:
        wrapped = [
            name
            for name, member in vars(dyadic.DyadicTree).items()
            if inspect.isfunction(member) and member is not before[name]
        ]
        assert wrapped, "no dyadic.DyadicTree method was wrapped"
        assert {"add_path", "published", "evict_covered"} <= set(wrapped)
    finally:
        tracer.uninstall()
    assert dict(vars(dyadic.DyadicTree)) == before
