"""Every name the benchmark's tracer expects resolves in the package.

`perfbench/tracing.py` lists in `EXPECTED` the functions whose timings its
per-layer metrics read.  A refactor that drops or moves one of them would
otherwise show only as an "absent" name in the slow traced benchmark run;
this reads that list (without importing the benchmark) and fails in seconds.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def expected_names() -> tuple:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "EXPECTED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no EXPECTED in {TRACING}")


def resolves(name: str) -> bool:
    """As the tracer finds names: a function defined in its layer's module,
    or a method of a class there."""
    layer, *attrs = name.split(".")
    module = importlib.import_module(f"tsqa.{layer}")
    if len(attrs) == 1:
        value = getattr(module, attrs[0], None)
        return inspect.isfunction(value) and value.__module__ == module.__name__
    cls = getattr(module, attrs[0], None)
    return inspect.isfunction(getattr(cls, attrs[1], None))


def test_every_name_the_tracer_expects_resolves_in_the_package():
    names = expected_names()
    assert names
    assert [name for name in names if not resolves(name)] == []
