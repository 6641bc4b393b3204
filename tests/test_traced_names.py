"""Every function the benchmark's span tracer wraps must still exist.

`perfbench/tracing.py` names the traced functions as `spindimer.<layer>.<name>`.
A rename in the package would silently drop that layer from traced runs, so
the names are read from the tracer's source (parsed, not imported, so nothing
under perfbench/ is executed or written) and resolved here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names() -> list[str]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ] == ["TRACED"]:
            traced = ast.literal_eval(node.value)
            return [
                f"{layer}.{func}" for layer, funcs in traced.items() for func in funcs
            ]
    raise AssertionError(f"no TRACED mapping in {TRACING}")


def test_tracer_names_the_layers_the_fit_path_runs_through():
    names = traced_names()
    for name in (
        "fitting.load_series", "fitting.fit_bleaney_bowers", "core.eigensystem"
    ):
        assert name in names


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves_to_a_callable(name):
    layer, func = name.split(".")
    module = importlib.import_module(f"spindimer.{layer}")
    assert callable(getattr(module, func, None)), f"spindimer.{name} is gone"
