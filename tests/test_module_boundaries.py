"""Which package module may import what from which.

The imports are read from the source with `ast`, so the test sees what a
module imports, not what happens to be bound in it after import.
"""

import ast
import importlib
from pathlib import Path

import pytest

import spindimer

PACKAGE = Path(spindimer.__file__).resolve().parent

# The package's one designated private constructor: modules that build
# objects known to be valid use it to skip the public checks.
ALLOWED_PRIVATE = {("core", "_trusted")}


def sibling_imports() -> list[tuple[str, str, str]]:
    """(importing module, imported module, name) for every `from .x import y`."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    found.append((path.stem, node.module or "", alias.name))
    return found


def test_the_scan_sees_the_package():
    assert ("sweep", "core", "_trusted") in sibling_imports()


def test_no_module_imports_a_private_name_of_a_sibling():
    private = [
        (importer, module, name)
        for importer, module, name in sibling_imports()
        if name.startswith("_") and (module, name) not in ALLOWED_PRIVATE
    ]
    assert private == []


def test_fitting_imports_nothing_from_sweep():
    assert [i for i in sibling_imports() if i[:2] == ("fitting", "sweep")] == []


def test_tables_imports_only_errors_from_the_package():
    modules = {module for importer, module, _ in sibling_imports() if importer == "tables"}
    assert modules == {"errors"}


@pytest.mark.parametrize(
    "name", ["render_table", "emit", "read_table_csv", "read_table_json"]
)
def test_sweep_re_exports_the_table_functions_themselves(name):
    # The benchmark's tracer finds these on `sweep` and swaps every binding
    # of the same object, so a wrapper here would leave the calls through
    # `tables` untraced.
    sweep = importlib.import_module("spindimer.sweep")
    tables = importlib.import_module("spindimer.tables")
    assert getattr(sweep, name) is getattr(tables, name)
