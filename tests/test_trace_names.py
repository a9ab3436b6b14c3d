"""The benchmark's library names exist: the tracer's wrapper table and the
attributes the workloads read.

``perfbench/tracing.py`` looks its targets up by name when it installs, and
``perfbench/workloads.py`` reads library attributes when a job runs, so a
rename or deletion in the library would otherwise only surface when a
benchmark run starts.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_functions_resolve(tracing):
    for mod, attr, *_ in tracing.FUNCTIONS:
        module = importlib.import_module(f"steinprod.{mod}")
        assert callable(getattr(module, attr, None)), f"steinprod.{mod}.{attr}"


def test_methods_are_defined_on_their_class(tracing):
    for mod, cls_name, meth, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"steinprod.{mod}"), cls_name)
        assert meth in cls.__dict__, f"steinprod.{mod}.{cls_name}.{meth}"


def test_series_threshold_matches(tracing):
    # near_origin_points counts the arguments that take the residue series
    from steinprod import specfun
    assert tracing.G_SERIES_BELOW == specfun._SERIES_BELOW


def test_workload_attributes_resolve():
    # every steinprod.<module>.<name> that workloads.py reads, through `from steinprod import`
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "steinprod"
               for alias in node.names}
    assert {"cli", "dist", "funcs", "steinsolve", "verify"} <= set(modules)
    read = {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("dist", "char_function_closed") in read and ("verify", "default_family") in read
    missing = [f"steinprod.{mod}.{attr}" for mod, attr in sorted(read)
               if not hasattr(importlib.import_module(f"steinprod.{mod}"), attr)]
    assert not missing, missing
