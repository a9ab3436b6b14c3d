"""The benchmark tracer's wrapper table names functions and methods that exist.

``perfbench/tracing.py`` looks its targets up by name when it installs, so a
rename or deletion in the library would otherwise only surface when a traced
benchmark run starts.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
