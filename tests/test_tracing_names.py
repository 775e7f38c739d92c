"""The benchmark tracer wraps vikit functions by module attribute name; a
renamed or dropped import would break traced runs, so every name it lists must
resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _listed_names():
    tracing = _tracing_module()
    names = [(module, attr) for module, attrs in tracing.SPANNED.items() for attr in attrs]
    return names + list(tracing.COUNTED)


@pytest.mark.parametrize("module_name,attr", _listed_names())
def test_traced_attribute_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr))
