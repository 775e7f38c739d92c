"""The benchmark tracer wraps vikit functions by module attribute name and
reads fields of their results; a renamed or dropped import, or a changed trace
type, would break traced runs, so every name it lists must resolve and its
annotations must read a real trace."""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

import vikit
from vikit.geometry import Box
from vikit.operators import AffineOperator
from vikit.solvers import IterationConfig, solve_projected_gradient

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    """Execute the tracer's source without writing bytecode beside it."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _listed_names():
    tracing = _tracing_module()
    names = [(module, attr) for module, attrs in tracing.SPANNED.items() for attr in attrs]
    return names + list(tracing.COUNTED)


@pytest.mark.parametrize("module_name,attr", _listed_names())
def test_traced_attribute_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr))


SHIM = "# noqa: F401  (perfbench/tracing.py wraps this name)"


def _shims():
    """(module, imported name) for each vikit import kept only for the tracer."""
    return [(f"vikit.{path.stem}", line.split(" import ")[1].split()[0])
            for path in sorted(Path(vikit.__file__).parent.glob("*.py"))
            for line in path.read_text().splitlines() if line.endswith(SHIM)]


@pytest.mark.parametrize("module_name,attr", _shims())
def test_tracer_shim_is_wrapped_by_the_tracer(module_name, attr):
    # the reverse of test_traced_attribute_resolves: a shim whose wrapper is
    # gone is dead code, so the two must be dropped together
    tracing = _tracing_module()
    assert attr in tracing.SPANNED.get(module_name, ()) or (module_name, attr) in tracing.COUNTED


def test_trace_bytes_reads_a_real_trace():
    op = AffineOperator(matrix=np.eye(2), offset=[-0.5, -0.5])
    box = Box(lower=[0.0, 0.0], upper=[1.0, 1.0])
    trace = solve_projected_gradient(op, box, IterationConfig(step=1.0), [0.0, 0.0],
                                     x_ref=[0.5, 0.5])
    # per row: the 2-D iterate, r_n, s_n and bound_n, all float64
    assert _tracing_module()._trace_bytes(trace) == trace.rows * (2 + 3) * 8
