"""Only ``operators`` reads an operator's M and q: no other module of vikit
spells A(x) = Mx + q, so another operator family needs no edit elsewhere."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vikit"

# Attribute name -> the modules that may read it: ``offset`` is also Halfspace's own field.
READERS = {"matrix": {"operators.py"}, "offset": {"operators.py", "geometry.py"}}


def modules_reading(attr: str) -> set[str]:
    """The modules of src/vikit that load an attribute named ``attr``."""
    return {path.name for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("attr", sorted(READERS))
def test_only_the_owners_read_the_operator_fields(attr):
    assert modules_reading(attr) <= READERS[attr]


def test_the_scan_sees_the_owners():
    assert {attr: modules_reading(attr) for attr in READERS} == READERS
