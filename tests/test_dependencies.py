"""The third-party modules vikit imports are exactly its declared runtime
dependencies, and README names each of them."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_third_party() -> set[str]:
    """Top-level modules imported at module level by src/vikit/*.py, less the
    standard library and vikit's own relative imports."""
    names = set()
    for path in (ROOT / "src" / "vikit").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in project["dependencies"]}


def test_imports_are_the_declared_dependencies():
    assert imported_third_party() == declared_dependencies()


def test_readme_names_each_dependency():
    (line,) = [line for line in (ROOT / "README.md").read_text().splitlines()
               if line.startswith("Dependencies:")]
    for name in declared_dependencies():
        assert re.search(rf"\b{re.escape(name)}\b", line), (name, line)
