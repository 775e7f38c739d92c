"""Every public function, class and method of vikit has a user: some module of
the package loads its name, README names it, or the benchmark tracer wraps it.
A public name with none of these is dead code or an undocumented feature.
Each has one import path, ``vikit.<module>.<name>``: the package itself
re-exports nothing."""

import ast
import re
import types
from pathlib import Path

import pytest

import vikit
from test_tracing_names import _listed_names

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vikit"


def public_definitions() -> dict[str, str]:
    """"module.name" or "module.Class.method" -> the bare name, for every public
    top-level function and class of src/vikit and every public method."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[f"{path.stem}.{node.name}"] = node.name
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def loaded_names() -> set[str]:
    """Names and attribute names loaded by the modules of src/vikit but ``__init__.py``."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for path in SRC.glob("*.py") if path.name != "__init__.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def readme_names() -> set[str]:
    """Identifiers in README's python blocks and in its inline code spans, the
    spans read with every fenced block removed."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {word for code in blocks + spans for word in re.findall(r"[A-Za-z_]\w*", code)}


EVIDENCE = {
    "loaded": loaded_names(),
    "readme": readme_names(),
    "tracer": {attr for _, attr in _listed_names()},
}


def evidence(name: str) -> list[str]:
    return [kind for kind, names in EVIDENCE.items() if name in names]


@pytest.mark.parametrize("qualified,name", sorted(public_definitions().items()))
def test_public_name_has_a_user(qualified, name):
    assert evidence(name), f"{qualified}: no module loads it, README does not name it, " \
        "and the tracer does not wrap it"


# One name that each kind of evidence alone keeps, so no kind is read as empty.
SOLE_EVIDENCE = {
    "solvers.IterationTrace.until": "loaded",
    "cli.golden_path": "readme",
    "cli.write_trace_csv": "tracer",
}


@pytest.mark.parametrize("qualified,kind", sorted(SOLE_EVIDENCE.items()))
def test_the_scan_sees_each_kind_of_evidence(qualified, kind):
    assert evidence(public_definitions()[qualified]) == [kind]


def test_the_package_holds_only_its_modules():
    # every public attribute of vikit is one of its submodules: no name has a
    # second import path through the package
    others = sorted(name for name, value in vars(vikit).items() if not name.startswith("_")
                    and not (isinstance(value, types.ModuleType)
                             and value.__name__ == f"vikit.{name}"))
    assert others == []
    assert vikit.__version__
