"""README's "Library example" runs and prints what its comments promise, and
its table of checks names what the exported checkers report."""

import importlib
import inspect
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import vikit
from vikit import operators

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python code block after the "## Library example" heading."""
    section = README.read_text().split("## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_what_its_comments_say(capsys):
    code = library_example()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    final, bound, solutions = capsys.readouterr().out.splitlines()
    assert final == "[1. 0.]" and "# [1. 0.]" in code
    assert math.isfinite(float(bound)) and float(bound) >= 0.0
    assert solutions == "[[1. 0.]]" and "# [[1. 0.]]" in code
    moduli = namespace["moduli"]
    comment = re.search(r"lipschitz (\S+), expansiveness (\S+), alpha (\S+)", code)
    assert comment is not None
    assert (moduli.lipschitz, moduli.expansiveness, moduli.ism_alpha) == pytest.approx(
        tuple(float(value) for value in comment.groups()), abs=1e-12)


def checks_table_names() -> list[str]:
    """The property names (the text before "(") of the table under "## Notes on
    the checks"."""
    section = README.read_text().split("## Notes on the checks\n", 1)[1].split("\n## ", 1)[0]
    return [row.split("`")[1].split("(")[0]
            for row in section.splitlines() if row.startswith("| `")]


def test_checks_table_names_the_exported_pairwise_checkers():
    # every checker that a vikit module defines and that takes an operator,
    # called with constants of 0.5 on the identity, reports a property the
    # table lists, and only those
    op = operators.AffineOperator(matrix=np.eye(2), offset=[0.0, 0.0])
    reported = []
    for info in pkgutil.iter_modules(vikit.__path__):
        module = importlib.import_module(f"vikit.{info.name}")
        for name, checker in vars(module).items():
            if not (name.startswith(("check_", "lemma_")) and callable(checker)
                    and checker.__module__ == module.__name__):
                continue
            params = list(inspect.signature(checker).parameters)
            if params[0] != "op":
                continue
            report = checker(op, *[0.5] * (len(params) - 1))
            report = report[0] if isinstance(report, tuple) else report
            reported.append(report.property.split("(")[0])
    table = checks_table_names()
    assert len(table) == len(set(table))
    assert sorted(table) == sorted(reported)
