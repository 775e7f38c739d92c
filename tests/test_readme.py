"""README's "Library example" runs and prints what its comments promise."""

import math
import re
from pathlib import Path

import pytest

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
