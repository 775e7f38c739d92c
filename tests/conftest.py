import json

import numpy as np
import pytest

from vikit.cli import Scenario, golden_path
from vikit.verification import brute_force_vi, check_singleton_vi

GOLDEN_NAMES = ("box_identity", "box_diag", "box_rotation", "simplex_rotation")
GOLDEN_BOX_NAMES = ("box_identity", "box_diag", "box_rotation")


def load_golden(name: str) -> Scenario:
    return Scenario.from_dict(json.loads(golden_path(name).read_text()))


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of the eigvalsh, eigh and svd calls of np.linalg made during the test."""
    calls = {"eigvalsh": 0, "eigh": 0, "svd": 0}

    def counting(name, solve):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return solve(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


@pytest.fixture(scope="session")
def golden_scenarios():
    return [load_golden(name) for name in GOLDEN_NAMES]


@pytest.fixture(scope="session")
def golden_box_scenarios():
    return [load_golden(name) for name in GOLDEN_BOX_NAMES]


@pytest.fixture(scope="session")
def golden_oracle():
    """Brute-force VI solutions and singleton reports for every golden
    scenario, computed once per session (a grid pass takes ~3 ms on a box
    golden, 2-vCPU VM)."""
    cache = {}
    for name in GOLDEN_NAMES:
        scenario = load_golden(name)
        grid = scenario.grid
        solutions = brute_force_vi(scenario.operator, grid)
        cache[name] = {
            "scenario": scenario,
            "grid": grid,
            "solutions": solutions,
            "singleton": check_singleton_vi(solutions, grid),
        }
    return cache
