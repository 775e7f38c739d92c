"""Every array a run stores, in the scenario, its reports and its traces, is a
read-only float64 array that owns its data: ``geometry._read_only`` is the one
way vikit keeps an array, so no task can change in place what another reads."""

import dataclasses
import json

import numpy as np
import pytest

from vikit import cli
from vikit.operators import pairwise_report
from vikit.solvers import compare_stopping, solve_halpern, solve_projected_gradient

GOLDENS = sorted(path.stem for path in cli.golden_dir().glob("*.json"))


def golden_doc(name: str) -> dict:
    return json.loads(cli.golden_path(name).read_text())


def probe_docs() -> dict:
    """Runs that store what no golden stores: two failing reports' witnesses and an anchor."""
    box_diag = golden_doc("box_diag")
    return {
        # gamma = v - m eps^2 = 5 > sigma_min(M) = 1: the exact check fails.
        "loose_moduli": dict(box_diag, moduli={"m": 0, "v": 5, "eps": 2}),
        # A_2 = 1e-12 x_2 ~ 0: a whole column of the grid solves the VI.  No solve
        # runs: the step 0.4 is past 2 alpha = 2e-12.
        "flat_singleton": dict(box_diag, tasks=["verify_lemma31"], x_star=None, operator={
            "matrix": [[1.0, 0.0], [0.0, 1e-12]], "offset": [-0.5, 0.0]}),
        "anchor": dict(box_diag, anchor=[0.5, 0.25]),
    }


DOCS = {**{name: golden_doc(name) for name in GOLDENS}, **probe_docs()}


def stored_arrays(obj, path: str):
    """(path, array) for each ndarray reachable from ``obj`` through dataclass
    fields and caches, tuples, lists and dict values."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for name, value in vars(obj).items():
            yield from stored_arrays(value, f"{path}.{name}")
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            yield from stored_arrays(item, f"{path}[{i}]")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from stored_arrays(value, f"{path}[{key!r}]")


def run_and_keep(doc: dict) -> dict:
    """The parsed scenario, the reports ``_run_tasks`` makes from it and, when it
    gives x_star, the traces of the three solves, after every task has run."""
    scenario = cli.Scenario.from_dict(doc)
    records, reports, files = {}, [], {}
    cli._run_tasks(scenario, records, reports, files)
    kept = {"scenario": scenario, "reports": reports}
    if scenario.x_star is not None:
        op, set_, cfg, x0, x_star = (scenario.operator, scenario.set_, scenario.config,
                                     scenario.x0, scenario.x_star)
        kept["traces"] = [
            solve_projected_gradient(op, set_, cfg, x0, x_ref=x_star),
            solve_halpern(op, set_, scenario.map_s, cfg, x0, anchor=scenario.anchor,
                          x_ref=x_star),
            compare_stopping(op, set_, cfg, x0, x_star, scenario.delta).trace.until(
                cfg.residual_tol),
        ]
    return {path: a for key, value in kept.items() for path, a in stored_arrays(value, key)}


def is_kept(a: np.ndarray) -> bool:
    """True for a read-only float64 array that owns its data, as ``_read_only`` makes."""
    return a.dtype == np.float64 and not a.flags.writeable and a.base is None


@pytest.mark.parametrize("name", DOCS)
def test_every_stored_array_is_a_read_only_float_copy(name):
    arrays = run_and_keep(DOCS[name])
    assert arrays
    assert [path for path, a in arrays.items() if not is_kept(a)] == []


def test_a_sampled_report_keeps_its_witness_as_a_read_only_float_copy():
    # No run reaches pairwise_report; its witness rows come from caller-owned samples.
    xs = np.eye(2, dtype=int)
    report = pairwise_report("sampled", [-1.0, 1.0], xs, 2 * xs)
    assert [w.tolist() for w in report.witness] == [[0.0, 1.0], [0.0, 2.0]]
    assert all(is_kept(w) for w in report.witness)


@pytest.mark.parametrize("name,paths", [
    ("simplex_rotation", ["scenario.set_._ranks", "scenario.grid.set_._ranks"]),
    ("loose_moduli", ["reports[0].witness[0]", "reports[0].witness[1]"]),
    ("flat_singleton", ["reports[2].witness[0]", "reports[2].witness[1]"]),
    ("anchor", ["scenario.x0", "scenario.x_star", "scenario.anchor", "traces[1].iterates",
                "scenario.operator._sym_spectrum"]),
])
def test_the_runs_reach_each_kind_of_stored_array(name, paths):
    assert set(paths) <= set(run_and_keep(DOCS[name]))
