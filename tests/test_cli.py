import csv
import gc
import json
import math
import os
import random
import struct
import subprocess
import sys
import warnings
import weakref
from contextlib import suppress
from fractions import Fraction
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vikit import cli, solvers, verification
from vikit.errors import ConfigurationError, DivergenceError, ValidationError
from vikit.geometry import AffineSubspace, Ball, Box, Halfspace, Simplex
from vikit.solvers import (
    AffineAverage,
    Identity,
    IterationTrace,
    ProjectionOnto,
    compare_stopping,
    solve_halpern,
    solve_projected_gradient,
)

from oracles import assert_same_trace, literal_run, literal_same_as_json, literal_trace_csv

BASE_SCENARIO = {
    "name": "unit",
    "operator": {"matrix": [[2.0, 0.0], [0.0, 1.0]], "offset": [-2.0, 1.0]},
    "set": {"type": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "map_s": {"type": "identity"},
    "config": {
        "lambda": 0.4,
        "max_iters": 5000,
        "tol": 1e-8,
        "seed": 5,
        "anchor_schedule": {"rule": "geometric", "scale": 1.0, "ratio": 0.5},
    },
    "x0": [0.0, 1.0],
    "x_star": [1.0, 0.0],
    "grid": {"h": 0.02, "vi_tolerance": 1e-9},
    "tasks": ["solve_pg"],
}


def write_scenario(tmp_path, **changes):
    doc = json.loads(json.dumps(BASE_SCENARIO))
    doc.update(changes)
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return path


def _not_json(constant):
    raise ValueError(f"{constant} is not a JSON value (RFC 8259)")


def read_reports(out_dir, name):
    """The decoded reports.json, which must be strict JSON: no NaN or Infinity."""
    return json.loads((out_dir / f"{name}.reports.json").read_text(), parse_constant=_not_json)


def assert_outputs_named(out_dir, name):
    """The trace CSVs on disk are exactly the ones <name>.reports.json names."""
    tasks = read_reports(out_dir, name)["tasks"]
    named = sorted(record["trace_csv"] for record in tasks.values() if "trace_csv" in record)
    assert sorted(p.name for p in out_dir.glob("*.trace.csv")) == named


def parse(**changes):
    doc = json.loads(json.dumps(BASE_SCENARIO))
    doc.update(changes)
    return cli.Scenario.from_dict(doc)


# A file stem past the 216-byte name bound, and the report name it is cut to: at
# a character boundary, so a 2-byte character that would end at byte 217 goes.
LONG_STEMS = [
    ("a" * 220, "a" * 216),
    ("a" * 250, "a" * 216),
    ("\u00e9" * 125, "\u00e9" * 108),
    ("a" + "\u00e9" * 120, "a" + "\u00e9" * 107),
]
LONG_STEM_IDS = ["220-bytes", "250-bytes", "250-bytes-utf8", "241-bytes-utf8-odd"]

SOLVE_BOTH = ["solve_pg", "solve_halpern"]
# The solution (0.5005, 0.5005) is off the h = 0.01 grid, and at vi_tolerance
# 1e-12 no node qualifies: the singleton check sees an infinite diameter.
EMPTY_GRID_SET = {
    "operator": {"matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [-0.5005, -0.5005]},
    "grid": {"h": 0.01, "vi_tolerance": 1e-12},
    "tasks": ["verify_lemma31"],
}
CUBE5 = {
    "operator": {"matrix": np.eye(5).tolist(), "offset": [0.0] * 5},
    "set": {"type": "box", "lower": [0.0] * 5, "upper": [1.0] * 5},
    "x0": [0.0] * 5,
    "x_star": [0.0] * 5,
}


class TestRunScenario:
    def test_golden_box_diag_exit_zero(self, tmp_path):
        code = cli.run_scenario(cli.golden_path("box_diag"), tmp_path)
        assert code == 0
        payload = read_reports(tmp_path, "box_diag")
        assert payload["error"] is None
        assert all(r["status"] == "Pass" for r in payload["reports"])
        with open(tmp_path / "box_diag.solve_pg.trace.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["n"] == "0"
        assert float(rows[-1]["r_n"]) <= 1e-8
        assert float(rows[-1]["dist_n"]) <= 1e-6
        final = payload["tasks"]["solve_pg"]["final"]
        np.testing.assert_allclose(final, [1.0, 0.0], atol=1e-6)

    def test_trace_csv_schema_without_reference(self, tmp_path):
        doc_path = write_scenario(tmp_path, name="noref", x_star=None)
        assert cli.run_scenario(doc_path, tmp_path) == 0
        with open(tmp_path / "noref.solve_pg.trace.csv") as handle:
            header = handle.readline().strip()
            first = handle.readline().strip()
        assert header == "n,r_n,s_n,bound_n"
        assert first.split(",")[2] == ""  # s_n blank without a reference point

    def test_identical_runs_are_byte_identical(self, tmp_path):
        doc_path = write_scenario(
            tmp_path, name="det", tasks=["solve_pg", "solve_halpern", "compare_stopping"]
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.run_scenario(doc_path, out_a) == 0
        assert cli.run_scenario(doc_path, out_b) == 0
        for task in ("solve_pg", "solve_halpern", "compare_stopping"):
            name = f"det.{task}.trace.csv"
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_malformed_json_exits_2_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",,}')
        assert cli.run_scenario(bad, tmp_path) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    @pytest.mark.parametrize("content,message", [
        (b'{"name": "x\xff"}', "is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply to decode"),
        (b"\xef\xbb\xbf" + json.dumps(BASE_SCENARIO).encode(),
         "line 1 column 1: Unexpected UTF-8 BOM"),
    ], ids=["not-utf8", "deep-nesting", "utf8-bom"])
    def test_undecodable_file_exits_2_with_one_line(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(bad), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert list(out_dir.iterdir()) == []

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python converts integers of any length")
    def test_integer_past_the_digit_limit_exits_2_with_one_line(self, tmp_path, capsys):
        bad = tmp_path / "big.json"
        bad.write_text('{"name": "big", "seed": ' + "9" * 5000 + "}")
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(bad), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "integer too long to decode: Exceeds the limit" in err and err.count("\n") == 1
        assert list(out_dir.iterdir()) == []

    def test_directory_as_scenario_exits_2_with_one_line(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(tmp_path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot read scenario:") and err.count("\n") == 1
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
    def test_output_directory_that_cannot_be_made_exits_2_with_one_line(
            self, tmp_path, capsys, below):
        doc_path = write_scenario(tmp_path, name="unit")
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        out = blocker / "out" if below else blocker
        assert cli.main(["run", str(doc_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot create output directory: ") and err.count("\n") == 1
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("matrix", [[[0.0, -1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                             ids=["skew", "zero"])
    def test_certified_constants_of_a_non_strongly_monotone_operator_exit_3_with_reports(
            self, tmp_path, matrix):
        # mu = 0: the defaults (0, mu, L) give gamma = 0, and there is no ism modulus
        doc_path = write_scenario(tmp_path, name="flat",
                                  operator={"matrix": matrix, "offset": [0.0, 0.0]},
                                  tasks=["verify_lemma22", "verify_lemma31"])
        assert cli.run_scenario(doc_path, tmp_path) == 3
        payload = read_reports(tmp_path, "flat")
        assert payload["error"] is None
        assert payload["tasks"]["verify_lemma22"]["gamma"] == 0.0
        assert [r["status"] for r in payload["reports"]] == ["PreconditionViolated"] * 2

    @pytest.mark.parametrize("moduli,gamma,status,code", [
        ({"m": 0.0, "v": 0.0, "eps": 2.0}, 0.0, "PreconditionViolated", 3),
        ({"m": 0.5, "v": -1.0, "eps": 2.0}, -3.0, "PreconditionViolated", 3),
        ({"m": 1.0, "v": 1.0, "eps": 0.0}, 1.0, "Pass", 0),
        ({"m": 1.0, "v": 1.5, "eps": 0.0}, 1.5, "Fail", 1),
    ], ids=["v-zero", "v-negative", "eps-zero", "eps-zero-overstated"])
    def test_supplied_moduli_past_the_hypothesis_follow_gamma(
            self, tmp_path, moduli, gamma, status, code):
        # diag(2, 1) is 1-expansive and 1-strongly monotone, but not 1.5-
        assert parse(moduli=moduli, tasks=["verify_lemma22"]).moduli == tuple(moduli.values())
        doc_path = write_scenario(tmp_path, name="loose", tasks=["verify_lemma22"], moduli=moduli)
        assert cli.run_scenario(doc_path, tmp_path) == code
        payload = read_reports(tmp_path, "loose")
        assert payload["error"] is None
        assert payload["tasks"]["verify_lemma22"]["gamma"] == gamma
        assert [r["status"] for r in payload["reports"]] == [status]

    def test_lemma31_without_ism_modulus_exits_3_with_one_report(self, tmp_path):
        skew = {"matrix": [[0.0, 1.0], [-1.0, 0.0]], "offset": [0.0, 0.0]}
        doc_path = write_scenario(tmp_path, name="skew", operator=skew, tasks=["verify_lemma31"])
        assert cli.run_scenario(doc_path, tmp_path) == 3
        payload = read_reports(tmp_path, "skew")
        assert payload["error"] is None
        assert [(r["property"], r["status"]) for r in payload["reports"]] == [
            ("ism_expansive_singleton", "PreconditionViolated")]

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_singleton_verdict_does_not_move_with_the_box(self, tmp_path, offset):
        # A = 1e-12 (x - c) on [offset, offset + 0.005]^2, c its centre: every node
        # of the 6 x 6 grid solves the VI, so the singleton check fails at any offset
        centre = offset + 0.0025
        doc_path = write_scenario(
            tmp_path, name="flat",
            operator={"matrix": [[1e-12, 0.0], [0.0, 1e-12]], "offset": [-1e-12 * centre] * 2},
            set={"type": "box", "lower": [offset] * 2, "upper": [offset + 0.005] * 2},
            grid={"h": 1e-3, "vi_tolerance": 1e-9}, tasks=["brute_force", "verify_lemma31"])
        assert cli.run_scenario(doc_path, tmp_path) == 1
        payload = read_reports(tmp_path, "flat")
        assert payload["tasks"]["brute_force"]["count"] == 36
        singleton = payload["reports"][-1]
        assert (singleton["property"], singleton["status"]) == ("singleton_vi(h=0.001)", "Fail")
        assert singleton["max_violation"] == pytest.approx(0.003 * math.sqrt(2), abs=1e-6)
        assert [r["status"] for r in payload["reports"][:-1]] == ["Pass", "Pass"]

    @pytest.mark.parametrize("offset", [0.0, 1e8])
    def test_grid_keeps_the_upper_face_of_a_translated_box(self, tmp_path, offset):
        # A(x) ~ (-1, -1) on [c + 0.3, c + 0.3 + 0.35] x [0.3, 0.65] at h = 0.05: the
        # solution is the upper corner u, which is a node only if both axes keep 8 nodes
        lower = [offset + 0.3, 0.3]
        upper = [lower[0] + 0.35, 0.65]
        doc_path = write_scenario(
            tmp_path, name="far",
            operator={"matrix": [[1e-12, 0.0], [0.0, 1e-12]],
                      "offset": [-1.0 - 1e-12 * upper[0], -1.0 - 1e-12 * upper[1]]},
            set={"type": "box", "lower": lower, "upper": upper},
            grid={"h": 0.05, "vi_tolerance": 1e-9}, tasks=["brute_force", "verify_lemma31"])
        assert cli.run_scenario(doc_path, tmp_path) == 0
        payload = read_reports(tmp_path, "far")
        (solution,) = payload["tasks"]["brute_force"]["solutions"]
        assert np.all(np.abs(np.subtract(solution, upper)) <= 4 * math.ulp(1e8))
        singleton = payload["reports"][-1]
        assert (singleton["property"], singleton["samples_used"]) == ("singleton_vi(h=0.05)", 64)

    def test_overflowing_iterate_exits_4(self, tmp_path):
        # <normal, x> overflows at x0, which is inside, and at the finite gradient
        # step y = 0.8e308 (1, 1, 1), which is outside and projects to -inf
        doc_path = write_scenario(
            tmp_path, name="overflow",
            operator={"matrix": np.eye(3).tolist(), "offset": [-0.3e308] * 3},
            set={"type": "halfspace", "normal": [0.99] * 3, "offset": 0.0},
            config=dict(BASE_SCENARIO["config"], **{"lambda": 1.5}),
            x0=[-0.7e308] * 3, x_star=None, grid=None, tasks=["solve_pg"])
        with pytest.warns(RuntimeWarning) as record:
            assert cli.run_scenario(doc_path, tmp_path) == 4
        assert [str(w.message) for w in record] == ["overflow encountered in matmul"] * 2
        assert read_reports(tmp_path, "overflow")["error"] == "non-finite iterate at iteration 1"
        assert_outputs_named(tmp_path, "overflow")

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200])
    def test_halfspace_whose_normal_squared_leaves_the_float_range(self, tmp_path, scale):
        # |normal|^2 overflowed, was subnormal or was 0: solve_pg converged at
        # (1, 1), 1.41 from x_star, or ended in a ZeroDivisionError traceback
        doc_path = write_scenario(
            tmp_path, name="halfspace",
            operator={"matrix": np.eye(2).tolist(), "offset": [-1.0, -1.0]},
            set={"type": "halfspace", "normal": [scale, scale], "offset": 0.0},
            x0=[1.0, 1.0], x_star=[0.0, 0.0], grid=None, tasks=["solve_pg"])
        assert cli.run_scenario(doc_path, tmp_path) == 0
        record = read_reports(tmp_path, "halfspace")["tasks"]["solve_pg"]
        assert record["status"] == "Converged"
        np.testing.assert_allclose(record["final"], [0.0, 0.0], rtol=0.0, atol=1e-15)

    def test_file_is_decoded_as_utf8(self, tmp_path):
        doc = dict(BASE_SCENARIO, name="caf\u00e9", description="\u03bb = 0.4")
        path = tmp_path / "utf8.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        assert cli.run_scenario(path, tmp_path / "out") == 0
        assert read_reports(tmp_path / "out", "caf\u00e9")["scenario"] == "caf\u00e9"

    def test_step_precondition_exits_3(self, tmp_path):
        # alpha = 0.25 for diag(2, 1); lambda = 3 * alpha violates (0, 2 * alpha)
        doc_path = write_scenario(tmp_path, name="badstep",
                                  config=dict(BASE_SCENARIO["config"], **{"lambda": 0.75}))
        assert cli.run_scenario(doc_path, tmp_path) == 3
        payload = read_reports(tmp_path, "badstep")
        assert payload["error"] is not None
        assert payload["exit_status"] == 3
        assert_outputs_named(tmp_path, "badstep")

    def test_step_is_checked_before_any_task_runs(self, tmp_path, monkeypatch):
        # the step rule is a scenario rule: no task runs, so none is reported
        def oracle(*args, **kwargs):
            raise AssertionError("brute_force_vi called")

        monkeypatch.setattr(cli, "brute_force_vi", oracle)
        doc_path = write_scenario(tmp_path, name="badstep",
                                  config=dict(BASE_SCENARIO["config"], **{"lambda": 0.75}),
                                  tasks=["brute_force", "verify_lemma22", "solve_pg"])
        assert cli.run_scenario(doc_path, tmp_path) == 3
        payload = read_reports(tmp_path, "badstep")
        assert payload["error"] == "step 0.75 outside (0, 0.5) for certified alpha 0.25"
        assert (payload["tasks"], payload["reports"]) == ({}, [])
        assert_outputs_named(tmp_path, "badstep")

    def test_lemma_boundary_exits_3_with_report(self, tmp_path):
        doc_path = write_scenario(
            tmp_path,
            name="boundary",
            tasks=["verify_lemma22"],
            moduli={"m": 1.0, "v": 1.0, "eps": 1.0},
        )
        assert cli.run_scenario(doc_path, tmp_path) == 3
        payload = read_reports(tmp_path, "boundary")
        assert payload["reports"][0]["status"] == "PreconditionViolated"

    def test_failed_verification_exits_1(self, tmp_path):
        # v overstated: diag(2, 1) is only 1-strongly monotone
        doc_path = write_scenario(
            tmp_path,
            name="failing",
            tasks=["verify_lemma22"],
            moduli={"m": 0.0, "v": 3.0, "eps": 2.0},
        )
        assert cli.run_scenario(doc_path, tmp_path) == 1
        payload = read_reports(tmp_path, "failing")
        assert payload["reports"][0]["status"] == "Fail"
        assert payload["reports"][0]["witness"] is not None
        # the witness pair is (w, 0) for a unit w: here the weak axis (0, 1)
        wx, wy = payload["reports"][0]["witness"]
        np.testing.assert_allclose(np.abs(wx), [0.0, 1.0], atol=1e-12)
        assert wy == [0.0, 0.0]

    def test_divergence_exits_4(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise DivergenceError(3)

        monkeypatch.setattr(cli, "solve_projected_gradient", explode)
        doc_path = write_scenario(tmp_path, name="diverges")
        assert cli.run_scenario(doc_path, tmp_path) == 4
        payload = read_reports(tmp_path, "diverges")
        assert "iteration 3" in payload["error"]
        assert_outputs_named(tmp_path, "diverges")

    def test_compare_stopping_requires_x_star(self, tmp_path):
        doc_path = write_scenario(tmp_path, name="nostar", x_star=None,
                                  tasks=["compare_stopping"])
        assert cli.run_scenario(doc_path, tmp_path) == 3

    def test_brute_force_requires_grid(self, tmp_path):
        doc_path = write_scenario(tmp_path, name="nogrid", grid=None, tasks=["brute_force"])
        assert cli.run_scenario(doc_path, tmp_path) == 3

    def test_unknown_task_rejected(self, tmp_path):
        doc_path = write_scenario(tmp_path, name="unknown", tasks=["solve_everything"])
        assert cli.run_scenario(doc_path, tmp_path) == 3

    def test_overrides_echoed_and_applied(self, tmp_path):
        doc_path = write_scenario(tmp_path, name="override",
                                  tasks=["verify_lemma22", "verify_lemma31"])
        assert cli.run_scenario(doc_path, tmp_path, seed=99, max_iters=777) == 0
        payload = read_reports(tmp_path, "override")
        assert payload["overrides"] == {"seed": 99, "max_iters": 777}
        # the exact pairwise checks draw nothing and carry no seed; the
        # singleton report echoes the overridden seed
        assert [r["seed"] for r in payload["reports"]] == [None, None, None, 99]
        assert payload["reports"][-1]["property"].startswith("singleton_vi")

    def test_brute_force_task_reports_solutions(self, tmp_path):
        doc_path = write_scenario(tmp_path, name="bf", tasks=["brute_force"])
        assert cli.run_scenario(doc_path, tmp_path) == 0
        payload = read_reports(tmp_path, "bf")
        assert payload["tasks"]["brute_force"]["count"] == 1
        np.testing.assert_allclose(payload["tasks"]["brute_force"]["solutions"][0],
                                   [1.0, 0.0], atol=1e-12)

    def test_golden_box_runs_grid_oracle_once(self, tmp_path, monkeypatch):
        calls = []
        oracle = cli.brute_force_vi

        def counting_oracle(*args, **kwargs):
            calls.append(1)
            return oracle(*args, **kwargs)

        # patched where the CLI and the verification module look it up
        monkeypatch.setattr(cli, "brute_force_vi", counting_oracle)
        monkeypatch.setattr(verification, "brute_force_vi", counting_oracle)
        doc = json.loads(cli.golden_path("box_diag").read_text())
        assert {"verify_lemma31", "brute_force"} <= set(doc["tasks"])
        assert cli.run_scenario(cli.golden_path("box_diag"), tmp_path) == 0
        assert len(calls) == 1

    def test_golden_box_never_draws_sample_pairs(self, tmp_path, monkeypatch):
        calls = []
        draw = cli.sample_pairs

        def counting_draw(*args, **kwargs):
            calls.append(1)
            return draw(*args, **kwargs)

        monkeypatch.setattr(cli, "sample_pairs", counting_draw)
        doc = json.loads(cli.golden_path("box_diag").read_text())
        assert {"verify_lemma22", "verify_lemma31"} <= set(doc["tasks"])
        assert cli.run_scenario(cli.golden_path("box_diag"), tmp_path) == 0
        assert len(calls) == 0

    @pytest.mark.parametrize("name", ["../evil", "a/b", "", ".", ".."])
    def test_name_must_be_plain_stem(self, tmp_path, name):
        doc_path = tmp_path / "scenario.json"
        doc_path.write_text(json.dumps(dict(BASE_SCENARIO, name=name)))
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 3
        assert sorted(p.name for p in tmp_path.rglob("*.reports.json")) == [
            "scenario.reports.json"
        ]
        payload = read_reports(out_dir, "scenario")
        assert payload["exit_status"] == 3
        assert "plain file stem" in payload["error"]

    @pytest.mark.parametrize("name,shown", [(None, "null"), (True, "true"), (7, "7"),
                                            ([1], "[1]")], ids=["null", "true", "7", "list"])
    def test_name_must_be_a_string(self, tmp_path, monkeypatch, name, shown):
        # Passed through str(), each was a file stem: None.reports.json, True.*, 7.*, [1].*
        doc_path = tmp_path / "scenario.json"
        doc_path.write_text(json.dumps(dict(BASE_SCENARIO, name=name)))
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 3
        assert [p.name for p in out_dir.iterdir()] == ["scenario.reports.json"]
        payload = read_reports(out_dir, "scenario")
        assert payload["scenario"] == "scenario"
        assert payload["error"] == f"scenario field 'name' must be a string, got {shown}"
        monkeypatch.setattr(cli, "golden_dir", lambda: tmp_path)
        assert cli.list_golden() == [("scenario", "")]

    @pytest.mark.parametrize("description,shown", [(7, "7"), ([1], "[1]"), ({}, "{}"),
                                                   (0, "0"), (None, None)],
                             ids=["7", "list", "object", "zero", "null"])
    def test_description_must_be_a_string_or_null(self, tmp_path, monkeypatch,
                                                  description, shown):
        # list-golden never prints a Python repr; 0 is not listed as empty
        doc_path = tmp_path / "scenario.json"
        doc_path.write_text(json.dumps(dict(BASE_SCENARIO, description=description)))
        out_dir = tmp_path / "out"
        monkeypatch.setattr(cli, "golden_dir", lambda: tmp_path)
        if description is None:
            assert cli.run_scenario(doc_path, out_dir) == 0
            assert cli.list_golden() == [("unit", "")]
            return
        assert cli.run_scenario(doc_path, out_dir) == 3
        assert [p.name for p in out_dir.iterdir()] == ["unit.reports.json"]
        error = read_reports(out_dir, "unit")["error"]
        assert error == f"scenario field 'description' must be a string, got {shown}"
        assert cli.list_golden() == [("unit", "(unreadable scenario file)")]

    @pytest.mark.parametrize("name,fits", [
        ("a" * 216, True),
        ("\u00e9" * 108, True),
        ("a" * 217, False),
        ("\u00e9" * 109, False),
        ("a" * 300, False),
        ("x\ud800", False),
    ], ids=["216-bytes", "216-bytes-utf8", "217-bytes", "218-bytes-utf8", "300-bytes",
            "lone-surrogate"])
    def test_name_must_fit_every_output_file_name(self, tmp_path, name, fits):
        # the longest is the temp name of <name>.compare_stopping.trace.csv: 12 more bytes
        doc_path = tmp_path / "scenario.json"
        doc_path.write_text(json.dumps(dict(BASE_SCENARIO, name=name,
                                            tasks=["solve_pg", "compare_stopping"])))
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == (0 if fits else 3)
        written = sorted(p.name for p in out_dir.iterdir())
        if fits:
            assert written == [f"{name}.compare_stopping.trace.csv", f"{name}.reports.json",
                               f"{name}.solve_pg.trace.csv"]
        else:
            assert written == ["scenario.reports.json"]
            assert "plain file stem" in read_reports(out_dir, "scenario")["error"]

    @pytest.mark.parametrize("name", [None, "a/b"], ids=["no-name", "non-plain-name"])
    @pytest.mark.parametrize("stem,cut", LONG_STEMS, ids=LONG_STEM_IDS)
    def test_long_file_stem_is_cut_to_the_name_bound(self, tmp_path, stem, cut, name):
        doc = dict(BASE_SCENARIO, name=name)
        if name is None:
            del doc["name"]
        doc_path = tmp_path / f"{stem}.json"
        doc_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 3
        assert [p.name for p in out_dir.iterdir()] == [f"{cut}.reports.json"]
        assert read_reports(out_dir, cut)["scenario"] == cut

    @pytest.mark.parametrize(
        "changes",
        [
            {"config": dict(BASE_SCENARIO["config"], **{"lambda": "abc"})},
            {"config": dict(BASE_SCENARIO["config"], **{"lambda": None})},
            {"x0": "abc"},
            {"tasks": 5},
            {"grid": {"h": "x"}, "tasks": ["brute_force"]},
            {"moduli": {"m": "x", "v": 1.0, "eps": 2.0}, "tasks": ["verify_lemma22"]},
            None,
            # Caught by the parse-time checks; unchecked, each ends in a traceback,
            # an exit 0, or a trace CSV left in --out beside the report.
            {"map_s": {"type": "affine_average", "t": 0.5, "fixed_point": [0.0, 0.0, 0.0]},
             "tasks": SOLVE_BOTH},
            {"anchor": [0.0, 0.0, 0.0], "tasks": SOLVE_BOTH},
            {"map_s": {"type": "projection", "set": {"type": "simplex", "dim": 3}},
             "tasks": SOLVE_BOTH},
            {"x_star": [1.0, 0.0, 0.0], "tasks": ["verify_lemma22"]},
            {"x_star": [1e308, 0.0]},
            {"set": {"type": "simplex", "dim": 3}, "tasks": ["verify_lemma22"]},
            {"x0": [float("nan"), 1.0], "tasks": ["verify_lemma22"]},
            {"grid": {"vi_tolerance": 1e-9}, "tasks": ["solve_pg", "brute_force"]},
            {"moduli": {"m": 0.0, "v": 1.0}, "tasks": ["solve_pg", "verify_lemma22"]},
            {"moduli": {"m": -1.0, "v": 1.0, "eps": 2.0}, "tasks": ["solve_pg", "verify_lemma22"]},
            {"moduli": {"m": float("nan"), "v": 1.0, "eps": 2.0}, "tasks": ["verify_lemma22"]},
            {"delta": float("nan"), "tasks": ["solve_pg", "compare_stopping"]},
            {"grid": {"h": 1e-9}, "tasks": ["solve_pg", "verify_lemma31"]},
            dict(CUBE5, grid={"h": 0.5}, tasks=["solve_pg", "verify_lemma31"]),
            {"config": dict(BASE_SCENARIO["config"], max_iters=float("inf"))},
            {"config": dict(BASE_SCENARIO["config"], seed=float("inf"))},
            {"config": dict(BASE_SCENARIO["config"], seed=-1), "tasks": ["verify_lemma22"]},
            {"set": {"type": "simplex", "dim": float("inf")}},
            # Each of these was cast (to 2, 1, 2, a 2-D simplex and 0.4) and ran.
            {"config": dict(BASE_SCENARIO["config"], max_iters=2.5)},
            {"config": dict(BASE_SCENARIO["config"], max_iters=True)},
            {"config": dict(BASE_SCENARIO["config"], seed=2.7)},
            {"set": {"type": "simplex", "dim": 2.9}},
            {"config": dict(BASE_SCENARIO["config"], **{"lambda": "0.4"})},
        ],
        ids=["lambda-str", "lambda-null", "x0-str", "tasks-int", "grid-h-str", "moduli-m-str",
             "list-doc", "fixed-point-3d", "anchor-3d", "projection-3d", "x-star-3d",
             "x-star-image-overflows", "set-3d",
             "x0-nan", "grid-no-h", "moduli-no-eps", "moduli-m-negative", "moduli-nan",
             "delta-nan", "grid-over-point-guard", "grid-5d", "max-iters-inf", "seed-inf",
             "seed-negative", "simplex-dim-inf", "max-iters-float", "max-iters-bool",
             "seed-float", "simplex-dim-float", "lambda-numeric-str"],
    )
    @pytest.mark.parametrize("seed", [None, 7])
    def test_mistyped_fields_exit_3_with_report(self, tmp_path, changes, seed):
        if changes is None:
            doc_path = tmp_path / "mistyped.json"
            doc_path.write_text(json.dumps([BASE_SCENARIO]))
        else:
            doc_path = write_scenario(tmp_path, name="mistyped", **changes)
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir, seed=seed) == 3
        assert sorted(p.name for p in out_dir.iterdir()) == ["mistyped.reports.json"]
        payload = read_reports(out_dir, "mistyped")
        assert payload["exit_status"] == 3
        assert payload["error"]

    @pytest.mark.parametrize("changes,error", [
        ({"config": dict(BASE_SCENARIO["config"], max_iters=2.5)},
         "config field 'max_iters' must be an integer, got 2.5"),
        ({"config": dict(BASE_SCENARIO["config"], max_iters=True)},
         "config field 'max_iters' must be an integer, got true"),
        ({"config": dict(BASE_SCENARIO["config"], seed=2.7)},
         "config field 'seed' must be an integer, got 2.7"),
        ({"set": {"type": "simplex", "dim": 2.9}},
         "set spec of type 'simplex' field 'dim' must be an integer, got 2.9"),
        ({"config": dict(BASE_SCENARIO["config"], **{"lambda": "0.4"})},
         "config field 'lambda' must be a number, got \"0.4\""),
        ({"config": dict(BASE_SCENARIO["config"], tol=False)},
         "config field 'tol' must be a number, got false"),
        ({"config": dict(BASE_SCENARIO["config"], anchor_schedule={"ratio": "0.5"})},
         "anchor_schedule field 'ratio' must be a number, got \"0.5\""),
        ({"set": {"type": "ball", "center": [0.0, 0.0], "radius": "1"}},
         "set spec of type 'ball' field 'radius' must be a number, got \"1\""),
        ({"set": {"type": "halfspace", "normal": [1.0, 0.0], "offset": None}},
         "set spec of type 'halfspace' field 'offset' must be a number, got null"),
        ({"map_s": {"type": "affine_average", "t": True, "fixed_point": [0.0, 0.0]}},
         "affine_average map spec field 't' must be a number, got true"),
        ({"moduli": {"m": 0.0, "v": "1", "eps": 2.0}, "tasks": ["verify_lemma22"]},
         "moduli spec field 'v' must be a number, got \"1\""),
        ({"grid": {"h": 0.02, "vi_tolerance": "1e-9"}, "tasks": ["brute_force"]},
         "grid spec field 'vi_tolerance' must be a number, got \"1e-9\""),
        ({"delta": [1e-6], "tasks": ["compare_stopping"]},
         "scenario field 'delta' must be a number, got [1e-06]"),
        ({"x_star": [1e308, 0.0]}, "the operator's image of x_star has non-finite entries"),
    ], ids=["max-iters-float", "max-iters-bool", "seed-float", "simplex-dim-float",
            "lambda-numeric-str", "tol-bool", "schedule-str", "radius-str", "offset-null",
            "t-bool", "moduli-str", "vi-tolerance-str", "delta-list", "x-star-image-overflows"])
    def test_number_field_of_the_wrong_type_is_named(self, tmp_path, changes, error):
        # a number field holds a JSON number, not a boolean, a string or null;
        # max_iters, seed and dim hold an integral one; x_star's image is finite
        doc_path = write_scenario(tmp_path, name="typed", **changes)
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 3
        assert read_reports(out_dir, "typed")["error"] == error

    @pytest.mark.parametrize("changes", [
        {"config": dict(BASE_SCENARIO["config"], max_iters=5000.0, seed=5.0)},
        {"set": {"type": "simplex", "dim": 2.0}},
        {"config": dict(BASE_SCENARIO["config"], **{"lambda": 0.4, "tol": 1})},
    ], ids=["integral-floats", "integral-float-dim", "integer-tol"])
    def test_integral_float_and_integer_numbers_are_accepted(self, tmp_path, changes):
        doc_path = write_scenario(tmp_path, name="typed", **changes)
        assert cli.run_scenario(doc_path, tmp_path) == 0

    @pytest.mark.parametrize("field", ["x0", "anchor", "x_star"])
    def test_vector_of_the_wrong_shape_is_named_by_its_shape(self, tmp_path, field):
        # a (1, 2) array has the right number of entries; the message reported
        # "x0 has dimension 2, expected 2"
        doc_path = write_scenario(tmp_path, name="shaped", **{field: [[0.5, 0.5]]},
                                  tasks=["solve_pg", "solve_halpern", "compare_stopping"])
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 3
        assert sorted(p.name for p in out_dir.iterdir()) == ["shaped.reports.json"]
        assert read_reports(out_dir, "shaped")["error"] == (
            f"{field} has shape (1, 2), expected (2,)")

    def test_x_star_whose_image_overflows_exits_3_before_any_task(self, tmp_path):
        # x_star is finite, but A x_star = (2e308 - 2, 1) is not: solve_pg wrote inf
        # in every s_n, bound_n and dist_n cell and exited 0 with two RuntimeWarnings
        doc_path = write_scenario(tmp_path, name="overflow", x_star=[1e308, 0.0])
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert cli.run_scenario(doc_path, tmp_path) == 3
        assert [str(w.message) for w in record] == []
        payload = read_reports(tmp_path, "overflow")
        assert payload["tasks"] == {} and payload["reports"] == []

    @pytest.mark.parametrize("changes,error", [
        ({"set": {"type": "simplex", "dim": 10**15}},
         "constraint set has dimension 1000000000000000, expected 2"),
        ({"map_s": {"type": "projection", "set": {"type": "simplex", "dim": 10**15}},
          "tasks": SOLVE_BOTH},
         "map_s set has dimension 1000000000000000, expected 2"),
    ], ids=["set", "map_s-set"])
    def test_huge_simplex_dim_exits_3_before_allocating(self, tmp_path, changes, error):
        # a simplex makes its ranks 1..n on its first projection, so the
        # dimension check refuses n = 10**15 before 8 PB are asked for
        doc_path = write_scenario(tmp_path, name="huge_simplex", **changes)
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 3
        assert [p.name for p in out_dir.iterdir()] == ["huge_simplex.reports.json"]
        assert read_reports(out_dir, "huge_simplex")["error"] == error

    def test_overflowing_alpha_exits_3_naming_cause(self, tmp_path):
        # alpha = v / sigma_max^2 needs sigma_max^2 = 1e400, beyond a float
        operator = {"matrix": [[1e200, 0.0], [0.0, 1e200]], "offset": [0.0, 0.0]}
        doc_path = write_scenario(tmp_path, name="huge", operator=operator,
                                  tasks=["verify_lemma31"])
        assert cli.run_scenario(doc_path, tmp_path) == 3
        assert "sigma_max(M) = 1e+200 is out of range" in read_reports(tmp_path, "huge")["error"]

    def test_huge_supplied_eps_is_precondition_violation(self, tmp_path):
        doc_path = write_scenario(tmp_path, name="hugeeps", tasks=["verify_lemma22"],
                                  moduli={"m": 1.0, "v": 1.0, "eps": 1e200})
        assert cli.run_scenario(doc_path, tmp_path) == 3
        payload = read_reports(tmp_path, "hugeeps")
        assert payload["reports"][0]["status"] == "PreconditionViolated"
        assert payload["tasks"]["verify_lemma22"]["gamma"] is None

    def test_empty_solution_set_writes_null_max_violation(self, tmp_path):
        doc_path = write_scenario(tmp_path, name="nosol", **EMPTY_GRID_SET)
        assert cli.run_scenario(doc_path, tmp_path) == 1
        (singleton,) = [r for r in read_reports(tmp_path, "nosol")["reports"]
                        if r["property"].startswith("singleton_vi")]
        assert singleton["status"] == "Fail" and singleton["max_violation"] is None
        assert singleton["note"] == "VI(C,A) empty at this resolution"

    @pytest.mark.parametrize("changes", [
        EMPTY_GRID_SET,
        {"moduli": {"m": 1.0, "v": 1.0, "eps": 1e200}, "tasks": ["verify_lemma22"]},
    ], ids=["empty-set", "huge-eps"])
    def test_reports_with_infinite_values_decode_with_orjson(self, tmp_path, changes):
        doc_path = write_scenario(tmp_path, name="strict", **changes)
        assert cli.run_scenario(doc_path, tmp_path) in (1, 3)
        assert orjson.loads((tmp_path / "strict.reports.json").read_bytes())["reports"]

    @pytest.mark.parametrize("task", ["verify_lemma31", "verify_lemma22"])
    def test_huge_scale_operator_passes(self, tmp_path, task):
        # 1e152 I satisfies every property exactly; an absolute tolerance lost
        # it to rounding of |Mz|^2 ~ 1e304 and exited 1
        operator = {"matrix": [[1e152, 0.0], [0.0, 1e152]], "offset": [0.0, 0.0]}
        doc_path = write_scenario(tmp_path, name="scaled", operator=operator, tasks=[task])
        assert cli.run_scenario(doc_path, tmp_path) == 0
        reports = read_reports(tmp_path, "scaled")["reports"]
        assert reports and all(r["status"] == "Pass" for r in reports)

    def test_overflowing_quadratic_form_exits_3_naming_cause(self, tmp_path):
        # M^T M = 1e310 I overflows; the check must not pass on a NaN spectrum
        operator = {"matrix": [[1e155, 0.0], [0.0, 1e155]], "offset": [0.0, 0.0]}
        doc_path = write_scenario(tmp_path, name="overflow", operator=operator,
                                  tasks=["verify_lemma22"],
                                  moduli={"m": 0.0, "v": 1e155, "eps": 1e155})
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 3
        assert sorted(p.name for p in out_dir.iterdir()) == ["overflow.reports.json"]
        payload = read_reports(out_dir, "overflow")
        assert payload["exit_status"] == 3
        assert "quadratic form overflows" in payload["error"]
        assert "cocoercive_expansive" in payload["error"]
        assert_outputs_named(out_dir, "overflow")

    def test_late_failure_reports_the_tasks_before_it(self, tmp_path):
        # solve_pg completes and writes its trace; verify_lemma22's form then
        # overflows, and the report still names solve_pg's record and trace
        doc_path = write_scenario(tmp_path, name="late", tasks=["solve_pg", "verify_lemma22"],
                                  moduli={"m": 0.0, "v": 1e200, "eps": 1e200})
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 3
        payload = read_reports(out_dir, "late")
        assert "quadratic form overflows" in payload["error"]
        assert list(payload["tasks"]) == ["solve_pg"]
        assert payload["tasks"]["solve_pg"]["status"] == "Converged"
        assert payload["reports"] == []
        assert_outputs_named(out_dir, "late")

    @pytest.mark.parametrize("task", ["solve_pg", "verify_lemma22"])
    def test_underflowing_sigma_max_squared_exits_3(self, tmp_path, task):
        # sigma_max^2 = 1e-340 is 0 in a float: alpha = v / sigma_max^2 divided by 0
        doc_path = write_scenario(
            tmp_path, name="tiny", operator={"matrix": [[1e-170]], "offset": [0.0]},
            set={"type": "box", "lower": [0.0], "upper": [1.0]}, x0=[0.0], x_star=None,
            grid=None, tasks=[task])
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 3
        payload = read_reports(out_dir, "tiny")
        assert payload["error"].startswith("sigma_max(M) = 1e-170 is out of range")
        assert payload["tasks"] == {}
        assert [p.name for p in out_dir.iterdir()] == ["tiny.reports.json"]

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, pytest.param(10**400, id="1e400")])
    def test_non_finite_power_exponent_exits_3_before_any_task(self, tmp_path, exponent):
        schedule = {"rule": "power", "exponent": exponent}
        doc_path = write_scenario(tmp_path, name="nanexp", tasks=SOLVE_BOTH,
                                  config=dict(BASE_SCENARIO["config"], anchor_schedule=schedule))
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 3
        payload = read_reports(out_dir, "nanexp")
        assert payload["error"] == "anchor schedule exponent must be positive"
        assert payload["tasks"] == {}
        assert [p.name for p in out_dir.iterdir()] == ["nanexp.reports.json"]

    def test_power_weight_past_the_float_range_runs_to_max_iters(self, tmp_path):
        # (n + 1)^100 passes the float range at n = 1209; the run reaches max_iters
        schedule = {"rule": "power", "exponent": 100}
        doc_path = write_scenario(
            tmp_path, name="steep", tasks=["solve_halpern"],
            map_s={"type": "affine_average", "t": 0.5, "fixed_point": [0.5, 0.5]},
            config=dict(BASE_SCENARIO["config"], anchor_schedule=schedule, max_iters=1500))
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 0
        record = read_reports(out_dir, "steep")["tasks"]["solve_halpern"]
        assert (record["status"], record["iterations"]) == ("MaxIters", 1500)
        assert_outputs_named(out_dir, "steep")

    def test_integer_exponent_of_301_digits_completes(self, tmp_path):
        # raised as a float, (n + 1)^(10^300) overflows at once to weight 0
        schedule = {"rule": "power", "exponent": 10**300}
        doc_path = write_scenario(
            tmp_path, name="hugeexp", tasks=["solve_halpern"],
            map_s={"type": "affine_average", "t": 0.5, "fixed_point": [0.5, 0.5]},
            config=dict(BASE_SCENARIO["config"], anchor_schedule=schedule, max_iters=200))
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 0
        assert read_reports(out_dir, "hugeexp")["tasks"]["solve_halpern"]["iterations"] <= 200
        assert_outputs_named(out_dir, "hugeexp")

    def test_delta_whose_inner_tolerance_underflows_exits_3(self, tmp_path):
        # 1e-3 * delta is 0, so compare_stopping would run to residual_tol 0
        doc_path = write_scenario(tmp_path, name="tinydelta", tasks=PG_FIRST, delta=1e-322)
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 3
        payload = read_reports(out_dir, "tinydelta")
        assert payload["error"].startswith("comparison target delta must be finite and positive")
        assert "delta * 0.001 nonzero" in payload["error"]
        assert payload["tasks"] == {}
        assert [p.name for p in out_dir.iterdir()] == ["tinydelta.reports.json"]

    @pytest.mark.parametrize("seed", [None, 5])
    def test_goldens_pass_every_verify_report_exactly(self, tmp_path, seed):
        for name in ("box_identity", "box_diag", "box_rotation", "simplex_rotation"):
            assert cli.run_scenario(cli.golden_path(name), tmp_path, seed=seed) == 0
            reports = read_reports(tmp_path, name)["reports"]
            assert reports and all(r["status"] == "Pass" for r in reports)
            pairwise = [r for r in reports if not r["property"].startswith("singleton_vi")]
            assert len(pairwise) == 3
            for r in pairwise:
                assert (r["samples_used"], r["seed"], r["witness"]) == (0, None, None)
                assert r["note"].startswith("exact")
                assert r["max_violation"] <= 0.0

    def test_negative_seed_override_exits_3(self, tmp_path):
        doc_path = write_scenario(tmp_path, name="negseed", tasks=["verify_lemma22"])
        assert cli.run_scenario(doc_path, tmp_path, seed=-1) == 3
        assert "seed" in read_reports(tmp_path, "negseed")["error"]


class TestScenarioParsing:
    """The scenario JSON format: key names, variants and defaults."""

    def test_every_set_variant_round_trips(self):
        docs = [
            {"type": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            {"type": "ball", "center": [0.0, 0.0], "radius": 2.0},
            {"type": "halfspace", "normal": [1.0, 0.0], "offset": 1.0},
            {"type": "simplex", "dim": 4},
            {
                "type": "affine",
                "basepoint": [0.0, 0.0],
                "orthonormal_basis": [[1.0, 0.0]],
            },
        ]
        kinds = [Box, Ball, Halfspace, Simplex, AffineSubspace]
        for doc, kind in zip(docs, kinds):
            n = 4 if kind is Simplex else 2
            operator = {"matrix": np.eye(n).tolist(), "offset": [0.0] * n}
            scenario = parse(set=doc, operator=operator, x0=[0.0] * n, x_star=None)
            assert isinstance(scenario.set_, kind)

    def test_unknown_set_type_rejected(self):
        with pytest.raises(ValidationError):
            parse(set={"type": "polygon"})

    def test_missing_set_fields_named(self):
        with pytest.raises(ValidationError, match="radius"):
            parse(set={"type": "ball", "center": [0.0]})

    def test_map_kinds(self):
        assert isinstance(parse(map_s=None).map_s, Identity)
        assert isinstance(parse(map_s={"type": "identity"}).map_s, Identity)
        proj = parse(map_s={"type": "projection", "set": {"type": "simplex", "dim": 2}}).map_s
        assert isinstance(proj, ProjectionOnto)
        assert isinstance(proj.set_, Simplex)
        avg = parse(map_s={"type": "affine_average", "t": 0.5, "fixed_point": [0.0, 0.0]}).map_s
        assert isinstance(avg, AffineAverage)
        with pytest.raises(ValidationError):
            parse(map_s={"type": "reflector"})
        with pytest.raises(ValidationError, match="^map_s spec missing field 'type'$"):
            parse(map_s={})

    def test_anchor_schedule_keys_and_default(self):
        config = dict(BASE_SCENARIO["config"], anchor_schedule={"rule": "geometric", "ratio": 0.25})
        sched = parse(config=config).config.anchor_schedule
        assert sched.rule == "geometric" and sched.ratio == 0.25
        config = dict(BASE_SCENARIO["config"], anchor_schedule=None)
        assert parse(config=config).config.anchor_schedule.rule == "harmonic"

    def test_config_key_names(self):
        scenario = parse(config={"lambda": 0.4, "max_iters": 50, "tol": 1e-6, "seed": 3})
        assert scenario.config.step == 0.4
        assert scenario.config.max_iters == 50
        assert scenario.config.residual_tol == 1e-6
        assert scenario.seed == 3
        with pytest.raises(ValidationError):
            parse(config={"max_iters": 50})

    @pytest.mark.parametrize("tasks,shown", [({"solve_pg": 1}, '{"solve_pg": 1}'),
                                             ("solve_pg", '"solve_pg"')],
                             ids=["object", "string"])
    def test_tasks_must_be_an_array(self, tmp_path, tasks, shown):
        # Read as an iterable, an object ran its keys and a string one task per character.
        doc = json.loads(cli.golden_path("box_diag").read_text())
        doc_path = tmp_path / "box_diag.json"
        doc_path.write_text(json.dumps(dict(doc, tasks=tasks)))
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 3
        assert [p.name for p in out_dir.iterdir()] == ["box_diag.reports.json"]
        assert read_reports(out_dir, "box_diag")["error"] == (
            f"scenario field 'tasks' must be an array of task names, got {shown}")

    @pytest.mark.parametrize("task", ["verify_lemma22", "solve_pg"])
    def test_task_listed_twice_exits_3_before_any_task_runs(self, tmp_path, task):
        # Listed twice, verify_lemma22 wrote one record but two reports and solve_pg solved twice.
        doc = json.loads(cli.golden_path("box_diag").read_text())
        doc_path = tmp_path / "box_diag.json"
        doc_path.write_text(json.dumps(dict(doc, tasks=[task, task])))
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == 3
        assert [p.name for p in out_dir.iterdir()] == ["box_diag.reports.json"]
        payload = read_reports(out_dir, "box_diag")
        assert payload["tasks"] == {} and payload["reports"] == []
        assert payload["error"] == f"task '{task}' is listed more than once"

    def test_operator_field_names(self):
        op = parse(operator={"matrix": [[2.0, 0.0], [0.0, 1.0]], "offset": [-2.0, 1.0]}).operator
        np.testing.assert_array_equal(op.matrix, [[2.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(op.offset, [-2.0, 1.0])
        with pytest.raises(ValidationError):
            parse(operator={"matrix": [[1.0]]})


class TestListGolden:
    def test_bundled_names_present(self):
        names = [name for name, _ in cli.list_golden()]
        for expected in ("box_identity", "box_diag", "simplex_rotation"):
            assert expected in names

    def test_listing_tracks_directory_contents(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "golden_dir", lambda: tmp_path)
        assert cli.list_golden() == []
        (tmp_path / "extra.json").write_text(json.dumps({"name": "extra", "description": "d"}))
        assert cli.list_golden() == [("extra", "d")]

    def test_missing_directory_is_empty_listing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "golden_dir", lambda: tmp_path / "absent")
        assert cli.list_golden() == []

    def test_file_run_cannot_decode_is_listed_unreadable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "golden_dir", lambda: tmp_path)
        (tmp_path / "a_not_utf8.json").write_bytes(b'{"name": "x\xff"}')
        (tmp_path / "b_deep.json").write_bytes(b"[" * 100_000 + b"]" * 100_000)
        (tmp_path / "c_array.json").write_text("[1, 2]")
        (tmp_path / "d.json").mkdir()
        (tmp_path / "e_valid.json").write_text(
            json.dumps(dict(BASE_SCENARIO, name="valid", description="a unit box")))
        assert cli.list_golden() == [
            ("a_not_utf8", "(unreadable scenario file)"),
            ("b_deep", "(unreadable scenario file)"),
            ("c_array", "(unreadable scenario file)"),
            ("d", "(unreadable scenario file)"),
            ("valid", "a unit box"),
        ]
        assert cli.main(["list-golden"]) == 0
        assert capsys.readouterr().out.count("(unreadable scenario file)") == 4

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python converts integers of any length")
    def test_integer_past_the_digit_limit_is_listed_unreadable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "golden_dir", lambda: tmp_path)
        (tmp_path / "big.json").write_text('{"name": "big", "seed": ' + "9" * 5000 + "}")
        assert cli.list_golden() == [("big", "(unreadable scenario file)")]

    @pytest.mark.parametrize("stem,cut", LONG_STEMS, ids=LONG_STEM_IDS)
    def test_long_stem_is_cut_like_the_report_name(self, tmp_path, monkeypatch, stem, cut):
        monkeypatch.setattr(cli, "golden_dir", lambda: tmp_path)
        (tmp_path / f"{stem}.json").write_text(json.dumps({"name": "a/b", "description": "d"}))
        assert cli.list_golden() == [(cut, "d")]

    @pytest.mark.parametrize("name", ["", "..", "a/b", 7])
    def test_entry_is_named_like_the_report(self, tmp_path, monkeypatch, name):
        monkeypatch.setattr(cli, "golden_dir", lambda: tmp_path)
        path = tmp_path / "file.json"
        path.write_text(json.dumps({"name": name, "description": "d"}))
        out_dir = tmp_path / "out"
        cli.run_scenario(path, out_dir)
        (report,) = out_dir.glob("*.reports.json")
        assert cli.list_golden() == [(report.name.removesuffix(".reports.json"), "d")]


def test_600_deep_nesting_decodes_as_json_does(tmp_path):
    # deeper than the Python-level recursion of a walk over orjson's value can go
    path = tmp_path / "deep.json"
    path.write_text("[" * 600 + "1" + "]" * 600)
    doc, reason = cli._read_json(path)
    assert reason is None and doc == json.loads(path.read_text())


# Nested past what orjson 3.8's recursive decoder survives on an 8 MB C stack
# (~131 000 array or ~52 500 object levels), with a margin for larger stacks; run
# in a child process, so a crash fails the test instead of ending pytest.
DEEP_FILES = {"arrays": b"[" * 600_000 + b"]" * 600_000,
              "objects": b'{"a":' * 250_000 + b"1" + b"}" * 250_000}


def run_child(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


def test_long_affine_basis_exits_3_under_an_address_space_limit(tmp_path):
    # 20 000 basis rows in R^1 cannot be orthonormal; checked after their
    # 20 000 x 20 000 Gram (3.2 GB), they crashed a child limited to 1.5 GB
    doc_path = write_scenario(
        tmp_path, name="long_basis", operator={"matrix": [[1.0]], "offset": [0.0]},
        x0=[0.0], x_star=[0.0],
        set={"type": "affine", "basepoint": [0.0], "orthonormal_basis": [[1.0]] * 20_000})
    limited = ("import os, resource, sys; os.environ['OPENBLAS_NUM_THREADS'] = '1'; "
               "limit = 1_500_000_000; hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
               "resource.setrlimit(resource.RLIMIT_AS, (limit, hard)); "
               "from vikit import cli; sys.exit(cli.main(sys.argv[1:]))")
    out_dir = tmp_path / "out"
    proc = run_child("-c", limited, "run", str(doc_path), "--out", str(out_dir))
    assert proc.returncode == 3, proc.stderr
    assert read_reports(out_dir, "long_basis")["error"] == (
        "basis vectors must be pairwise orthonormal within 1e-12")


def test_empty_basis_scenario_solves_to_the_basepoint(tmp_path):
    basepoint = [0.25, -0.5]
    doc_path = write_scenario(
        tmp_path, name="point", x_star=basepoint, tasks=["solve_pg"],
        set={"type": "affine", "basepoint": basepoint, "orthonormal_basis": []})
    out_dir = tmp_path / "out"
    assert cli.run_scenario(doc_path, out_dir) == 0
    with open(out_dir / "point.solve_pg.trace.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert float(rows[-1]["dist_n"]) == 0.0
    assert read_reports(out_dir, "point")["tasks"]["solve_pg"]["status"] == "Converged"


@pytest.mark.parametrize("kind", DEEP_FILES)
def test_nesting_past_the_c_stack_exits_2_with_one_line(tmp_path, kind):
    bad = tmp_path / "deep.json"
    bad.write_bytes(DEEP_FILES[kind])
    out_dir = tmp_path / "out"
    proc = run_child("-m", "vikit.cli", "run", str(bad), "--out", str(out_dir))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"malformed JSON in {bad}: nested too deeply to decode\n"
    assert list(out_dir.iterdir()) == []


def test_nesting_past_the_c_stack_is_listed_unreadable(tmp_path):
    for kind, content in DEEP_FILES.items():
        (tmp_path / f"{kind}.json").write_bytes(content)
    listing = ("import sys; from pathlib import Path; from vikit import cli; "
               "cli.golden_dir = lambda: Path(sys.argv[1]); sys.exit(cli.main(['list-golden']))")
    proc = run_child("-c", listing, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("arrays: (unreadable scenario file)\n"
                           "objects: (unreadable scenario file)\n")


def test_seed_beyond_64_bits_is_echoed_exactly(tmp_path):
    doc = json.loads(cli.golden_path("box_diag").read_text())
    doc.update(tasks=["verify_lemma31"], config=dict(doc["config"], seed=2**64 + 1))
    doc_path = tmp_path / "box_diag.json"
    doc_path.write_text(json.dumps(doc))
    assert cli.run_scenario(doc_path, tmp_path / "out") == 0
    reports = read_reports(tmp_path / "out", "box_diag")["reports"]
    (singleton,) = [r for r in reports if r["property"].startswith("singleton_vi")]
    assert singleton["seed"] == 18446744073709551617


def _double(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def _midpoint_text(bits: int) -> str:
    """The exact decimal midpoint between a positive double and the next one up."""
    x = _double(bits)
    mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    k = mid.denominator.bit_length() - 1  # the denominator is 2**k
    return f"{mid.numerator * 5**k}e-{k}"


def _mantissa_text(digits: int, point: int, exponent: int, negative: bool) -> str:
    text = str(digits)
    point = min(point, len(text))
    mantissa = (text[:point] or "0") + ("." + text[point:] if text[point:] else "")
    return f"{'-' if negative else ''}{mantissa}e{exponent}"


def _string_text(head: str, escape: str, tail: str) -> str:
    return json.dumps(head)[:-1] + escape + json.dumps(tail)[1:]


# Numbers orjson accepts; the other scalars make it refuse the whole document.
_JSON_NUMBERS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: json.dumps(_double(bits))),
    st.builds(_mantissa_text, st.integers(1, 10**40 - 1), st.integers(0, 40),
              st.integers(-330, 310), st.booleans()),
    st.integers(1, 0x7FEF_FFFF_FFFF_FFFE).map(_midpoint_text),
    st.one_of(st.integers(-(2**70), 2**70), st.integers(2**63, 2**70),
              st.integers(-(2**70), -(2**63))).map(str),
)
_JSON_SCALARS = st.one_of(
    _JSON_NUMBERS,
    st.builds(_string_text, st.text(max_size=6),
              st.sampled_from(["\\ud800", "\\udfff\\ud800", "\\ud83d\\ude00"]),
              st.text(max_size=6)),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "true", "null"]),
)


def _json_trees(scalars):
    return st.recursive(scalars, lambda children: st.one_of(
        st.lists(children, max_size=4).map(lambda items: "[" + ",".join(items) + "]"),
        st.lists(st.tuples(st.text(max_size=3).map(json.dumps), children), max_size=4).map(
            lambda pairs: "{" + ",".join(f"{k}:{v}" for k, v in pairs) + "}"),
    ), max_leaves=10)


def _nest(text: str, depth: int, in_object: bool) -> str:
    return ('{"k":' * depth + text + "}" * depth) if in_object else (
        "[" * depth + text + "]" * depth)


def assert_same_value(got, want):
    """Same types throughout, the same bits for every float, equal otherwise."""
    assert type(got) is type(want)
    if isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_value(g, w)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same_value(got[key], want[key])
    else:
        assert got == want


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.builds(_nest, _json_trees(_JSON_NUMBERS) | _json_trees(_JSON_SCALARS),
                 st.integers(0, 100), st.booleans()))
def test_read_json_decodes_as_json_does(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("utf-8"))
    doc, reason = cli._read_json(path)
    assert reason is None
    assert_same_value(doc, json.loads(text))


# The decoder guard's edges: magnitude 2**63 from both sides, the one-hypot bound
# 2**62 and the float just below it, integers orjson reads as floats (2**64, and
# anything past -2**63), and the non-numbers that can sit in a number row.
_GUARD_NUMBERS = [0, 1, -1, True, False, 2**62, -(2**62), 2.0**62, -(2.0**62),
                  2.0**62 * (1 - 2.0**-53), -(2.0**62 * (1 - 2.0**-53)), 2**63, -(2**63),
                  2.0**63, -(2.0**63), 2**63 - 1, -(2**63) - 1, 2**64 - 1, 2**64, float(2**64),
                  1e300, -1e300]
_GUARD_ITEMS = [*_GUARD_NUMBERS, "s", "[{", None, []]


def _guard_tree(rng: random.Random, depth: int = 0):
    """A scalar, list or dict over _GUARD_ITEMS at most 3 deep; half the lists are
    number rows, a fifth of which hold one other item."""
    if depth == 3 or rng.random() < 0.3:
        return rng.choice(_GUARD_ITEMS)
    if rng.random() < 0.5:
        items = rng.choices(_GUARD_NUMBERS, k=rng.randint(1, 6))
        if rng.random() < 0.2:
            items[rng.randrange(len(items))] = rng.choice(_GUARD_ITEMS)
    else:
        items = [_guard_tree(rng, depth + 1) for _ in range(rng.randrange(5))]
    return items if rng.random() < 0.7 else {f"k{i}": item for i, item in enumerate(items)}


def _guard_texts(seed: int, count: int):
    """JSON texts of _guard_tree values, some wrapped to nest past the 64-level bound."""
    rng = random.Random(seed)
    for _ in range(count):
        tree = _guard_tree(rng)
        for _ in range(rng.choice([0, 0, 0, 61, 62, 63, 64, 65])):
            tree = [tree] if rng.random() < 0.5 else {"k": tree}
        yield json.dumps(tree)


def test_fast_guard_answers_as_the_literal_guard():
    answers = set()
    for text in _guard_texts(seed=20, count=10_000):
        value = orjson.loads(text)
        answer = cli._same_as_json(value)
        assert answer == literal_same_as_json(value), text
        answers.add(answer)
    assert answers == {True, False}


def test_read_json_on_guard_edges_decodes_as_json_does(tmp_path):
    path = tmp_path / "doc.json"
    for text in _guard_texts(seed=21, count=400):
        path.write_text(text)
        doc, reason = cli._read_json(path)
        assert reason is None
        assert_same_value(doc, json.loads(text))


def _refuse(*args, **kwargs):
    raise AssertionError("this decoder must not run")


@pytest.mark.parametrize("brackets,decoder", [(4096, "orjson"), (4097, "json")])
@pytest.mark.parametrize("in_string", [False, True], ids=["structure", "string"])
def test_bracket_count_picks_the_decoder(tmp_path, monkeypatch, brackets, decoder, in_string):
    # every "[" and "{" byte counts, inside a string too
    objects = brackets // 2
    text = json.dumps(["{" * (brackets - 1)]) if in_string else (
        "[" + ",".join(["{}"] * objects + ["[]"] * (brackets - objects - 1)) + "]")
    assert text.count("[") + text.count("{") == brackets
    path = tmp_path / "doc.json"
    path.write_text(text)
    want = json.loads(text)
    monkeypatch.setattr(cli.json if decoder == "orjson" else cli.orjson, "loads", _refuse)
    assert cli._read_json(path) == (want, None)


def test_large_scenario_decodes_without_json(tmp_path, monkeypatch):
    # a silent fall back to json would cost 0.13-0.21 s per large_n call
    n, rng = 500, np.random.default_rng(500)
    doc = dict(BASE_SCENARIO, name="large",
               operator={"matrix": rng.standard_normal((n, n)).tolist(),
                         "offset": rng.standard_normal(n).tolist()},
               set={"type": "box", "lower": [-1.0] * n, "upper": [1.0] * n},
               x0=[0.0] * n, x_star=rng.uniform(-1.0, 1.0, n).tolist())
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    want = json.loads(path.read_text())
    monkeypatch.setattr(cli.json, "loads", _refuse)
    assert cli._read_json(path) == (want, None)


class TestMain:
    def test_run_subcommand(self, tmp_path):
        doc_path = write_scenario(tmp_path, name="viamain")
        code = cli.main(["run", str(doc_path), "--out", str(tmp_path)])
        assert code == 0

    def test_list_golden_subcommand(self, capsys):
        assert cli.main(["list-golden"]) == 0
        out = capsys.readouterr().out
        assert "box_diag" in out

    def test_list_golden_as_module_from_source_tree(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "vikit.cli", "list-golden"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        names = [line.split(":")[0] for line in proc.stdout.splitlines()]
        assert names == ["box_diag", "box_identity", "box_rotation", "simplex_rotation"]

    def test_console_script_installed(self, tmp_path):
        doc_path = write_scenario(tmp_path, name="script")
        # the child imports vikit from where this test process does
        proc = subprocess.run(
            [sys.executable, "-m", "vikit.cli", "run", str(doc_path), "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "script.reports.json").exists()


@pytest.mark.parametrize("exc", [OSError("rename failed"), KeyboardInterrupt()],
                         ids=["oserror", "keyboard-interrupt"])
def test_failed_atomic_write_propagates_and_leaves_no_temp_file(tmp_path, monkeypatch, exc):
    def failing_replace(src, dst):
        raise exc

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    with pytest.raises(type(exc)) as raised:
        cli._atomic_write(tmp_path / "unit.reports.json", "{}\n")
    assert raised.value is exc
    assert list(tmp_path.iterdir()) == []


class TestWritePolicy:
    """run_scenario writes every file once the tasks have run or failed: each
    solver task's trace CSV in task order, then reports.json."""

    @staticmethod
    def box_diag(tmp_path, tasks):
        doc = json.loads(cli.golden_path("box_diag").read_text())
        doc["tasks"] = tasks
        path = tmp_path / "box_diag.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("tasks", [list(cli.TASKS), list(reversed(cli.TASKS))],
                             ids=["listed", "reversed"])
    @pytest.mark.parametrize("fails", [False, True], ids=["ok", "halpern-diverges"])
    def test_files_are_written_after_the_last_task_in_task_order(self, tmp_path, monkeypatch,
                                                                 tasks, fails):
        events = []
        run_tasks, atomic_write = cli._run_tasks, cli._atomic_write

        def logged_run_tasks(*args):
            try:
                run_tasks(*args)
            finally:
                events.append("tasks ended")

        def logged_write(path, text):
            events.append(path.name)
            atomic_write(path, text)

        def diverge(*args, **kwargs):
            raise DivergenceError(3)

        monkeypatch.setattr(cli, "_run_tasks", logged_run_tasks)
        monkeypatch.setattr(cli, "_atomic_write", logged_write)
        if fails:
            monkeypatch.setattr(cli, "solve_halpern", diverge)
        out_dir = tmp_path / "out"
        assert cli.run_scenario(self.box_diag(tmp_path, tasks), out_dir) == (4 if fails else 0)
        ran = tasks[: tasks.index("solve_halpern")] if fails else tasks
        csvs = [f"box_diag.{task}.trace.csv" for task in ran if task in cli.SOLVER_TASKS]
        assert events == ["tasks ended", *csvs, "box_diag.reports.json"]
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(events[1:])
        assert_outputs_named(out_dir, "box_diag")

    def test_keyboard_interrupt_in_a_task_leaves_no_file(self, tmp_path, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "lemma_cocoercive_expansive", interrupt)
        out_dir = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            cli.run_scenario(cli.golden_path("box_diag"), out_dir)
        assert list(out_dir.iterdir()) == []

    def test_failed_rename_propagates_and_keeps_the_files_before_it(self, tmp_path, monkeypatch):
        replace, targets = os.replace, []

        def second_fails(src, dst):
            targets.append(Path(dst).name)
            if len(targets) == 2:
                raise OSError("rename failed")
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", second_fails)
        out_dir = tmp_path / "out"
        with pytest.raises(OSError, match="rename failed"):
            cli.run_scenario(cli.golden_path("box_diag"), out_dir)
        assert targets == ["box_diag.solve_pg.trace.csv", "box_diag.solve_halpern.trace.csv"]
        assert [p.name for p in out_dir.iterdir()] == ["box_diag.solve_pg.trace.csv"]


SPECIAL_VALUES = [np.nan, np.inf, -0.0, 5e-324, 1e300, 0.1, 1.0 / 3.0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestTraceCsvWriter:
    """write_trace_csv gives the bytes of the csv.writer reference."""

    @staticmethod
    def check(tmp_path, trace, x_star=None):
        path = tmp_path / "trace.csv"
        cli.write_trace_csv(path, trace, x_star=x_star)
        assert path.read_bytes() == literal_trace_csv(trace, x_star=x_star).encode()

    @pytest.mark.parametrize("rows", [1, len(SPECIAL_VALUES)])
    @pytest.mark.parametrize("columns", ["r", "rs", "rsb"])
    @pytest.mark.parametrize("x_star", [None, [0.0, -0.0], [np.inf, 1.0]])
    def test_special_values(self, tmp_path, rows, columns, x_star):
        values = np.array(SPECIAL_VALUES[:rows])
        iterates = np.column_stack([values, values[::-1]])
        trace = IterationTrace(
            iterates=iterates,
            natural_residuals=values,
            operator_residuals=values[::-1] if "s" in columns else None,
            shortcut_bounds=-values if "b" in columns else None,
            status="MaxIters",
            gamma=1.0,
        )
        self.check(tmp_path, trace, x_star)

    def test_golden_traces(self, tmp_path, golden_scenarios):
        for sc in golden_scenarios:
            trace = solve_halpern(sc.operator, sc.set_, sc.map_s, sc.config, sc.x0,
                                  anchor=sc.anchor, x_ref=sc.x_star)
            self.check(tmp_path, trace)
            self.check(tmp_path, trace, sc.x_star)


def standalone_pg(sc):
    return solve_projected_gradient(sc.operator, sc.set_, sc.config, sc.x0, x_ref=sc.x_star)


PG_FIRST = ["solve_pg", "compare_stopping"]
PG_LAST = ["compare_stopping", "solve_pg"]
UNIT_CONFIG = BASE_SCENARIO["config"]
# Scenario changes, with the (rows, status) of solve_pg's standalone run and of
# compare_stopping's run of the same iteration (delta 1e-6: to tol 1e-9).
SHARED_CASES = {
    "stops-earlier": ({}, (13, "Converged"), (14, "Converged")),
    "max-iters-cuts-both": ({"config": dict(UNIT_CONFIG, max_iters=5)},
                            (6, "MaxIters"), (6, "MaxIters")),
    "max-iters-cuts-longer": ({"config": dict(UNIT_CONFIG, max_iters=12)},
                              (13, "Converged"), (13, "MaxIters")),
    "x0-solves": ({"x0": [1.0, 0.0]}, (1, "Converged"), (1, "Converged")),
    "same-run": ({"delta": 1.0}, (13, "Converged"), (13, "Converged")),
    "loose-tol": ({"config": dict(UNIT_CONFIG, tol=1e-2)}, (4, "Converged"), (14, "Converged")),
}


class TestSharedTrajectory:
    """With compare_stopping listed, solve_pg's trace and CSV are the prefix of
    compare_stopping's run; they must be those of a standalone solve."""

    @staticmethod
    def capture_prefixes(monkeypatch):
        """The traces ``IterationTrace.until`` returns during the run."""
        prefixes = []
        until = IterationTrace.until

        def capturing_until(self, tol):
            prefixes.append(until(self, tol))
            return prefixes[-1]

        monkeypatch.setattr(IterationTrace, "until", capturing_until)
        return prefixes

    @staticmethod
    def check_solve_pg(out_dir, sc, monkeypatch):
        """solve_pg's CSV and record against a standalone solve, which must
        equal the reference loop's bit for bit."""
        trace = standalone_pg(sc)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_run", literal_run)
            assert_same_trace(trace, standalone_pg(sc))
        csv = (out_dir / f"{sc.name}.solve_pg.trace.csv").read_bytes()
        assert csv == literal_trace_csv(trace, x_star=sc.x_star).encode()
        assert read_reports(out_dir, sc.name)["tasks"]["solve_pg"] == {
            "status": trace.status,
            "iterations": trace.rows - 1,
            "final": trace.final.tolist(),
            "final_residual": float(trace.natural_residuals[-1]),
            "trace_csv": f"{sc.name}.solve_pg.trace.csv",
        }

    @pytest.mark.parametrize("case", SHARED_CASES)
    def test_cases_cover_the_prefix_rule(self, case):
        changes, pg, comparison = SHARED_CASES[case]
        sc = parse(tasks=PG_FIRST, **changes)
        trace = standalone_pg(sc)
        long = compare_stopping(sc.operator, sc.set_, sc.config, sc.x0, sc.x_star, sc.delta).trace
        assert ((trace.rows, trace.status), (long.rows, long.status)) == (pg, comparison)
        assert_same_trace(long.until(sc.config.residual_tol), trace)

    @pytest.mark.parametrize("case", SHARED_CASES)
    @pytest.mark.parametrize("tasks", [PG_FIRST, PG_LAST], ids=["pg-first", "pg-last"])
    def test_solve_pg_equals_standalone_solve(self, tmp_path, monkeypatch, case, tasks):
        changes = SHARED_CASES[case][0]
        doc_path = write_scenario(tmp_path, name="shared", tasks=tasks, **changes)
        out_dir = tmp_path / "out"
        prefixes = self.capture_prefixes(monkeypatch)
        assert cli.run_scenario(doc_path, out_dir) == 0
        sc = parse(tasks=tasks, name="shared", **changes)
        assert len(prefixes) == 1
        assert_same_trace(prefixes[0], standalone_pg(sc))
        self.check_solve_pg(out_dir, sc, monkeypatch)
        record = compare_stopping(sc.operator, sc.set_, sc.config, sc.x0, sc.x_star, sc.delta)
        csv = (out_dir / "shared.compare_stopping.trace.csv").read_bytes()
        assert csv == literal_trace_csv(record.trace, x_star=sc.x_star).encode()

    @pytest.mark.parametrize("reverse", [False, True], ids=["golden-order", "reversed"])
    def test_goldens(self, tmp_path, monkeypatch, golden_scenarios, reverse):
        prefixes = self.capture_prefixes(monkeypatch)
        for sc in golden_scenarios:
            doc = json.loads(cli.golden_path(sc.name).read_text())
            doc["tasks"] = doc["tasks"][::-1] if reverse else doc["tasks"]
            doc_path = tmp_path / f"{sc.name}.json"
            doc_path.write_text(json.dumps(doc))
            out_dir = tmp_path / sc.name
            prefixes.clear()
            assert cli.run_scenario(doc_path, out_dir) == 0
            assert len(prefixes) == 1
            assert_same_trace(prefixes[0], standalone_pg(sc))
            self.check_solve_pg(out_dir, sc, monkeypatch)

    def test_without_compare_stopping_solve_pg_runs_its_own_solve(self, tmp_path, monkeypatch):
        doc_path = write_scenario(tmp_path, name="alone", tasks=["solve_halpern", "solve_pg"])
        out_dir = tmp_path / "out"
        prefixes = self.capture_prefixes(monkeypatch)
        assert cli.run_scenario(doc_path, out_dir) == 0
        assert prefixes == []
        self.check_solve_pg(out_dir, parse(name="alone"), monkeypatch)

    @pytest.mark.parametrize("tasks,runs", [
        (["solve_pg", "solve_halpern", "compare_stopping"], 2),
        (["compare_stopping", "solve_halpern", "solve_pg"], 2),
        (PG_FIRST, 1),
        (["solve_pg", "solve_halpern"], 2),
        (["solve_pg"], 1),
    ])
    def test_one_projected_gradient_run_per_scenario(self, tmp_path, monkeypatch, tasks, runs):
        calls = []
        run = solvers._run

        def counting_run(*args):
            calls.append(args)
            return run(*args)

        monkeypatch.setattr(solvers, "_run", counting_run)
        doc_path = write_scenario(tmp_path, name="count", tasks=tasks)
        assert cli.run_scenario(doc_path, tmp_path / "out") == 0
        assert len(calls) == runs

    @pytest.mark.parametrize("error,code", [(DivergenceError(7), 4),
                                            (ConfigurationError("comparison refused"), 3)])
    @pytest.mark.parametrize("tasks", [PG_FIRST, PG_LAST], ids=["pg-first", "pg-last"])
    def test_failed_comparison_leaves_solve_pg_its_own_solve(self, tmp_path, monkeypatch,
                                                             error, code, tasks):
        # solve_pg listed first still completes and writes its trace, as it
        # did when it never shared compare_stopping's run, and the report of
        # the failed scenario names it; listed last it never runs
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "compare_stopping", fail)
        doc_path = write_scenario(tmp_path, name="cut", tasks=tasks)
        out_dir = tmp_path / "out"
        assert cli.run_scenario(doc_path, out_dir) == code
        assert read_reports(out_dir, "cut")["error"] == str(error)
        written = sorted(p.name for p in out_dir.iterdir())
        if tasks == PG_FIRST:
            assert written == ["cut.reports.json", "cut.solve_pg.trace.csv"]
            self.check_solve_pg(out_dir, parse(name="cut", tasks=tasks), monkeypatch)
        else:
            assert written == ["cut.reports.json"]
            assert read_reports(out_dir, "cut")["tasks"] == {}
        assert_outputs_named(out_dir, "cut")


@pytest.mark.parametrize("fails", [False, True], ids=["ok", "halpern-diverges"])
def test_run_tasks_frees_the_scenario_without_the_garbage_collector(monkeypatch, fails):
    # the shared results must go with the run: a reference cycle through them would
    # keep the scenario and every trace until the next garbage collection
    def diverge(*args, **kwargs):
        raise DivergenceError(7)

    if fails:
        monkeypatch.setattr(cli, "solve_halpern", diverge)
    scenario = cli.Scenario.from_dict(json.loads(cli.golden_path("box_diag").read_text()))
    assert scenario.tasks[:2] == ("solve_pg", "solve_halpern")
    freed = weakref.ref(scenario)
    gc.disable()
    try:
        with suppress(DivergenceError):
            cli._run_tasks(scenario, {}, [], {})
        del scenario
        assert freed() is None
    finally:
        gc.enable()


def test_full_scenario_takes_two_eigen_solves_and_one_svd(tmp_path, linalg_calls):
    # the moduli's SVD, whose sigma(M)^2 decides the one-term M^T M forms of
    # verify_lemma22 and expansive, eigvalsh(M_s) and eigvalsh(M_s - alpha M^T M)
    doc = json.loads(cli.golden_path("box_diag").read_text())
    assert sorted(doc["tasks"]) == sorted(cli.TASKS)
    assert cli.run_scenario(cli.golden_path("box_diag"), tmp_path) == 0
    assert linalg_calls == {"eigvalsh": 2, "eigh": 0, "svd": 1}
