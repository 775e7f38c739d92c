import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from vikit import cli, verification
from vikit.errors import DivergenceError

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


def read_reports(out_dir, name):
    return json.loads((out_dir / f"{name}.reports.json").read_text())


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

    def test_step_precondition_exits_3(self, tmp_path):
        # alpha = 0.25 for diag(2, 1); lambda = 3 * alpha violates (0, 2 * alpha)
        doc_path = write_scenario(tmp_path, name="badstep",
                                  config=dict(BASE_SCENARIO["config"], **{"lambda": 0.75}))
        assert cli.run_scenario(doc_path, tmp_path) == 3
        payload = read_reports(tmp_path, "badstep")
        assert payload["error"] is not None
        assert payload["exit_status"] == 3

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

    def test_divergence_exits_4(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise DivergenceError(3)

        monkeypatch.setattr(cli, "solve_projected_gradient", explode)
        doc_path = write_scenario(tmp_path, name="diverges")
        assert cli.run_scenario(doc_path, tmp_path) == 4
        payload = read_reports(tmp_path, "diverges")
        assert "iteration 3" in payload["error"]

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
        doc_path = write_scenario(tmp_path, name="override", tasks=["verify_lemma22"])
        assert cli.run_scenario(doc_path, tmp_path, seed=99, max_iters=777) == 0
        payload = read_reports(tmp_path, "override")
        assert payload["overrides"] == {"seed": 99, "max_iters": 777}
        assert payload["reports"][0]["seed"] == 99

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
        ],
        ids=["lambda-str", "lambda-null", "x0-str", "tasks-int", "grid-h-str", "moduli-m-str",
             "list-doc"],
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


class TestMain:
    def test_run_subcommand(self, tmp_path):
        doc_path = write_scenario(tmp_path, name="viamain")
        code = cli.main(["run", str(doc_path), "--out", str(tmp_path)])
        assert code == 0

    def test_list_golden_subcommand(self, capsys):
        assert cli.main(["list-golden"]) == 0
        out = capsys.readouterr().out
        assert "box_diag" in out

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
