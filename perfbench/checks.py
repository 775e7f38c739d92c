"""Output checks for one `run_scenario` call.

A run passes when:
- the exit code is 0, `<name>.reports.json` parses, and every report is Pass;
- for every solver task, |final - x_star| is at most the certified bound_n in
  the last row of its trace CSV, and at most residual_factor * r_n, the
  natural-residual error bound, which catches a wrong limit point
  (compare_stopping records no final iterate, so its checks use the CSV's
  own dist_n column);
- when the scenario has a grid, brute_force returns exactly the grid node of
  x_star.

`check_run` returns None on a pass and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import SOLVER_TASKS

# bound_n = |A x_n - A x*| / gamma is computed in floating point; allow a few
# ulps of relative rounding on top of the exact inequality.
BOUND_REL_SLACK = 1e-9
BOUND_ABS_SLACK = 1e-12
NODE_TOL = 1e-9


def _distance(a, b) -> float:
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def _last_row(path: Path) -> tuple[dict, int]:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return rows[-1], len(rows)


def check_run(entry: dict, code, out_dir: Path) -> str | None:
    if code != 0:
        return f"exit code {code}"
    name = entry["name"]
    try:
        payload = json.loads((out_dir / f"{name}.reports.json").read_text())
    except (OSError, ValueError) as exc:
        return f"reports.json unreadable: {exc}"
    not_passed = [r["property"] for r in payload["reports"] if r["status"] != "Pass"]
    if not_passed:
        return f"reports not Pass: {not_passed}"
    tasks = payload["tasks"]
    x_star = entry["x_star"]
    for task in SOLVER_TASKS:
        if task not in entry["tasks"]:
            continue
        record = tasks.get(task)
        if record is None:
            return f"{task}: no record"
        try:
            last, rows = _last_row(out_dir / record["trace_csv"])
            bound = float(last["bound_n"])
            residual = float(last["r_n"])
            dist = (_distance(record["final"], x_star) if "final" in record
                    else float(last["dist_n"]))
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return f"{task}: trace unreadable: {exc!r}"
        if "iterations" in record and rows != record["iterations"] + 1:
            return f"{task}: trace has {rows} rows for {record['iterations']} iterations"
        if not dist <= bound * (1.0 + BOUND_REL_SLACK) + BOUND_ABS_SLACK:
            return f"{task}: |final - x_star| = {dist!r} exceeds bound_n = {bound!r}"
        limit = entry["residual_factor"] * residual
        if not dist <= limit * (1.0 + BOUND_REL_SLACK) + BOUND_ABS_SLACK:
            return f"{task}: |final - x_star| = {dist!r} exceeds C * r_n = {limit!r}"
    if entry.get("grid_h") is not None:
        solutions = tasks.get("brute_force", {}).get("solutions")
        if not solutions or len(solutions) != 1:
            return f"brute_force: expected the single node of x_star, got {solutions}"
        if max(abs(s - x) for s, x in zip(solutions[0], x_star)) > NODE_TOL:
            return f"brute_force: returned {solutions[0]}, x_star is {x_star}"
    return None
