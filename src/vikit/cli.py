"""Batch front-end: ingest scenario files, run solver and verification tasks,
emit CSV traces and JSON reports.

Exit codes: 0 all tasks ran and every verification passed; 1 a verification
failed; 2 malformed scenario JSON; 3 a scenario field is missing, mistyped or
invalid, or a precondition was violated; 4 a solver diverged.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DivergenceError, ValidationError
from .geometry import Box, ConvexSet, Simplex, set_from_json
from .operators import (
    AffineOperator,
    certify_moduli,
    check_expansive,
    check_ism,
    sample_pairs,
)
from .reports import PASS, PRECONDITION_VIOLATED, VerificationReport
from .solvers import (
    DEFAULT_COMPARISON_DELTA,
    IterationConfig,
    IterationTrace,
    NonexpansiveMap,
    compare_stopping,
    map_from_json,
    solve_halpern,
    solve_projected_gradient,
)
from .verification import (
    BruteForceGrid,
    brute_force_vi,
    check_singleton_vi,
    lemma_cocoercive_expansive,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_BAD_JSON = 2
EXIT_PRECONDITION = 3
EXIT_DIVERGENCE = 4

TASKS = (
    "solve_pg",
    "solve_halpern",
    "verify_lemma22",
    "verify_lemma31",
    "brute_force",
    "compare_stopping",
)

SOLVER_TASKS = ("solve_pg", "solve_halpern", "compare_stopping")


@dataclass
class Scenario:
    """A batch job: one operator/set instance plus the tasks to run on it."""

    name: str
    operator: AffineOperator
    set_: ConvexSet
    config: IterationConfig
    x0: np.ndarray
    tasks: tuple[str, ...]
    map_s: NonexpansiveMap | None = None
    x_star: np.ndarray | None = None
    anchor: np.ndarray | None = None
    moduli: dict | None = None
    grid: dict | None = None
    delta: float = DEFAULT_COMPARISON_DELTA
    description: str = ""

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        """Parse a decoded scenario; a missing or mistyped field raises ValidationError."""
        if not isinstance(doc, dict):
            raise ValidationError("scenario must be a JSON object")
        for key in ("name", "operator", "set", "config", "x0", "tasks"):
            if key not in doc:
                raise ValidationError(f"scenario missing field '{key}'")
        name = str(doc["name"])
        if not _is_plain_stem(name):
            raise ValidationError(f"scenario name {name!r} is not a plain file stem")

        def optional_vector(key):
            return None if doc.get(key) is None else np.asarray(doc[key], dtype=float)

        try:
            tasks = tuple(doc["tasks"])
            for task in tasks:
                if task not in TASKS:
                    raise ValidationError(f"unknown task '{task}'")
            scenario = cls(
                name=name,
                operator=AffineOperator.from_json(doc["operator"]),
                set_=set_from_json(doc["set"]),
                config=IterationConfig.from_json(doc["config"]),
                x0=np.asarray(doc["x0"], dtype=float),
                tasks=tasks,
                map_s=map_from_json(doc.get("map_s")),
                x_star=optional_vector("x_star"),
                anchor=optional_vector("anchor"),
                moduli=_numeric_fields(doc.get("moduli"), ("m", "v", "eps")),
                grid=_numeric_fields(doc.get("grid"), ("h", "vi_tolerance")),
                delta=float(doc.get("delta", DEFAULT_COMPARISON_DELTA)),
                description=str(doc.get("description", "")),
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValidationError(f"mistyped scenario field: {exc}") from exc
        if "compare_stopping" in tasks and scenario.x_star is None:
            raise ValidationError("task 'compare_stopping' requires field 'x_star'")
        if "brute_force" in tasks and scenario.grid is None:
            raise ValidationError("task 'brute_force' requires field 'grid'")
        return scenario

    def make_grid(self) -> BruteForceGrid:
        if self.grid is None or "h" not in self.grid:
            raise ValidationError("grid spec requires field 'h'")
        return BruteForceGrid(
            set_=self.set_,
            h=float(self.grid["h"]),
            vi_tolerance=float(self.grid.get("vi_tolerance", 1e-9)),
        )


def _is_plain_stem(name: str) -> bool:
    """True iff output files named after ``name`` stay inside the output directory."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


def _numeric_fields(spec: dict | None, keys) -> dict | None:
    """A copy of an optional sub-object with its fields ``keys`` as floats."""
    if spec is None:
        return None
    return {**spec, **{key: float(spec[key]) for key in keys if key in spec}}


def _fmt(value: float) -> str:
    return repr(float(value))


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace_csv(path: Path, trace: IterationTrace, x_star=None) -> None:
    """Columns in order: n, r_n, s_n, bound_n, dist_n (dist_n only with x_star)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["n", "r_n", "s_n", "bound_n"]
    distances = None
    if x_star is not None:
        header.append("dist_n")
        distances = trace.distances_to(x_star)
    writer.writerow(header)
    for i in range(trace.rows):
        row = [str(i), _fmt(trace.natural_residuals[i])]
        row.append("" if trace.operator_residuals is None else _fmt(trace.operator_residuals[i]))
        row.append("" if trace.shortcut_bounds is None else _fmt(trace.shortcut_bounds[i]))
        if distances is not None:
            row.append(_fmt(distances[i]))
        writer.writerow(row)
    _atomic_write(path, buffer.getvalue())


def _trace_record(trace: IterationTrace, csv_name: str) -> dict:
    return {
        "status": trace.status,
        "iterations": int(trace.rows - 1),
        "final": [float(v) for v in trace.final],
        "final_residual": float(trace.natural_residuals[-1]),
        "trace_csv": csv_name,
    }


def _default_moduli(op: AffineOperator, supplied: dict | None) -> tuple[float, float, float]:
    if supplied is not None:
        try:
            return float(supplied["m"]), float(supplied["v"]), float(supplied["eps"])
        except KeyError as exc:
            raise ValidationError(f"moduli spec missing field {exc}") from exc
    certified = certify_moduli(op)
    return 0.0, certified.strong_monotonicity, certified.lipschitz


def _run_tasks(scenario: Scenario, out_dir: Path) -> tuple[dict, list[VerificationReport]]:
    op, set_, cfg = scenario.operator, scenario.set_, scenario.config
    records: dict = {}
    reports: list[VerificationReport] = []

    @functools.cache
    def oracle() -> tuple[BruteForceGrid, np.ndarray]:
        """The scenario's grid and its VI solution set, computed on first use."""
        grid = scenario.make_grid()
        return grid, brute_force_vi(op, grid)

    for task in scenario.tasks:
        if task == "solve_pg":
            trace = solve_projected_gradient(op, set_, cfg, scenario.x0, x_ref=scenario.x_star)
            csv_name = f"{scenario.name}.solve_pg.trace.csv"
            write_trace_csv(out_dir / csv_name, trace, x_star=scenario.x_star)
            records[task] = _trace_record(trace, csv_name)

        elif task == "solve_halpern":
            trace = solve_halpern(
                op,
                set_,
                scenario.map_s,
                cfg,
                scenario.x0,
                anchor=scenario.anchor,
                x_ref=scenario.x_star,
            )
            csv_name = f"{scenario.name}.solve_halpern.trace.csv"
            write_trace_csv(out_dir / csv_name, trace, x_star=scenario.x_star)
            records[task] = _trace_record(trace, csv_name)

        elif task == "verify_lemma22":
            m, v, eps = _default_moduli(op, scenario.moduli)
            pairs = sample_pairs(op.dim, seed=cfg.seed)
            report, gamma = lemma_cocoercive_expansive(op, m, v, eps, pairs, seed=cfg.seed)
            reports.append(report)
            records[task] = {"gamma": gamma, "report": report.as_dict()}

        elif task == "verify_lemma31":
            certified = certify_moduli(op)
            if certified.ism_alpha is None or certified.expansiveness <= 0.0:
                task_reports = [VerificationReport(
                    property="ism_expansive_singleton",
                    status=PRECONDITION_VIOLATED,
                    witness=None,
                    samples_used=0,
                    max_violation=0.0,
                    seed=cfg.seed,
                    note="operator lacks a certified ism modulus or is not expansive",
                )]
            else:
                pairs = sample_pairs(op.dim, seed=cfg.seed)
                task_reports = [
                    check_ism(op, certified.ism_alpha, pairs, seed=cfg.seed),
                    check_expansive(op, certified.expansiveness, pairs, seed=cfg.seed),
                ]
                if isinstance(set_, (Box, Simplex)) and scenario.grid is not None:
                    grid, solutions = oracle()
                    task_reports.append(check_singleton_vi(solutions, grid, seed=cfg.seed))
            reports.extend(task_reports)
            records[task] = {"reports": [r.as_dict() for r in task_reports]}

        elif task == "brute_force":
            solutions = oracle()[1]
            records[task] = {
                "solutions": [[float(v) for v in row] for row in solutions],
                "count": int(solutions.shape[0]),
            }

        elif task == "compare_stopping":
            record = compare_stopping(op, set_, cfg, scenario.x0, scenario.x_star, scenario.delta)
            csv_name = f"{scenario.name}.compare_stopping.trace.csv"
            write_trace_csv(out_dir / csv_name, record.trace, x_star=scenario.x_star)
            records[task] = {
                "delta": record.delta,
                "shortcut_iteration": record.shortcut_iteration,
                "natural_iteration": record.natural_iteration,
                "trace_csv": csv_name,
            }

    return records, reports


def run_scenario(
    path, out_dir, seed: int | None = None, max_iters: int | None = None
) -> int:
    """Execute one scenario file; write traces and <name>.reports.json into out_dir."""
    path = Path(path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        print(f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_BAD_JSON
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_BAD_JSON

    overrides = {"seed": seed, "max_iters": max_iters}
    status = EXIT_OK
    records: dict = {}
    reports: list[VerificationReport] = []
    error: str | None = None
    # Until the scenario parses, an unusable name falls back to the file's stem.
    name = str(doc.get("name", path.stem)) if isinstance(doc, dict) else path.stem
    name = name if _is_plain_stem(name) else path.stem
    try:
        scenario = Scenario.from_dict(doc)
        name = scenario.name
        scenario.config = replace(
            scenario.config, **{k: v for k, v in overrides.items() if v is not None}
        )
        records, reports = _run_tasks(scenario, out_dir)
    except DivergenceError as exc:
        error = str(exc)
        status = EXIT_DIVERGENCE
    except (ConfigurationError, ValidationError) as exc:
        error = str(exc)
        status = EXIT_PRECONDITION

    if status == EXIT_OK:
        if any(r.status == PRECONDITION_VIOLATED for r in reports):
            status = EXIT_PRECONDITION
        elif any(r.status != PASS for r in reports):
            status = EXIT_VERIFICATION_FAILED

    payload = {
        "scenario": name,
        "overrides": overrides,
        "exit_status": status,
        "error": error,
        "tasks": records,
        "reports": [r.as_dict() for r in reports],
    }
    _atomic_write(out_dir / f"{name}.reports.json", json.dumps(payload, indent=2) + "\n")
    return status


def golden_dir() -> Path:
    return Path(str(resources.files("vikit") / "scenarios"))


def golden_path(name: str) -> Path:
    return golden_dir() / f"{name}.json"


def list_golden() -> list[tuple[str, str]]:
    """Names and one-line descriptions of the bundled golden scenarios."""
    directory = golden_dir()
    if not directory.is_dir():
        return []
    entries = []
    for item in sorted(directory.glob("*.json")):
        try:
            doc = json.loads(item.read_text())
        except json.JSONDecodeError:
            entries.append((item.stem, "(unreadable scenario file)"))
            continue
        entries.append((str(doc.get("name", item.stem)), str(doc.get("description", ""))))
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vikit",
        description="Run variational-inequality solver and verification scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario JSON file")
    run_parser.add_argument("scenario", help="path to the scenario JSON file")
    run_parser.add_argument("--out", default=".", help="output directory for traces and reports")
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_parser.add_argument(
        "--max-iters", type=int, default=None, help="override the config iteration cap"
    )

    sub.add_parser("list-golden", help="list the bundled golden scenarios")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_scenario(args.scenario, args.out, seed=args.seed, max_iters=args.max_iters)
    for name, description in list_golden():
        print(f"{name}: {description}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
