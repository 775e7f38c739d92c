"""Batch front-end: ingest scenario files, run solver and verification tasks,
emit CSV traces and JSON reports.

Exit codes: 0 all tasks ran and every verification passed; 1 a verification
failed; 2 malformed scenario JSON; 3 a scenario field is missing, mistyped or
invalid, or a precondition was violated; 4 a solver diverged.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from contextlib import suppress
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import orjson

from .errors import DivergenceError, ValidationError, VikitError
from .geometry import AffineSubspace, Ball, Box, ConvexSet, Halfspace, Simplex, _read_only
from .operators import (PASS, PRECONDITION_VIOLATED, AffineOperator, VerificationReport,
                        certify_moduli, check_expansive, check_ism)
from .operators import sample_pairs  # noqa: F401  (perfbench/tracing.py wraps this name)
from .solvers import (
    DEFAULT_COMPARISON_DELTA,
    DEFAULT_MAX_ITERS,
    DEFAULT_RESIDUAL_TOL,
    AffineAverage,
    AnchorSchedule,
    Identity,
    IterationConfig,
    IterationTrace,
    NonexpansiveMap,
    ProjectionOnto,
    _check_delta,
    _check_inputs,
    _check_step,
    compare_stopping,
    solve_halpern,
    solve_projected_gradient,
)
from .verification import (
    GRID_SET_TYPES,
    BruteForceGrid,
    _check_lemma22_constants,
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

# Set type in the scenario JSON -> the class and its JSON fields, in argument order.
_SET_TYPES = {
    "box": (Box, ("lower", "upper")),
    "ball": (Ball, ("center", "radius")),
    "halfspace": (Halfspace, ("normal", "offset")),
    "simplex": (Simplex, ("dim",)),
    "affine": (AffineSubspace, ("basepoint", "orthonormal_basis")),
}
_SCHEDULE_KEYS = ("rule", "scale", "exponent", "ratio")


@dataclass(frozen=True)
class Scenario:
    """A batch job: one operator/set instance plus the tasks to run on it.

    Construction checks each field's dimension, finiteness and range against
    the operator and the tasks, so a malformed scenario fails before any task runs.
    """

    name: str
    operator: AffineOperator
    set_: ConvexSet
    config: IterationConfig
    x0: np.ndarray
    tasks: tuple[str, ...]
    seed: int = 0
    map_s: NonexpansiveMap = Identity()
    x_star: np.ndarray | None = None
    anchor: np.ndarray | None = None
    moduli: tuple[float, float, float] | None = None
    grid: BruteForceGrid | None = None
    delta: float = DEFAULT_COMPARISON_DELTA

    def __post_init__(self):
        if not _is_plain_stem(self.name):
            raise ValidationError(f"scenario name {self.name!r} is not a plain file stem")
        for i, task in enumerate(self.tasks):
            if task not in TASKS:
                raise ValidationError(f"unknown task '{task}'")
            if task in self.tasks[:i]:
                raise ValidationError(f"task '{task}' is listed more than once")
        if "compare_stopping" in self.tasks:
            if self.x_star is None:
                raise ValidationError("task 'compare_stopping' requires field 'x_star'")
            _check_delta(self.delta)
        if "brute_force" in self.tasks and self.grid is None:
            raise ValidationError("task 'brute_force' requires field 'grid'")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.moduli is not None:
            _check_lemma22_constants(*self.moduli)
        _check_inputs(self.operator, self.set_, self.map_s,
                      x0=self.x0, x_star=self.x_star, anchor=self.anchor)
        if any(task in SOLVER_TASKS for task in self.tasks):
            _check_step(self.operator, self.config)

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        """Parse a decoded scenario; a missing, mistyped or inconsistent field
        raises ValidationError or ConfigurationError."""
        if not isinstance(doc, dict):
            raise ValidationError("scenario must be a JSON object")
        try:
            tasks = _field(doc, "tasks", "scenario", list, "an array of task names")
            operator = _field(doc, "operator", "scenario")
            set_ = _set(_field(doc, "set", "scenario"))
            config = _field(doc, "config", "scenario")
            schedule = config.get("anchor_schedule")
            moduli = doc.get("moduli")
            return cls(
                name=_field(doc, "name", "scenario", str, "a string"),
                operator=AffineOperator(
                    matrix=_field(operator, "matrix", "operator spec"),
                    offset=_field(operator, "offset", "operator spec"),
                ),
                set_=set_,
                config=IterationConfig(
                    step=float(_number(config, "lambda", "config")),
                    anchor_schedule=AnchorSchedule() if schedule is None else AnchorSchedule(**{
                        k: v if k == "rule" else _number(schedule, k, "anchor_schedule")
                        for k, v in schedule.items() if k in _SCHEDULE_KEYS}),
                    max_iters=int(_number(config, "max_iters", "config", DEFAULT_MAX_ITERS)),
                    residual_tol=float(_number(config, "tol", "config", DEFAULT_RESIDUAL_TOL)),
                ),
                x0=_read_only(_field(doc, "x0", "scenario")),
                tasks=tuple(tasks),
                seed=int(_number(config, "seed", "config", 0)),
                map_s=_map(doc.get("map_s")),
                x_star=_vector(doc.get("x_star")),
                anchor=_vector(doc.get("anchor")),
                moduli=None if moduli is None else tuple(
                    float(_number(moduli, key, "moduli spec")) for key in ("m", "v", "eps")),
                grid=_grid(doc.get("grid"), set_, tasks),
                delta=float(_number(doc, "delta", "scenario", DEFAULT_COMPARISON_DELTA)),
            )
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"mistyped scenario field: {exc}") from exc


def _field(doc, key: str, where: str, of: type = object, kind: str = ""):
    """``doc[key]``; a missing key, or a value not of type ``of`` (``kind`` in words),
    raises ValidationError naming ``where``."""
    try:
        value = doc[key]
    except KeyError:
        raise ValidationError(f"{where} missing field '{key}'") from None
    if not isinstance(value, of):
        raise ValidationError(f"{where} field '{key}' must be {kind}, got {json.dumps(value)[:40]}")
    return value


def _number(doc, key: str, where: str, default=None):
    """``doc[key]`` (``default``, if given, for a missing key) if it is a JSON number, not
    a boolean or a string, integral for max_iters, seed and dim; else ValidationError."""
    value = _field(doc, key, where) if default is None else doc.get(key, default)
    integral = key in ("max_iters", "seed", "dim")
    if type(value) not in (int, float) or (integral and value % 1):
        kind = "an integer" if integral else "a number"
        raise ValidationError(f"{where} field '{key}' must be {kind}, got {json.dumps(value)[:40]}")
    return value


def _vector(value) -> np.ndarray | None:
    return None if value is None else _read_only(value)


def _set(doc) -> ConvexSet:
    kind = _field(doc, "type", "set spec")
    if kind not in _SET_TYPES:
        raise ValidationError(f"unknown set type '{kind}'")
    make, keys = _SET_TYPES[kind]
    where = f"set spec of type '{kind}'"
    return make(*((_number if key in ("radius", "offset", "dim") else _field)(doc, key, where)
                  for key in keys))


def _grid(doc, set_: ConvexSet, tasks) -> BruteForceGrid | None:
    """The oracle's grid, built only for a task that runs the oracle:
    brute_force, or verify_lemma31 on a set the oracle supports."""
    if doc is None or not ("brute_force" in tasks or (
            "verify_lemma31" in tasks and isinstance(set_, GRID_SET_TYPES))):
        return None
    return BruteForceGrid(
        set_=set_,
        h=float(_number(doc, "h", "grid spec")),
        vi_tolerance=float(_number(doc, "vi_tolerance", "grid spec", BruteForceGrid.vi_tolerance)),
    )


def _map(doc) -> NonexpansiveMap:
    kind = "identity" if doc is None else _field(doc, "type", "map_s spec")
    if kind == "identity":
        return Identity()
    if kind == "projection":
        return ProjectionOnto(_set(_field(doc, "set", "projection map spec")))
    if kind == "affine_average":
        where = "affine_average map spec"
        return AffineAverage(t=float(_number(doc, "t", where)),
                             fixed_point=_field(doc, "fixed_point", where))
    raise ValidationError(f"unknown nonexpansive map type '{kind}'")


# The longest output file name: mkstemp's for "<name>.compare_stopping.trace.csv",
# which adds 8 random characters and ".tmp"; a file name holds at most 255 bytes.
_MAX_NAME_BYTES = 255 - max(len(f".{task}.trace.csvXXXXXXXX.tmp") for task in SOLVER_TASKS)


def _is_plain_stem(name) -> bool:
    """True iff ``name`` is a string and output files named after it stay inside the
    output directory and each of their names encodes to at most 255 bytes."""
    with suppress(UnicodeEncodeError):
        return (isinstance(name, str) and len(os.fsencode(name)) <= _MAX_NAME_BYTES
                and name not in ("", ".", "..") and not any(c in name for c in "/\\\0"))
    return False


def _stem_name(doc, path: Path) -> str:
    """The decoded file's ``name`` when that is a plain stem, else the file's stem
    cut at a character boundary to at most _MAX_NAME_BYTES bytes."""
    name = doc.get("name") if isinstance(doc, dict) else None
    stem = path.stem
    while len(os.fsencode(stem)) > _MAX_NAME_BYTES:
        stem = stem[:-1]
    return name if _is_plain_stem(name) else stem


# orjson's value is json's if it nests at most _FAST_DEPTH deep (json's limit is
# ~1000) and has no number of magnitude >= 2**63 (orjson's float for a wider int).
# orjson recurses on the C stack (~160 bytes a level), so it reads only a file of
# at most _FAST_BRACKETS "[" and "{", a bound on the depth; ~0.65 MB of stack.
_FAST_DEPTH, _FAST_MAGNITUDE, _FAST_BRACKETS = 64, 2.0**63, 4096


def _same_as_json(value, depth: int = 0) -> bool:
    """True when orjson's decoded ``value`` is certainly what json would decode."""
    value = list(value.values()) if isinstance(value, dict) else value
    if not isinstance(value, list):
        return not isinstance(value, (int, float)) or abs(value) < _FAST_MAGNITUDE
    if depth == _FAST_DEPTH:
        return False
    if value and type(value[0]) in (int, float):
        with suppress(TypeError, OverflowError):  # a non-number or a larger row: item by item
            if math.hypot(*value) < _FAST_MAGNITUDE / 2:  # hypot >= max|item|, to an ulp
                return True
    return all(_same_as_json(item, depth + 1) for item in value)


def _read_json(path: Path) -> tuple[object, str | None]:
    """(the file's bytes decoded as strict UTF-8 JSON, None), or (None, why not); json
    decodes where orjson refuses the file or its value might differ from json's."""
    try:
        data = path.read_bytes()
        raw = np.frombuffer(data, np.uint8)
        if np.count_nonzero(raw == ord("[")) + np.count_nonzero(raw == ord("{")) <= _FAST_BRACKETS:
            with suppress(orjson.JSONDecodeError):
                if _same_as_json(doc := orjson.loads(data)):
                    return doc, None
        return json.loads(data.decode("utf-8")), None
    except json.JSONDecodeError as exc:
        return None, f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
    except UnicodeDecodeError as exc:
        return None, f"scenario {path} is not UTF-8: {exc}"
    except ValueError as exc:  # an integer of more digits than int() converts
        return None, f"scenario {path} holds an integer too long to decode: {exc}"
    except RecursionError:
        return None, f"malformed JSON in {path}: nested too deeply to decode"
    except OSError as exc:
        return None, f"cannot read scenario: {exc}"


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


def _csv_lines(trace: IterationTrace, x_star=None) -> list[str]:
    """The trace CSV's header, then one line per row."""
    header = "n,r_n,s_n,bound_n"
    values = [trace.natural_residuals, trace.operator_residuals, trace.shortcut_bounds]
    if x_star is not None:
        header += ",dist_n"
        values.append(trace.distances_to(x_star))
    columns = [map(str, range(trace.rows))] + [
        [""] * trace.rows if v is None else map(repr, v.tolist()) for v in values]
    return [header, *map(",".join, zip(*columns))]


def write_trace_csv(path: Path, trace: IterationTrace, x_star=None) -> None:
    """Columns in order: n, r_n, s_n, bound_n, dist_n (dist_n only with x_star)."""
    _atomic_write(path, "\n".join([*_csv_lines(trace, x_star), ""]))


def _run_tasks(scenario: Scenario, records: dict, reports: list, files: dict) -> None:
    """Run the tasks in order; each adds its record, reports and CSV text, and none writes."""
    op, seed, set_, cfg = scenario.operator, scenario.seed, scenario.set_, scenario.config

    @functools.cache
    def result(task: str):
        """What ``task`` computes, made on first use: brute_force's grid solutions, or a solver
        task's record or trace and CSV lines; solve_pg's is the prefix of compare_stopping's
        run past residual_tol when that task is listed and its run succeeds."""
        if task == "brute_force":
            return brute_force_vi(op, scenario.grid)
        if task == "compare_stopping":
            record = compare_stopping(op, set_, cfg, scenario.x0, scenario.x_star, scenario.delta)
            return record, _csv_lines(record.trace, scenario.x_star)
        if task == "solve_halpern":
            trace = solve_halpern(op, set_, scenario.map_s, cfg, scenario.x0,
                                  anchor=scenario.anchor, x_ref=scenario.x_star)
            return trace, _csv_lines(trace, scenario.x_star)
        if "compare_stopping" in scenario.tasks:
            with suppress(VikitError):  # then solve_pg's own solve decides
                record, lines = result("compare_stopping")
                trace = record.trace.until(cfg.residual_tol)
                return trace, lines[: trace.rows + 1]
        trace = solve_projected_gradient(op, set_, cfg, scenario.x0, x_ref=scenario.x_star)
        return trace, _csv_lines(trace, scenario.x_star)

    try:
        for task in scenario.tasks:
            if task in SOLVER_TASKS:
                run, lines = result(task)
                if task == "compare_stopping":
                    fields = {k: getattr(run, k)
                              for k in ("delta", "shortcut_iteration", "natural_iteration")}
                else:
                    fields = {"status": run.status, "iterations": int(run.rows - 1),
                              "final": run.final.tolist(),
                              "final_residual": float(run.natural_residuals[-1])}
                csv_name = f"{scenario.name}.{task}.trace.csv"
                files[csv_name] = "\n".join([*lines, ""])
                records[task] = {**fields, "trace_csv": csv_name}

            elif task == "verify_lemma22":
                if scenario.moduli is None:
                    certified = certify_moduli(op)
                    m, v, eps = 0.0, certified.strong_monotonicity, certified.lipschitz
                else:
                    m, v, eps = scenario.moduli
                report, gamma = lemma_cocoercive_expansive(op, m, v, eps)
                reports.append(report)
                records[task] = {"gamma": gamma if np.isfinite(gamma) else None,
                                 "report": report.as_dict()}

            elif task == "verify_lemma31":
                certified = certify_moduli(op)
                if certified.ism_alpha is None or certified.expansiveness <= 0.0:
                    task_reports = [VerificationReport(
                        property="ism_expansive_singleton",
                        status=PRECONDITION_VIOLATED,
                        seed=seed,
                        note="operator lacks a certified ism modulus or is not expansive",
                    )]
                else:
                    task_reports = [
                        check_ism(op, certified.ism_alpha),
                        check_expansive(op, certified.expansiveness),
                    ]
                    if scenario.grid is not None:
                        task_reports.append(
                            check_singleton_vi(result("brute_force"), scenario.grid, seed=seed))
                reports.extend(task_reports)
                records[task] = {"reports": [r.as_dict() for r in task_reports]}

            elif task == "brute_force":
                solutions = result(task)
                records[task] = {"solutions": solutions.tolist(), "count": int(solutions.shape[0])}
    finally:  # result refers to itself: break that cycle to free the scenario now, not at gc
        del result


def run_scenario(
    path, out_dir, seed: int | None = None, max_iters: int | None = None
) -> int:
    """Execute one scenario file; write into out_dir traces and a reports.json naming them."""
    path = Path(path)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_BAD_JSON
    doc, reason = _read_json(path)
    if reason is not None:
        print(reason, file=sys.stderr)
        return EXIT_BAD_JSON

    overrides = {"seed": seed, "max_iters": max_iters}
    status = EXIT_OK
    records: dict = {}
    reports: list[VerificationReport] = []
    files: dict[str, str] = {}
    error: str | None = None
    name = _stem_name(doc, path)  # the report's name, even if the scenario fails to parse
    try:
        scenario = Scenario.from_dict(doc)
        if seed is not None:
            scenario = replace(scenario, seed=seed)
        if max_iters is not None:
            scenario = replace(scenario, config=replace(scenario.config, max_iters=max_iters))
        _run_tasks(scenario, records, reports, files)
    except VikitError as exc:
        error = str(exc)
        status = EXIT_DIVERGENCE if isinstance(exc, DivergenceError) else EXIT_PRECONDITION

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
    files[f"{name}.reports.json"] = json.dumps(payload, indent=2) + "\n"
    for file_name, text in files.items():
        _atomic_write(out_dir / file_name, text)
    return status


def golden_dir() -> Path:
    return Path(__file__).with_name("scenarios")


def golden_path(name: str) -> Path:
    return golden_dir() / f"{name}.json"


def list_golden() -> list[tuple[str, str]]:
    """Names and descriptions of the bundled goldens, each read and named as by run."""
    entries = []
    for item in sorted(golden_dir().glob("*.json")):
        doc, reason = _read_json(item)
        unreadable = reason is not None or not isinstance(doc, dict)
        entries.append((_stem_name(doc, item), "(unreadable scenario file)" if unreadable
                        else str(doc.get("description", ""))))
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
