"""Run the same scenario files under two source trees and report every difference.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  Each
input runs as ``python3 -W default -m vikit.cli run FILE --out out`` under
each tree, once as written and once with ``--seed 5``.  The inputs are the
bundled goldens (read from CHANGE_SRC), perfbench's ``golden``, ``small_n``
and ``large_n`` files at seed 1, and a fixed list of probes: valid variants
of every set and map type, every array field of ``operator``, ``set`` and
``map_s`` broken four ways (a NaN or 1e400 literal, which only the json
decoder reads, one axis too few or too many), a task listed twice, a
``name`` that is not a string, a ``description`` of 7 or null, a ``map_s``
without ``type``, a finite ``x_star`` whose image overflows, a box far from
the origin whose every grid node solves the VI, one far from the origin whose
solution is its grid's upper corner, and one probe per edge of the decoder's
guard (see ``_decoder_probes``).

A run differs when its exit code, stdout, stderr (with each tree's path
written as SRC), set of output files or any file's bytes differ.  Every
differing run is printed, then each tree's ``vikit/*.py`` line count (as
``wc -l`` counts); the exit code is 1 if any run differs, else 0.
Needs the standard library and perfbench's numpy-only ``workloads.py``.
"""

from __future__ import annotations

import argparse
import copy
import difflib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

WORKLOAD_SEED = 1
SEED_OVERRIDES = (None, 5)
JOBS = 2
NAN, HUGE = "<NaN>", "<1e400>"  # written into the file as the bare literals NaN and 1e400

BALL = {"type": "ball", "center": [0.5, 0.5], "radius": 1.0}
HALFSPACE = {"type": "halfspace", "normal": [1.0, 1.0], "offset": 1.0}
AFFINE = {"type": "affine", "basepoint": [0.0, 0.0], "orthonormal_basis": [[1.0, 0.0]]}
AVERAGE = {"type": "affine_average", "t": 0.5, "fixed_point": [0.5, 0.5]}
PROJECTION = {"type": "projection", "set": {"type": "box", "lower": [0.0, 0.0],
                                           "upper": [1.0, 1.0]}}
NO_GRID_TASKS = ["solve_pg", "solve_halpern", "verify_lemma22", "verify_lemma31",
                 "compare_stopping"]

# (probe name, changes to box_diag) for the valid bases the array probes break.
BASES = {
    "box": {},
    "ball": {"set": BALL, "tasks": NO_GRID_TASKS},
    "halfspace": {"set": HALFSPACE, "tasks": NO_GRID_TASKS},
    "affine": {"set": AFFINE, "tasks": NO_GRID_TASKS},
    "average": {"map_s": AVERAGE},
    "projection": {"map_s": PROJECTION},
}
# (base, path to an array field)
ARRAY_FIELDS = [
    ("box", ("operator", "matrix")),
    ("box", ("operator", "offset")),
    ("box", ("set", "lower")),
    ("box", ("set", "upper")),
    ("ball", ("set", "center")),
    ("halfspace", ("set", "normal")),
    ("affine", ("set", "basepoint")),
    ("affine", ("set", "orthonormal_basis")),
    ("average", ("map_s", "fixed_point")),
    ("projection", ("map_s", "set", "lower")),
]
# Probes whose rules overlap: which message comes first.
MIXED = {
    "nan-non-square-matrix": {"operator": {"matrix": [[NAN, 0.0]], "offset": [0.0]}},
    "nan-unequal-box": {"set": {"type": "box", "lower": [NAN], "upper": [1.0, 1.0]}},
    "affine-point": {"set": dict(AFFINE, orthonormal_basis=[]), "tasks": NO_GRID_TASKS},
    "int-arrays": {"operator": {"matrix": [[2, 0], [0, 1]], "offset": [-2, 1]},
                   "set": {"type": "box", "lower": [0, 0], "upper": [1, 1]}},
    "tasks-verify_lemma22-twice": {"tasks": ["verify_lemma22", "verify_lemma22"]},
    "tasks-solve_pg-twice": {"tasks": ["solve_pg", "solve_pg"]},
    "name-null": {"name": None},
    "name-true": {"name": True},
    "name-7": {"name": 7},
    "map-no-type": {"map_s": {}},
    "description-7": {"description": 7},
    "description-null": {"description": None},
    # finite, but A x_star = (2e308 - 2, 1) is not
    "x_star-image-overflow": {"x_star": [1e308, 0.0]},
    # A = 1e-12 (x - c) on [1e6, 1e6 + 0.005]^2, c its centre: all 36 nodes solve the VI
    "singleton-shift": {
        "operator": {"matrix": [[1e-12, 0.0], [0.0, 1e-12]],
                     "offset": [-1e-12 * (1e6 + 0.0025)] * 2},
        "set": {"type": "box", "lower": [1e6, 1e6], "upper": [1e6 + 0.005, 1e6 + 0.005]},
        "grid": {"h": 1e-3, "vi_tolerance": 1e-9}, "tasks": ["brute_force", "verify_lemma31"]},
    # A ~ (-1, -1) on [1e8 + 0.3, 1e8 + 0.3 + 0.35] x [0.3, 0.65] at h = 0.05: the solution
    # is the upper corner, a node only if the far axis keeps all 8 of its nodes
    "grid-far-box": {
        "operator": {"matrix": [[1e-12, 0.0], [0.0, 1e-12]],
                     "offset": [-1.0 - 1e-12 * (1e8 + 0.3 + 0.35), -1.0 - 1e-12 * 0.65]},
        "set": {"type": "box", "lower": [1e8 + 0.3, 0.3], "upper": [1e8 + 0.3 + 0.35, 0.65]},
        "grid": {"h": 0.05, "vi_tolerance": 1e-9}, "tasks": ["brute_force", "verify_lemma31"]},
}


# cli._read_json keeps orjson's value only for a file with at most 4096 "[" and "{",
# nested at most 64 levels (the top-level object is one) and with no number of
# magnitude 2**63 or more; json decodes the rest.  Matrix entries at the edges:
MATRIX_EDGES = {"int-2pow63-minus-1": 2**63 - 1, "int-2pow63": 2**63, "int-2pow64": 2**64,
                "float-2pow62": 2.0**62}


def _nested(levels: int) -> list:
    """A field value that makes a scenario file nest ``levels`` deep."""
    value = [1.0]
    for _ in range(levels - 2):
        value = [value]
    return value


def _decoder_probes(box_diag: dict) -> dict[str, dict]:
    """Probe name -> box_diag with one value at an edge of the decoder's guard."""
    docs = {}
    for label, value in MATRIX_EDGES.items():
        doc = copy.deepcopy(box_diag)
        doc["operator"]["matrix"][0][1] = value
        docs[f"probe-matrix-{label}"] = doc
    doc = copy.deepcopy(box_diag)
    doc["config"]["seed"] = 2**64
    docs["probe-seed-2pow64"] = doc
    for levels in (64, 65):
        docs[f"probe-unread-depth-{levels}"] = dict(copy.deepcopy(box_diag), notes=_nested(levels))
    for brackets in (4096, 4097):
        doc = dict(copy.deepcopy(box_diag), notes=[])
        text = json.dumps(doc)  # the probe's name, set later, holds no bracket
        doc["notes"] = [[] for _ in range(brackets - text.count("[") - text.count("{"))]
        docs[f"probe-brackets-{brackets}"] = doc
    return docs


def _broken(value: list, case: str):
    """``value``, a vector or matrix the caller owns, broken as ``case`` says."""
    if case == "axis-too-few":
        return value[0]
    if case == "axis-too-many":
        return [value]
    row = value[-1] if isinstance(value[-1], list) else value
    row[-1] = NAN if case == "nan" else HUGE
    return value


def _probes(box_diag: dict) -> dict[str, dict]:
    """Probe name -> scenario document, every one a variant of box_diag."""
    docs = {}
    for name, changes in [*BASES.items(), *MIXED.items()]:
        docs[f"probe-{name}"] = dict(copy.deepcopy(box_diag), **copy.deepcopy(changes))
    for base, path in ARRAY_FIELDS:
        for case in ("nan", "huge", "axis-too-few", "axis-too-many"):
            doc = copy.deepcopy(docs[f"probe-{base}"])
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = _broken(parent[path[-1]], case)
            docs[f"probe-{'.'.join(path)}-{case}"] = doc
    return docs | _decoder_probes(box_diag)


def write_inputs(change_src: Path, directory: Path) -> list[Path]:
    """Every input file, written under ``directory``."""
    goldens = directory / "goldens"
    goldens.mkdir(parents=True)
    for path in sorted((change_src / "vikit" / "scenarios").glob("*.json")):
        (goldens / path.name).write_bytes(path.read_bytes())
    inputs = sorted(goldens.glob("*.json"))
    for name, make in workloads.WORKLOADS.items():
        (directory / name).mkdir()
        for entry in make(WORKLOAD_SEED, directory / name, goldens):
            if Path(entry.path) not in inputs:
                inputs.append(Path(entry.path))
    (directory / "probes").mkdir()
    box_diag = json.loads((goldens / "box_diag.json").read_text())
    del box_diag["name"]  # a probe is named after itself unless it sets a name
    for name, doc in _probes(box_diag).items():
        doc = {"name": name} | doc
        text = json.dumps(doc).replace(f'"{NAN}"', "NaN").replace(f'"{HUGE}"', "1e400")
        path = directory / "probes" / f"{name}.json"
        path.write_text(text)
        inputs.append(path)
    return inputs


def run(src: Path, scenario: Path, seed: int | None, work: Path) -> dict:
    """One run's exit code, stdout, stderr and output files (name -> bytes)."""
    work.mkdir(parents=True)
    command = [sys.executable, "-W", "default", "-m", "vikit.cli", "run", str(scenario),
               "--out", "out"]
    if seed is not None:
        command += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)
    out = work / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit": proc.returncode, "stdout": proc.stdout.replace(str(src), "SRC"),
            "stderr": proc.stderr.replace(str(src), "SRC"), "files": files}


def _diff(before: str, after: str) -> list[str]:
    """The changed lines of ``before`` -> ``after``, indented, without the file headers."""
    lines = difflib.unified_diff(before.splitlines(), after.splitlines(), lineterm="", n=0)
    return ["    " + line for line in list(lines)[2:]]


def differences(parent: dict, change: dict) -> list[str]:
    """What differs between two runs, one line (or text diff) per item."""
    lines = []
    if parent["exit"] != change["exit"]:
        lines.append(f"  exit code {parent['exit']} -> {change['exit']}")
    for stream in ("stdout", "stderr"):
        if parent[stream] != change[stream]:
            lines += [f"  {stream}:", *_diff(parent[stream], change[stream])]
    if parent["files"].keys() != change["files"].keys():
        lines.append(f"  files {sorted(parent['files'])} -> {sorted(change['files'])}")
    for name in sorted(parent["files"].keys() & change["files"].keys()):
        before, after = parent["files"][name], change["files"][name]
        if before != after:
            lines += [f"  {name} differs:", *_diff(before.decode(errors="replace"),
                                                   after.decode(errors="replace"))]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the parent tree")
    parser.add_argument("change_src", type=Path, help="src directory of the changed tree")
    args = parser.parse_args(argv)
    trees = (args.parent_src.resolve(), args.change_src.resolve())
    with tempfile.TemporaryDirectory(prefix="same_outputs.") as tmp:
        inputs = write_inputs(trees[1], Path(tmp) / "inputs")
        cases = [(i, path, seed) for i, path in enumerate(inputs) for seed in SEED_OVERRIDES]

        def both(case):
            i, path, seed = case
            return [run(src, path, seed, Path(tmp) / "runs" / f"{i}-{seed}-{side}")
                    for side, src in enumerate(trees)]

        differing = 0
        with ThreadPoolExecutor(JOBS) as pool:
            for (_, path, seed), (parent, change) in zip(cases, pool.map(both, cases)):
                lines = differences(parent, change)
                if lines:
                    differing += 1
                    print(f"{path.parent.name}/{path.name} seed={seed}:", *lines, sep="\n")
    print(f"{differing} of {len(cases)} runs differ ({len(inputs)} inputs x "
          f"{len(SEED_OVERRIDES)} seed settings)")
    for side, src in zip(("parent", "change"), trees):
        lines = sum(path.read_bytes().count(b"\n") for path in (src / "vikit").glob("*.py"))
        print(f"{side} {src}/vikit: {lines} lines")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
