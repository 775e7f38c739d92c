"""Seeded scenario generators for the benchmark workloads.

Every generated scenario has a known solution x_star of VI(C, A).  The
generator picks x_star in C and a vector w in the normal cone N_C(x_star),
then sets the offset q = -M x_star - w, so A x_star = -w and
<A x_star, y - x_star> >= 0 for every y in C.  M is strongly monotone, so
x_star is the unique solution.

M = Q B Q^T, where Q is a seeded random rotation and B is block diagonal with
2x2 blocks [[d, -k], [k, d]] whose (d, k) values are fixed per workload.  The
seed therefore changes the instance (rotation, set, solution, start point)
but not the spectrum, which sets the iteration count and so the amount of
work.  The solver step is half the certified limit 2 * alpha = 2 mu / L^2.

This module needs numpy only; it never imports vikit.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDEN_NAMES = ("box_diag", "box_identity", "box_rotation", "simplex_rotation")
SET_TYPES = ("box", "ball", "halfspace", "simplex", "affine")
MAP_KINDS = ("identity", "projection", "affine_average")
ANCHOR_RULES = {
    "harmonic": {"rule": "harmonic"},
    "power": {"rule": "power", "scale": 1.0, "exponent": 3.0},
    "geometric": {"rule": "geometric", "scale": 1.0, "ratio": 0.5},
}
ALL_TASKS = (
    "solve_pg",
    "solve_halpern",
    "verify_lemma22",
    "verify_lemma31",
    "brute_force",
    "compare_stopping",
)
SOLVER_TASKS = ("solve_pg", "solve_halpern", "compare_stopping")


@dataclass
class Entry:
    """One scenario file of a workload plus what its checks need."""

    name: str
    path: str
    x_star: list
    tasks: list
    residual_factor: float  # |x - x_star| <= residual_factor * r(x), see below
    seed_override: int | None = None
    grid_h: float | None = None


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def _rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _block_matrix(rng, n: int, d_range: tuple, k_max: float) -> np.ndarray:
    """Q B Q^T with 2x2 blocks [[d, -k], [k, d]]: d rises from d_range[0] to
    d_range[1] while k falls from k_max to 0, so the slowest mode of the
    projected-gradient map is the first block's."""
    blocks = n // 2
    b = np.zeros((n, n))
    ds = np.linspace(d_range[0], d_range[1], max(blocks, 1))
    ks = np.linspace(k_max, 0.0, max(blocks, 1))
    for j in range(blocks):
        i = 2 * j
        b[i, i] = b[i + 1, i + 1] = ds[j]
        b[i, i + 1], b[i + 1, i] = -ks[j], ks[j]
    if n % 2:
        b[-1, -1] = d_range[1]
    q = _rotation(rng, n)
    return q @ b @ q.T


def _moduli(matrix: np.ndarray) -> tuple[float, float]:
    """(mu, L): strong monotonicity lambda_min((M + M^T)/2) and sigma_max(M)."""
    mu = float(np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0])
    return mu, float(np.linalg.svd(matrix, compute_uv=False)[0])


def _residual_factor(mu: float, lip: float, step: float) -> float:
    """C with |x - x*| <= C * r(x) for every x, where r(x) = |x - P_C(x - step*A x)|
    is the natural residual, A is mu-strongly monotone and L-Lipschitz.

    From the projection inequality and the VI at x*:
    step*mu*d^2 <= (1 + step*L)*d*r + r^2, so d <= C*r with C the positive
    root of step*mu*C^2 - (1 + step*L)*C - 1.  It needs no x*, so it checks
    a solver's final iterate independently of the program's bound_n.
    """
    a, b = step * mu, 1.0 + step * lip
    return (b + np.sqrt(b * b + 4.0 * a)) / (2.0 * a)


def _unit(rng, n: int) -> np.ndarray:
    u = rng.standard_normal(n)
    return u / np.linalg.norm(u)


def _set_with_solution(rng, kind: str, n: int):
    """(set spec, x_star, w) with w in the normal cone of the set at x_star."""
    if kind == "box":
        lower = -rng.uniform(0.5, 1.5, n)
        upper = rng.uniform(0.5, 1.5, n)
        x_star = lower + (upper - lower) * rng.uniform(0.2, 0.8, n)
        w = np.zeros(n)
        active = rng.permutation(n)[: n // 2]
        at_upper = rng.random(active.size) < 0.5
        for i, up in zip(active, at_upper):
            x_star[i] = upper[i] if up else lower[i]
            w[i] = rng.uniform(0.5, 1.5) * (1.0 if up else -1.0)
        spec = {"type": "box", "lower": lower.tolist(), "upper": upper.tolist()}
        return spec, x_star, w
    if kind == "ball":
        center = rng.uniform(-1.0, 1.0, n)
        radius = float(rng.uniform(1.0, 2.0))
        u = _unit(rng, n)
        spec = {"type": "ball", "center": center.tolist(), "radius": radius}
        return spec, center + radius * u, rng.uniform(0.5, 1.5) * u
    if kind == "halfspace":
        normal = _unit(rng, n)
        x_star = rng.uniform(-1.0, 1.0, n)
        spec = {"type": "halfspace", "normal": normal.tolist(), "offset": float(normal @ x_star)}
        return spec, x_star, rng.uniform(0.5, 1.5) * normal
    if kind == "simplex":
        support = rng.permutation(n)[: n - n // 3]
        x_star = np.zeros(n)
        x_star[support] = rng.dirichlet(np.ones(support.size))
        w = np.full(n, rng.uniform(-1.0, 1.0))
        off = np.setdiff1d(np.arange(n), support)
        w[off] -= rng.uniform(0.5, 1.5, off.size)
        return {"type": "simplex", "dim": n}, x_star, w
    if kind == "affine":
        k = max(1, n // 2)
        basis = np.linalg.qr(rng.standard_normal((n, k)))[0].T
        basepoint = rng.uniform(-1.0, 1.0, n)
        x_star = basepoint + rng.uniform(-1.0, 1.0, k) @ basis
        g = rng.standard_normal(n)
        w = g - (basis @ g) @ basis
        spec = {
            "type": "affine",
            "basepoint": basepoint.tolist(),
            "orthonormal_basis": basis.tolist(),
        }
        return spec, x_star, w
    raise ValueError(f"unknown set type {kind}")


def _map_spec(rng, kind: str, x_star: np.ndarray) -> dict:
    """A nonexpansive map with x_star among its fixed points."""
    if kind == "identity":
        return {"type": "identity"}
    if kind == "projection":
        lower = x_star - rng.uniform(0.1, 1.0, x_star.size)
        upper = x_star + rng.uniform(0.1, 1.0, x_star.size)
        return {
            "type": "projection",
            "set": {"type": "box", "lower": lower.tolist(), "upper": upper.tolist()},
        }
    return {"type": "affine_average", "t": 0.5, "fixed_point": x_star.tolist()}


def _write(directory: Path, doc: dict) -> str:
    path = directory / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _scenario(name, matrix, set_spec, x_star, w, x0, tasks, config, **extra) -> dict:
    doc = {
        "name": name,
        "description": "generated benchmark scenario",
        "operator": {"matrix": matrix.tolist(), "offset": (-(matrix @ x_star) - w).tolist()},
        "set": set_spec,
        "config": config,
        "x0": x0.tolist(),
        "x_star": x_star.tolist(),
        "delta": 1e-6,
        "tasks": list(tasks),
    }
    doc.update(extra)
    return doc


# -- golden ------------------------------------------------------------------

GOLDEN_FORM_BOX_H = 0.02
GOLDEN_FORM_SIMPLEX_H = 0.01
GOLDEN_FORM_BOXES = 8
GOLDEN_FORM_SIMPLICES = 4


def _golden_form(rng, name: str, kind: str, variant: int, seed: int) -> tuple[dict, Entry]:
    """A 2-D scenario shaped like the bundled goldens, x_star on a grid node."""
    if variant % 2:
        matrix = _block_matrix(rng, 2, (1.0, 1.0), 1.0)  # scaled rotation
    else:
        q = _rotation(rng, 2)
        matrix = q @ np.diag([2.0, 1.0]) @ q.T
    if kind == "box":
        h = GOLDEN_FORM_BOX_H
        steps = int(np.floor(1.0 / h + 1e-9))
        nodes = 0.0 + h * np.arange(steps + 1)  # the grid's own arithmetic
        idx = rng.integers(1, steps, size=2)
        w = np.zeros(2)
        side = int(rng.integers(0, 3))  # interior, or one coordinate on a face
        if side:
            axis = int(rng.integers(0, 2))
            idx[axis] = 0 if side == 1 else steps
            w[axis] = -1.0 if side == 1 else 1.0
            w[axis] *= rng.uniform(0.5, 1.5)
        x_star = nodes[idx]
        set_spec = {"type": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}
        x0 = rng.integers(0, 2, size=2).astype(float)  # a corner, as in the goldens
    else:
        h = GOLDEN_FORM_SIMPLEX_H
        k = int(round(1.0 / h))
        c = int(rng.integers(1, k))
        x_star = np.array([c, k - c], dtype=float) * h  # the grid's own arithmetic
        w = np.full(2, rng.uniform(-1.0, 1.0))
        set_spec = {"type": "simplex", "dim": 2}
        x0 = np.eye(2)[int(rng.integers(0, 2))]
    mu, lip = _moduli(matrix)
    config = {
        "lambda": mu / lip**2,  # half the certified limit 2 * alpha, alpha = mu / L^2
        "max_iters": 10000,
        "tol": 1e-8,
        "seed": seed,
        "anchor_schedule": ANCHOR_RULES["geometric"],
    }
    doc = _scenario(
        name, matrix, set_spec, x_star, w, x0, ALL_TASKS, config,
        map_s={"type": "identity"}, grid={"h": h, "vi_tolerance": 1e-9},
    )
    entry = Entry(name=name, path="", x_star=x_star.tolist(), tasks=list(ALL_TASKS),
                  residual_factor=_residual_factor(mu, lip, config["lambda"]), grid_h=h)
    return doc, entry


def golden(seed: int, directory: Path, golden_dir: Path) -> list[Entry]:
    """The four bundled goldens, run with the workload seed as the seed
    override, interleaved with generated 2-D box and simplex scenarios."""
    rng = _rng(seed, "golden")
    bundled = []
    for name in GOLDEN_NAMES:
        doc = json.loads((golden_dir / f"{name}.json").read_text())
        bundled.append(Entry(
            name=doc["name"], path=str(golden_dir / f"{name}.json"), x_star=doc["x_star"],
            tasks=list(doc["tasks"]), seed_override=seed, grid_h=float(doc["grid"]["h"]),
            residual_factor=_residual_factor(
                *_moduli(np.array(doc["operator"]["matrix"])), doc["config"]["lambda"]),
        ))
    generated = []
    kinds = ["box"] * GOLDEN_FORM_BOXES + ["simplex"] * GOLDEN_FORM_SIMPLICES
    for i, kind in enumerate(kinds):
        doc, entry = _golden_form(rng, f"golden_{kind}_{i:02d}", kind, i, seed)
        entry.path = _write(directory, doc)
        generated.append(entry)
    # Spread the expensive bundled box goldens evenly over the cycle.
    order, per = [], len(generated) // len(bundled)
    for i, entry in enumerate(bundled):
        order.append(entry)
        order.extend(generated[i * per:(i + 1) * per])
    return order


# -- small_n / large_n ---------------------------------------------------------

def _solver_scenario(rng, name, n, set_type, map_kind, rule, tasks, k_max, max_iters, seed):
    matrix = _block_matrix(rng, n, (1.0, 2.0), k_max)
    set_spec, x_star, w = _set_with_solution(rng, set_type, n)
    x0 = x_star + 2.0 * _unit(rng, n)
    mu, lip = _moduli(matrix)
    config = {
        "lambda": mu / lip**2,  # half the certified limit 2 * alpha
        "max_iters": max_iters,
        "tol": 1e-8,
        "seed": seed,
        "anchor_schedule": ANCHOR_RULES[rule],
    }
    doc = _scenario(name, matrix, set_spec, x_star, w, x0, tasks, config,
                    map_s=_map_spec(rng, map_kind, x_star))
    entry = Entry(name=name, path="", x_star=x_star.tolist(), tasks=list(tasks),
                  residual_factor=_residual_factor(mu, lip, config["lambda"]))
    return doc, entry


SMALL_DIMS = (2, 3, 10, 50)
SMALL_K_MAX = 4.5
SMALL_MAX_ITERS = 1500


def small_n(seed: int, directory: Path, golden_dir: Path) -> list[Entry]:
    """Every (n, set type) pair for n in SMALL_DIMS; map kinds and anchor rules
    rotate so each set type meets each of them."""
    rng = _rng(seed, "small_n")
    rules = tuple(ANCHOR_RULES)
    entries = []
    for i, (n, set_type) in enumerate((n, s) for n in SMALL_DIMS for s in SET_TYPES):
        name = f"small_n{n}_{set_type}"
        doc, entry = _solver_scenario(
            rng, name, n, set_type, MAP_KINDS[i % 3], rules[(i // 3 + i) % 3],
            SOLVER_TASKS, SMALL_K_MAX, SMALL_MAX_ITERS, seed,
        )
        entry.path = _write(directory, doc)
        entries.append(entry)
    return entries


LARGE_DIM = 500
LARGE_K_MAX = 1.5
LARGE_MAX_ITERS = 2000
LARGE_TASKS = tuple(t for t in ALL_TASKS if t != "brute_force")
# (set type, map kind, anchor rule); exactly one harmonic run, which hits max_iters.
LARGE_SLOTS = (
    ("box", "identity", "geometric"),
    ("ball", "projection", "power"),
    ("halfspace", "affine_average", "harmonic"),
    ("simplex", "projection", "geometric"),
    ("affine", "affine_average", "power"),
)


def large_n(seed: int, directory: Path, golden_dir: Path) -> list[Entry]:
    """One n = 500 scenario per set type, each running every task but brute_force."""
    rng = _rng(seed, "large_n")
    entries = []
    for set_type, map_kind, rule in LARGE_SLOTS:
        name = f"large_n{LARGE_DIM}_{set_type}"
        doc, entry = _solver_scenario(
            rng, name, LARGE_DIM, set_type, map_kind, rule,
            LARGE_TASKS, LARGE_K_MAX, LARGE_MAX_ITERS, seed,
        )
        entry.path = _write(directory, doc)
        entries.append(entry)
    return entries


WORKLOADS = {"golden": golden, "small_n": small_n, "large_n": large_n}
