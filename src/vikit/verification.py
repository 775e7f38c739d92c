"""Executable certificates: expansiveness derived from cocoercivity, a
brute-force grid oracle for VI(C, A), and monotonicity-chain checks.

The grid oracle evaluates the variational inequality literally: a grid point x
is accepted iff <Ax, y - x> >= -vi_tolerance against every grid point y.  It is
deliberately independent of the iterative solvers so the two can validate each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import Box, ConvexSet, Simplex
from .operators import DEFAULT_TOLERANCE, AffineOperator, _check_pairs, _rowdot
from .reports import FAIL, PASS, PRECONDITION_VIOLATED, VerificationReport
from .reports import pairwise_report  # noqa: F401  (perfbench/tracing.py wraps this name)

GRID_POINT_GUARD = 10_000_000
GRID_DIM_GUARD = 3
_CHUNK = 512


@dataclass(frozen=True)
class BruteForceGrid:
    """Finite grid over a Box or Simplex used as a VI solution oracle."""

    set_: ConvexSet
    h: float
    vi_tolerance: float = 1e-9

    def __post_init__(self):
        if not isinstance(self.set_, (Box, Simplex)):
            raise ValidationError("grid oracle supports Box and Simplex sets only")
        if not (np.isfinite(self.h) and self.h > 0.0):
            raise ValidationError("grid spacing must be positive")
        if not (np.isfinite(self.vi_tolerance) and self.vi_tolerance > 0.0):
            raise ValidationError("vi_tolerance must be positive")
        if self.set_.dim > GRID_DIM_GUARD:
            raise ValidationError(f"grid oracle limited to dimension <= {GRID_DIM_GUARD}")
        if self.count() > GRID_POINT_GUARD:
            raise ValidationError(
                f"grid would hold {self.count()} points, over the {GRID_POINT_GUARD} guard"
            )

    def _axis_steps(self) -> list[int]:
        box = self.set_
        return [int(math.floor((hi - lo) / self.h + 1e-9)) for lo, hi in zip(box.lower, box.upper)]

    def _simplex_resolution(self) -> int:
        k = 1.0 / self.h
        if abs(k - round(k)) > 1e-9:
            raise ValidationError("simplex grid spacing must divide 1 exactly")
        return int(round(k))

    def count(self) -> int:
        if isinstance(self.set_, Box):
            return math.prod(steps + 1 for steps in self._axis_steps())
        k = self._simplex_resolution()
        n = self.set_.dim
        return math.comb(k + n - 1, n - 1)

    def points(self) -> np.ndarray:
        """All grid points, rows in lexicographic order."""
        if isinstance(self.set_, Box):
            axes = [
                lo + self.h * np.arange(steps + 1)
                for lo, steps in zip(self.set_.lower, self._axis_steps())
            ]
            mesh = np.meshgrid(*axes, indexing="ij")
            return np.stack([m.ravel() for m in mesh], axis=1)
        k = self._simplex_resolution()
        n = self.set_.dim
        counts = np.array(list(_compositions(k, n)), dtype=float)
        return counts * self.h


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of length ``parts`` summing to ``total``,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def brute_force_vi(op: AffineOperator, grid: BruteForceGrid) -> np.ndarray:
    """Grid points x with min over grid y of <Ax, y - x> >= -vi_tolerance.

    Returns an (k, n) array in lexicographic row order.
    """
    if grid.set_.dim != op.dim:
        raise ValidationError("grid set dimension does not match the operator")
    pts = grid.points()
    a_vals = pts @ op.matrix.T + op.offset
    keep = np.zeros(pts.shape[0], dtype=bool)
    for start in range(0, pts.shape[0], _CHUNK):
        stop = min(start + _CHUNK, pts.shape[0])
        block = a_vals[start:stop]
        # min over all grid y of <Ax, y> minus <Ax, x>, rowwise
        inner_min = np.min(block @ pts.T, axis=1)
        own = np.einsum("ij,ij->i", block, pts[start:stop])
        keep[start:stop] = inner_min - own >= -grid.vi_tolerance
    return pts[keep]


def _diameter(points: np.ndarray) -> tuple[float, int, int]:
    """Max pairwise distance with its witness indices."""
    best = 0.0
    bi = bj = 0
    for start in range(0, points.shape[0], _CHUNK):
        stop = min(start + _CHUNK, points.shape[0])
        block = points[start:stop]
        d2 = (
            np.sum(block**2, axis=1)[:, None]
            + np.sum(points**2, axis=1)[None, :]
            - 2.0 * (block @ points.T)
        )
        idx = np.unravel_index(np.argmax(d2), d2.shape)
        if d2[idx] > best:
            best = float(d2[idx])
            bi, bj = start + int(idx[0]), int(idx[1])
    dist = float(np.linalg.norm(points[bi] - points[bj]))
    return dist, bi, bj


def check_singleton_vi(
    solutions: np.ndarray, grid: BruteForceGrid, seed: int | None = None
) -> VerificationReport:
    """Pass iff the oracle's solution set ``brute_force_vi(op, grid)`` is
    nonempty with diameter <= 2h*sqrt(n).

    A true singleton's grid approximants occupy adjacent cells only, so the
    diameter threshold certifies uniqueness at resolution h.
    """
    empty = solutions.shape[0] == 0
    threshold = 2.0 * grid.h * math.sqrt(grid.set_.dim)
    diameter, i, j = (math.inf, 0, 0) if empty else _diameter(solutions)
    passed = diameter <= threshold
    return VerificationReport(
        property=f"singleton_vi(h={grid.h:g})",
        status=PASS if passed else FAIL,
        witness=None if passed or empty else (solutions[i].copy(), solutions[j].copy()),
        samples_used=int(grid.count()),
        max_violation=diameter - threshold,
        seed=seed,
        note="VI(C,A) empty at this resolution" if empty else None,
    )


def lemma_cocoercive_expansive(
    op: AffineOperator,
    m: float,
    v: float,
    eps: float,
    pairs,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int | None = None,
) -> tuple[VerificationReport, float]:
    """Derive the expansiveness modulus gamma = v - m*eps^2 of a relaxed
    (m, v)-cocoercive, eps-Lipschitz operator and verify it on sampled pairs.

    Checks both |Ax - Ay| >= gamma|x - y| and the intermediate squared form
    <Ax - Ay, x - y> >= gamma|x - y|^2 (the first follows from the second by
    Cauchy-Schwarz).  Returns (report, gamma); when gamma <= 0 the hypothesis
    fails and the report status is PreconditionViolated.
    """
    if m < 0.0:
        raise ValidationError("cocoercivity constant m must be nonnegative")
    if v <= 0.0 or eps <= 0.0:
        raise ValidationError("constants v and eps must be positive")
    # Float products, not eps**2: a huge eps gives gamma = -inf, not OverflowError.
    gamma = v - m * eps * eps
    name = f"cocoercive_expansive(m={m:g},v={v:g},eps={eps:g})"
    if gamma <= 0.0:
        return VerificationReport(
            property=name,
            status=PRECONDITION_VIOLATED,
            witness=None,
            samples_used=0,
            max_violation=0.0,
            seed=seed,
            note=f"derived modulus v - m*eps^2 = {gamma:g} is not positive",
        ), gamma

    def deficits(z, dz):
        norm_z = np.linalg.norm(z, axis=1)
        return np.concatenate([
            gamma * norm_z - np.linalg.norm(dz, axis=1) - tolerance,
            gamma * norm_z**2 - _rowdot(dz, z) - tolerance,
        ])

    return _check_pairs(op, name, pairs, seed, deficits), gamma


def check_monotone_chain(
    op: AffineOperator,
    m: float,
    v: float,
    eps: float,
    pairs,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int | None = None,
) -> VerificationReport:
    """Check the squared-form monotonicity chain on every pair:
    <Ax - Ay, x - y> >= -m|Ax - Ay|^2 + v|x - y|^2 and <Ax - Ay, x - y> >= 0."""
    if m < 0.0:
        raise ValidationError("cocoercivity constant m must be nonnegative")

    def deficits(z, dz):
        inner = _rowdot(dz, z)
        return np.concatenate([
            -m * _rowdot(dz, dz) + v * _rowdot(z, z) - inner - tolerance,
            -inner - tolerance,
        ])

    name = f"monotone_chain(m={m:g},v={v:g},eps={eps:g})"
    return _check_pairs(op, name, pairs, seed, deficits)


__all__ = [
    "VerificationReport",
    "BruteForceGrid",
    "brute_force_vi",
    "check_singleton_vi",
    "lemma_cocoercive_expansive",
    "check_monotone_chain",
    "GRID_POINT_GUARD",
]
