"""Executable certificates: expansiveness derived from cocoercivity, and a
brute-force grid oracle for VI(C, A).

The Lemma 2.2 check is exact: each of its inequalities is a quadratic form in
z = x - y, decided by its smallest eigenvalue through the engine in
``operators``.  The relaxed-cocoercive hypothesis behind it is
``operators.check_relaxed_cocoercive``.

The grid oracle accepts a grid point x iff <Ax, y - x> >= -vi_tolerance for
every grid point y.  A linear function attains its minimum over the grid at a
corner (box) or vertex (simplex) node, so only those nodes are scanned; the
literal all-pairs scan in ``tests/oracles.py`` cross-checks it.  The oracle is
independent of the iterative solvers so the two can validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import Box, ConvexSet, Simplex, _read_only
from .operators import (FAIL, PASS, PRECONDITION_VIOLATED, AffineOperator,
                        VerificationReport, _check_forms)
from .operators import pairwise_report  # noqa: F401  (perfbench/tracing.py wraps this name)
from .solvers import _check_inputs

GRID_POINT_GUARD = 10_000_000
GRID_DIM_GUARD = 3
GRID_SET_TYPES = (Box, Simplex)


@dataclass(frozen=True)
class BruteForceGrid:
    """Finite grid over a Box or Simplex used as a VI solution oracle."""

    set_: ConvexSet
    h: float
    vi_tolerance: float = 1e-9

    def __post_init__(self):
        if not isinstance(self.set_, GRID_SET_TYPES):
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
        n = self.set_.dim
        return math.comb(self._simplex_resolution() + n - 1, n - 1)

    def points(self) -> np.ndarray:
        """All grid points, rows in lexicographic order."""
        if isinstance(self.set_, Box):
            axes = [
                lo + self.h * np.arange(steps + 1)
                for lo, steps in zip(self.set_.lower, self._axis_steps())
            ]
            return np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(axes), -1).T
        # Lattice counts summing to k: every head in {0..k}^(n-1), in
        # lexicographic order, with sum <= k, then the remainder k - sum.
        k, n = self._simplex_resolution(), self.set_.dim
        head = np.indices((k + 1,) * (n - 1)).reshape(n - 1, (k + 1) ** (n - 1)).T
        head = head[head.sum(axis=1) <= k]
        counts = np.column_stack([head, k - head.sum(axis=1)])
        return counts.astype(float) * self.h

    def extreme_nodes(self) -> np.ndarray:
        """Corner (box) or vertex (simplex) nodes, C-ordered rows in lexicographic order."""
        if isinstance(self.set_, Simplex):  # k at one coordinate, 0 at the others, as in points()
            return np.eye(self.set_.dim)[::-1] * (float(self._simplex_resolution()) * self.h)
        ends = [np.unique(lo + self.h * np.array([0, steps]))  # one node if both ends are equal
                for lo, steps in zip(self.set_.lower, self._axis_steps())]
        return np.stack(np.meshgrid(*ends, indexing="ij"), axis=-1).reshape(-1, self.set_.dim)


def brute_force_vi(op: AffineOperator, grid: BruteForceGrid) -> np.ndarray:
    """Grid points x with min over grid y of <Ax, y - x> >= -vi_tolerance.

    Returns an (k, n) array in lexicographic row order.
    """
    _check_inputs(op, grid.set_)
    pts = grid.points()
    a_vals = op.apply(pts)
    inner_min = np.min(grid.extreme_nodes() @ a_vals.T, axis=0)  # (nodes, N): long rows
    return pts[inner_min - np.einsum("ij,ij->i", a_vals, pts) >= -grid.vi_tolerance]


def _diameter(points: np.ndarray) -> tuple[float, int, int]:
    """Max distance over every pair of ``points``, by row differences, with witness indices."""
    diffs = points[:, None] - points[None]
    i, j = np.unravel_index(np.argmax(np.sum(diffs * diffs, axis=-1)), diffs.shape[:2])
    return float(np.linalg.norm(points[i] - points[j])), int(i), int(j)


def check_singleton_vi(
    solutions: np.ndarray, grid: BruteForceGrid, seed: int | None = None
) -> VerificationReport:
    """Pass iff the oracle's solution set ``brute_force_vi(op, grid)`` is
    nonempty with diameter <= 2h*sqrt(n).

    A true singleton's grid approximants occupy adjacent cells only, so the
    diameter threshold certifies uniqueness at resolution h.  A set no wider
    than that on any axis holds at most (floor(2 sqrt(n)) + 1)^n <= 64 grid
    nodes, whose diameter is taken exactly from their differences, so translating
    the problem does not change the verdict; a wider set fails, judged on its 2n
    axis-extreme rows, so its max_violation is a lower bound.
    """
    empty = solutions.shape[0] == 0
    threshold = 2.0 * grid.h * math.sqrt(grid.set_.dim)
    if not empty and np.ptp(solutions, axis=0).max() > threshold:
        solutions = solutions[np.r_[solutions.argmin(axis=0), solutions.argmax(axis=0)]]
    diameter, i, j = (math.inf, 0, 0) if empty else _diameter(solutions)
    passed = diameter <= threshold
    return VerificationReport(
        property=f"singleton_vi(h={grid.h:g})",
        status=PASS if passed else FAIL,
        witness=None if passed or empty else (_read_only(solutions[i]), _read_only(solutions[j])),
        samples_used=int(grid.count()),
        max_violation=diameter - threshold,
        seed=seed,
        note="VI(C,A) empty at this resolution" if empty else None,
    )


def _check_lemma22_constants(m: float, v: float, eps: float) -> None:
    """Lemma 2.2's hypotheses on its constants: finite m >= 0, finite v, finite eps >= 0."""
    if not (np.isfinite(m) and m >= 0.0):
        raise ValidationError("cocoercivity constant m must be finite and nonnegative")
    if not (np.isfinite(v) and np.isfinite(eps) and eps >= 0.0):
        raise ValidationError("constant v must be finite, and eps finite and nonnegative")


def lemma_cocoercive_expansive(
    op: AffineOperator, m: float, v: float, eps: float
) -> tuple[VerificationReport, float]:
    """Derive the expansiveness modulus gamma = v - m*eps^2 of a relaxed
    (m, v)-cocoercive, eps-Lipschitz operator and verify it for all pairs.

    Checks both |Ax - Ay| >= gamma|x - y| (Q = M^T M - gamma^2 I) and the
    intermediate squared form <Ax - Ay, x - y> >= gamma|x - y|^2
    (Q = M_s - gamma I; the first follows from it by Cauchy-Schwarz).  Returns
    (report, gamma); when gamma <= 0 the hypothesis fails and the report
    status is PreconditionViolated.
    """
    _check_lemma22_constants(m, v, eps)
    # Float products, not eps**2: a huge eps gives gamma = -inf, not OverflowError.
    gamma = v - m * eps * eps
    name = f"cocoercive_expansive(m={m:g},v={v:g},eps={eps:g})"
    if gamma <= 0.0:
        return VerificationReport(
            property=name,
            status=PRECONDITION_VIOLATED,
            note=f"derived modulus v - m*eps^2 = {gamma:g} is not positive",
        ), gamma
    return _check_forms(op, name, [(0.0, 1.0, -gamma * gamma), (1.0, 0.0, -gamma)]), gamma

