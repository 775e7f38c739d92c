"""Closed convex subsets of R^n with exact nearest-point projections.

Every variant has a closed-form metric projection, so the solvers built on top
carry no inner iterative subproblem.  Projections satisfy the variational
characterization <x - Px, y - Px> <= 0 for all y in the set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError


class ConvexSet:
    """Base class; concrete variants implement ``_project`` on checked input."""

    dim: int

    def project(self, x) -> np.ndarray:
        return self._project(self._check(x))

    def _project(self, x: np.ndarray) -> np.ndarray:
        """Nearest point to a finite float vector of length ``dim``."""
        raise NotImplementedError

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(self.dim, int(np.prod(x.shape)))
        if not np.all(np.isfinite(x)):
            raise ValidationError("point has non-finite entries")
        return x


@dataclass(frozen=True)
class Box(ConvexSet):
    """Axis-aligned box {x : lower <= x <= upper}."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float)
        hi = np.array(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValidationError("box bounds must be vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValidationError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValidationError("box requires lower <= upper componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def _project(self, x):
        return np.clip(x, self.lower, self.upper)


@dataclass(frozen=True)
class Ball(ConvexSet):
    """Euclidean ball {x : |x - center| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.array(self.center, dtype=float)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValidationError("ball center must be a finite vector")
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise ValidationError("ball radius must be positive and finite")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def _project(self, x):
        d = x - self.center
        dist = float(np.linalg.norm(d))
        if dist <= self.radius:
            return x
        return self.center + (self.radius / dist) * d


@dataclass(frozen=True)
class Halfspace(ConvexSet):
    """Halfspace {x : <normal, x> <= offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        a = np.array(self.normal, dtype=float)
        if a.ndim != 1 or not np.all(np.isfinite(a)):
            raise ValidationError("halfspace normal must be a finite vector")
        if not np.any(a != 0.0):
            raise ValidationError("degenerate halfspace: zero normal")
        if not np.isfinite(self.offset):
            raise ValidationError("halfspace offset must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def _project(self, x):
        slack = float(self.normal @ x) - self.offset
        if slack <= 0.0:
            return x
        return x - (slack / float(self.normal @ self.normal)) * self.normal


@dataclass(frozen=True)
class Simplex(ConvexSet):
    """Probability simplex {x in R^n : x >= 0, sum x = 1}."""

    n: int

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValidationError("simplex dimension must be positive")
        object.__setattr__(self, "n", int(self.n))

    @property
    def dim(self) -> int:
        return self.n

    def _project(self, x):
        # Sort-and-threshold; the >= keeps the largest feasible support on ties.
        u = np.sort(x)[::-1]
        css = np.cumsum(u)
        j = np.arange(1, self.n + 1)
        feasible = np.nonzero(u - (css - 1.0) / j >= 0.0)[0]
        rho = feasible[-1]
        theta = (css[rho] - 1.0) / (rho + 1.0)
        return np.maximum(x - theta, 0.0)


@dataclass(frozen=True)
class AffineSubspace(ConvexSet):
    """Affine subspace basepoint + span(orthonormal basis rows)."""

    basepoint: np.ndarray
    orthonormal_basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basepoint, dtype=float)
        basis = np.array(self.orthonormal_basis, dtype=float)
        if b.ndim != 1 or not np.all(np.isfinite(b)):
            raise ValidationError("basepoint must be a finite vector")
        if basis.ndim != 2 or basis.shape[1] != b.shape[0]:
            raise ValidationError("basis vectors must match the basepoint dimension")
        if not np.all(np.isfinite(basis)):
            raise ValidationError("basis vectors must be finite")
        gram = basis @ basis.T
        if basis.shape[0] and np.max(np.abs(gram - np.eye(basis.shape[0]))) > 1e-12:
            raise ValidationError("basis vectors must be pairwise orthonormal within 1e-12")
        b.setflags(write=False)
        basis.setflags(write=False)
        object.__setattr__(self, "basepoint", b)
        object.__setattr__(self, "orthonormal_basis", basis)

    @property
    def dim(self) -> int:
        return self.basepoint.shape[0]

    def _project(self, x):
        d = x - self.basepoint
        coeffs = self.orthonormal_basis @ d
        return self.basepoint + coeffs @ self.orthonormal_basis


def project(set_: ConvexSet, x) -> np.ndarray:
    """Nearest point of the set to x."""
    return set_.project(x)


def contains(set_: ConvexSet, x, tol: float = 0.0) -> bool:
    """True iff x lies within distance tol of the set."""
    if tol < 0.0:
        raise ValidationError("tolerance must be nonnegative")
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x - set_.project(x))) <= tol


__all__ = [
    "ConvexSet",
    "Box",
    "Ball",
    "Halfspace",
    "Simplex",
    "AffineSubspace",
    "project",
    "contains",
]
