"""Closed convex subsets of R^n with exact nearest-point projections.

Every variant has a closed-form metric projection, so the solvers built on top
carry no inner iterative subproblem.  Projections satisfy the variational
characterization <x - Px, y - Px> <= 0 for all y in the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ValidationError


class ConvexSet:
    """Base class; concrete variants implement ``_project`` on checked input."""

    dim: int

    def project(self, x) -> np.ndarray:
        return self._project(_point(x, self.dim, finite_what="point"))

    def _project(self, x: np.ndarray) -> np.ndarray:
        """Nearest point to a finite float vector of length ``dim``."""
        raise NotImplementedError


def _point(x, dim: int, what: str = "vector", finite_what: str | None = None) -> np.ndarray:
    """``x`` as a finite float vector of length ``dim``; the errors name ``what``
    (a non-finite entry names ``finite_what`` when that is given)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatchError(dim, x.shape, what=what)
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{finite_what or what} has non-finite entries")
    return x


def _read_only(a) -> np.ndarray:
    """A read-only float copy of ``a``, how every frozen field or cache holds an array."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _finite_array(obj, name: str, what: str, ndim: int = 1, width: int | None = None) -> np.ndarray:
    """Store field ``name`` of the frozen ``obj`` as a read-only float array of ``ndim`` axes,
    or raise ValidationError "<what> must be a finite vector" ("matrix" when ``ndim`` is 2).
    Given ``width``, an empty list reads as a matrix of no rows and ``width`` columns."""
    a = _read_only(getattr(obj, name))
    if width is not None and a.shape == (0,):
        a = _read_only(a.reshape(0, width))
    if a.ndim != ndim or not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} must be a finite {'vector' if ndim == 1 else 'matrix'}")
    object.__setattr__(obj, name, a)
    return a


@dataclass(frozen=True)
class Box(ConvexSet):
    """Axis-aligned box {x : lower <= x <= upper}."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _finite_array(self, "lower", "box lower")
        hi = _finite_array(self, "upper", "box upper")
        if lo.shape != hi.shape:
            raise ValidationError("box bounds must be vectors of equal length")
        if np.any(lo > hi):
            raise ValidationError("box requires lower <= upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def _project(self, x):
        return np.minimum(np.maximum(x, self.lower), self.upper)


@dataclass(frozen=True)
class Ball(ConvexSet):
    """Euclidean ball {x : |x - center| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        _finite_array(self, "center", "ball center")
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise ValidationError("ball radius must be positive and finite")
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def _project(self, x):
        d = x - self.center
        dist = math.sqrt(d @ d)
        if dist == math.inf:  # |d|^2 overflowed; hypot scales, so |d| may be finite
            dist = math.hypot(*d)
            if dist == math.inf:  # so |d| > radius; halving x and center keeps d's direction
                d = x / 2 - self.center / 2
                return self.center + self.radius * (d / math.hypot(*d))
        if dist <= self.radius:
            return x
        return self.center + (self.radius / dist) * d


@dataclass(frozen=True)
class Halfspace(ConvexSet):
    """Halfspace {x : <normal, x> <= offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        if not np.any(_finite_array(self, "normal", "halfspace normal") != 0.0):
            raise ValidationError("degenerate halfspace: zero normal")
        if not np.isfinite(self.offset):
            raise ValidationError("halfspace offset must be finite")
        object.__setattr__(self, "offset", float(self.offset))
        # Scaled by 2^-e (exact): max |normal_i| is in [1/2, 1), so |normal|^2 is in [1/4, n).
        e = math.frexp(np.max(np.abs(self.normal)))[1]
        normal = _read_only(np.ldexp(self.normal, -e))
        with np.errstate(over="ignore"):  # an inf offset keeps every x with finite <normal, x>
            offset = float(np.ldexp(self.offset, -e))
        object.__setattr__(self, "_scaled", (normal, offset, float(normal @ normal)))

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def _project(self, x):
        normal, offset, norm2 = self._scaled
        slack = float(normal @ x) - offset
        if slack <= 0.0:
            return x
        return x - (slack / norm2) * normal


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

    @cached_property
    def _ranks(self) -> np.ndarray:
        """1, ..., n, made on the first projection: a scenario's n is checked
        against the operator's dimension only after construction."""
        return _read_only(np.arange(1, self.n + 1))

    def _project(self, x):
        # Sort-and-threshold; the >= keeps the largest feasible support on ties.
        u = x.copy()
        u.sort()
        u = u[::-1]
        css = u.cumsum()
        rho = (u - (css - 1.0) / self._ranks >= 0.0).nonzero()[0][-1]
        theta = (css[rho] - 1.0) / (rho + 1.0)
        return np.maximum(x - theta, 0.0)


@dataclass(frozen=True)
class AffineSubspace(ConvexSet):
    """Affine subspace basepoint + span(orthonormal basis rows)."""

    basepoint: np.ndarray
    orthonormal_basis: np.ndarray

    def __post_init__(self):
        b = _finite_array(self, "basepoint", "basepoint")
        basis = _finite_array(self, "orthonormal_basis", "orthonormal basis", ndim=2, width=len(b))
        if basis.shape[1] != b.shape[0]:
            raise ValidationError("basis vectors must match the basepoint dimension")
        # More than n rows cannot be orthonormal; refuse them before the k x k Gram.
        k = basis.shape[0]
        if k > b.shape[0] or (k and np.max(np.abs(basis @ basis.T - np.eye(k))) > 1e-12):
            raise ValidationError("basis vectors must be pairwise orthonormal within 1e-12")

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
