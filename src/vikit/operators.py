"""Affine operators A(x) = Mx + q with certified monotonicity and expansiveness moduli.

For this family every modulus of interest is exactly computable: the Lipschitz
constant is the largest singular value of M, the expansiveness modulus the
smallest, and the strong-monotonicity constant the smallest eigenvalue of the
symmetric part (M + M^T)/2.  The ``check_*`` functions verify the defining
inequalities on sampled pairs and report the first violating pair on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .reports import VerificationReport, pairwise_report

# Additive slack on every inequality check: double-precision rounding on norms
# of O(1)-O(10) vectors.
DEFAULT_TOLERANCE = 1e-9
SAMPLE_LOW = -10.0
SAMPLE_HIGH = 10.0
DEFAULT_SAMPLE_COUNT = 10_000


@dataclass(frozen=True)
class AffineOperator:
    """The map x -> Mx + q on R^n."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        q = np.array(self.offset, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"matrix must be square, got shape {m.shape}")
        if q.ndim != 1:
            raise ValidationError(f"offset must be a vector, got shape {q.shape}")
        if m.shape[0] != q.shape[0]:
            raise DimensionMismatchError(m.shape[0], q.shape[0], what="offset")
        if m.shape[0] < 1:
            raise ValidationError("operator dimension must be positive")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(q))):
            raise ValidationError("operator entries must be finite")
        m.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", q)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x) -> np.ndarray:
        return evaluate(self, x)

    @cached_property
    def moduli(self) -> OperatorModuli:
        """Exact moduli from the spectrum of M, computed on first access.

        lipschitz = sigma_max(M), expansiveness = sigma_min(M),
        strong_monotonicity = lambda_min((M + M^T)/2).  The cocoercive pair
        defaults to (0, v): a v-strongly monotone map is relaxed (u, v)-cocoercive
        for any u >= 0, the slack term only weakens the bound.  Caching is sound
        because the matrix is read-only.  Raises ValidationError when
        v > 0 and the sigma_max(M)^2 in alpha overflows a float.
        """
        singular = np.linalg.svd(self.matrix, compute_uv=False)
        eps = float(singular[0])
        gamma = float(singular[-1])
        sym = 0.5 * (self.matrix + self.matrix.T)
        v = float(np.linalg.eigvalsh(sym)[0])
        try:
            alpha = v / eps**2 if v > 0.0 else None
        except OverflowError:
            raise ValidationError(
                f"sigma_max(M) = {eps:g} is out of range: alpha = v / sigma_max^2 overflows"
            ) from None
        return OperatorModuli(
            lipschitz=eps,
            strong_monotonicity=v,
            ism_alpha=alpha,
            expansiveness=gamma,
            cocoercive_pair=(0.0, v),
        )


@dataclass(frozen=True)
class OperatorModuli:
    """Certified constants of an affine operator.

    ``ism_alpha`` is a certified lower bound: <Mz, z> >= v|z|^2 >= (v/eps^2)|Mz|^2
    whenever v > 0, so A is (v/eps^2)-inverse-strongly monotone.  It is None when
    the symmetric part is not positive definite.
    """

    lipschitz: float
    strong_monotonicity: float
    ism_alpha: float | None
    expansiveness: float
    cocoercive_pair: tuple[float, float]


def evaluate(op: AffineOperator, x) -> np.ndarray:
    """Apply the operator: Mx + q."""
    x = np.asarray(x, dtype=float)
    if x.shape != (op.dim,):
        raise DimensionMismatchError(op.dim, int(np.prod(x.shape)))
    if not np.all(np.isfinite(x)):
        raise ValidationError("input vector has non-finite entries")
    return op.matrix @ x + op.offset


def certify_moduli(op: AffineOperator) -> OperatorModuli:
    """The operator's certified moduli; see ``AffineOperator.moduli``."""
    return op.moduli


def sample_pairs(
    dim: int,
    count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
    low: float = SAMPLE_LOW,
    high: float = SAMPLE_HIGH,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform sample of ``count`` point pairs in [low, high]^dim."""
    if count < 1:
        raise ValidationError("sample count must be positive")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(low, high, size=(count, dim))
    ys = rng.uniform(low, high, size=(count, dim))
    return xs, ys


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise inner products of two (k, n) arrays."""
    return np.einsum("ij,ij->i", a, b)


def _check_pairs(op: AffineOperator, name: str, pairs, seed, deficits) -> VerificationReport:
    """Engine of the pairwise checkers: normalize the pairs to two validated
    (k, n) arrays xs, ys, form z = xs - ys and Mz = Ax - Ay once, and report on
    the slack deficits ``deficits(z, Mz)`` (see ``pairwise_report``).

    Accepts a 2-tuple of stacked (k, n) arrays, a single (x, y) pair, or a
    sequence of (x, y) pairs.
    """
    xs = ys = None
    if isinstance(pairs, tuple) and len(pairs) == 2:
        a, b = np.asarray(pairs[0], dtype=float), np.asarray(pairs[1], dtype=float)
        if a.ndim == 2 and b.ndim == 2:
            xs, ys = a, b
        elif a.ndim == 1 and b.ndim == 1:
            xs, ys = a[None, :], b[None, :]
    if xs is None:
        seq = list(pairs)
        xs = np.asarray([p[0] for p in seq], dtype=float)
        ys = np.asarray([p[1] for p in seq], dtype=float)
    if xs.shape[0] == 0:
        raise ValidationError("empty pair list: vacuous check refused")
    if xs.shape != ys.shape or xs.ndim != 2 or xs.shape[1] != op.dim:
        raise DimensionMismatchError(op.dim, int(xs.shape[-1]), what="sample pair")
    z = xs - ys
    return pairwise_report(name, deficits(z, z @ op.matrix.T), xs, ys, seed=seed)


def check_ism(
    op: AffineOperator,
    alpha: float,
    pairs,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int | None = None,
) -> VerificationReport:
    """Check <Ax - Ay, x - y> >= alpha * |Ax - Ay|^2 on every pair."""
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise ValidationError("ism modulus alpha must be finite and positive")
    return _check_pairs(
        op, f"ism(alpha={alpha:g})", pairs, seed,
        lambda z, dz: alpha * _rowdot(dz, dz) - _rowdot(dz, z) - tolerance,
    )


def check_relaxed_cocoercive(
    op: AffineOperator,
    u: float,
    v: float,
    pairs,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int | None = None,
) -> VerificationReport:
    """Check <Ax - Ay, x - y> >= -u|Ax - Ay|^2 + v|x - y|^2 on every pair."""
    if not (np.isfinite(v) and v > 0.0):
        raise ValidationError("cocoercivity constant v must be finite and positive")
    if not (np.isfinite(u) and u >= 0.0):
        raise ValidationError("cocoercivity constant u must be finite and nonnegative")
    return _check_pairs(
        op, f"relaxed_cocoercive(u={u:g},v={v:g})", pairs, seed,
        lambda z, dz: -u * _rowdot(dz, dz) + v * _rowdot(z, z) - _rowdot(dz, z) - tolerance,
    )


def check_expansive(
    op: AffineOperator,
    gamma: float,
    pairs,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int | None = None,
) -> VerificationReport:
    """Check |A x - A y| >= gamma * |x - y| - tolerance on every pair."""
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValidationError("expansiveness modulus gamma must be finite and positive")
    return _check_pairs(
        op, f"expansive(gamma={gamma:g})", pairs, seed,
        lambda z, dz: gamma * np.linalg.norm(z, axis=1) - np.linalg.norm(dz, axis=1) - tolerance,
    )


__all__ = [
    "AffineOperator",
    "OperatorModuli",
    "evaluate",
    "certify_moduli",
    "sample_pairs",
    "check_ism",
    "check_relaxed_cocoercive",
    "check_expansive",
    "DEFAULT_TOLERANCE",
    "DEFAULT_SAMPLE_COUNT",
]
