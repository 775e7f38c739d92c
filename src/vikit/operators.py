"""Affine operators A(x) = Mx + q with certified monotonicity and expansiveness moduli.

For this family every modulus of interest is exactly computable: the Lipschitz
constant is the largest singular value of M, the expansiveness modulus the
smallest, and the strong-monotonicity constant the smallest eigenvalue of the
symmetric part M_s = (M + M^T)/2.  Each pairwise inequality the ``check_*``
functions verify is, with z = x - y, a quadratic form z^T Q z >= 0 for one
symmetric Q built from M_s, M^T M and I, so it holds for every pair x, y iff
lambda_min(Q) >= 0.  Each operator takes one eigen-solve of M_s and one SVD
of M, the moduli's, so a Q with one matrix term, a T + c I, is decided from T's
cached spectrum: M_s's eigenvalues, or M^T M's as the squared singular values
sigma(M)^2.  Only a Q with both terms takes an eigen-solve of its own.  On
failure a checker reports the pair (w, 0) for a minimizing unit eigenvector w
of Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .geometry import _point, _read_only
from .reports import FAIL, PASS, VerificationReport
from .reports import pairwise_report  # noqa: F401  (perfbench/tracing.py wraps this name)

# Dimensionless slack of the quadratic-form checks: Q passes iff
# lambda_min(Q) >= -RELATIVE_TOLERANCE * S, S the spectral scale of Q's terms
# (see ``_check_forms``); it absorbs the rounding of forming Q, of eigvalsh and of the SVD.
RELATIVE_TOLERANCE = 1e-12
EXACT_NOTE = f"exact: lambda_min(Q) >= -{RELATIVE_TOLERANCE:g} * S over all pairs"
SAMPLE_LOW = -10.0
SAMPLE_HIGH = 10.0


@dataclass(frozen=True)
class AffineOperator:
    """The map x -> Mx + q on R^n."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = _read_only(self.matrix)
        q = _read_only(self.offset)
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
        strong_monotonicity = lambda_min((M + M^T)/2).  Caching is sound
        because the matrix is read-only.  Raises ValidationError when
        v > 0 and the sigma_max(M)^2 in alpha overflows or underflows a float.
        """
        eps = float(self._singular[-1])
        gamma = float(self._singular[0])
        v = float(self._sym_spectrum[0])
        try:
            alpha = v / eps**2 if v > 0.0 else None
        except (OverflowError, ZeroDivisionError):
            raise ValidationError(f"sigma_max(M) = {eps:g} is out of range: sigma_max^2 in "
                                  "alpha = v / sigma_max^2 is 0 or inf") from None
        return OperatorModuli(
            lipschitz=eps,
            strong_monotonicity=v,
            ism_alpha=alpha,
            expansiveness=gamma,
        )

    @cached_property
    def _sym(self) -> np.ndarray:
        """The symmetric part M_s = (M + M^T)/2, formed on first use."""
        return _read_only(0.5 * (self.matrix + self.matrix.T))

    @cached_property
    def _gram(self) -> np.ndarray:
        """The Gram matrix M^T M, formed on first use."""
        return _read_only(self.matrix.T @ self.matrix)

    @cached_property
    def _sym_spectrum(self) -> np.ndarray:
        """eigvalsh(M_s), in ascending order, computed on first use."""
        return _read_only(np.linalg.eigvalsh(self._sym))

    @cached_property
    def _singular(self) -> np.ndarray:
        """sigma(M), in ascending order, from one SVD on first use."""
        return _read_only(np.linalg.svd(self.matrix, compute_uv=False)[::-1])

    # |M_s| and |M^T M|, each computed on first use; see ``_row_sum_norm``.
    _sym_norm = cached_property(lambda self: _row_sum_norm(self._sym))
    _gram_norm = cached_property(lambda self: _row_sum_norm(self._gram))


def _row_sum_norm(t: np.ndarray) -> float:
    """|T|, the largest absolute row sum; inf or NaN when T overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(t, np.inf)


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


def evaluate(op: AffineOperator, x) -> np.ndarray:
    """Apply the operator: Mx + q."""
    return op.matrix @ _point(x, op.dim, finite_what="input vector") + op.offset


def certify_moduli(op: AffineOperator) -> OperatorModuli:
    """The operator's certified moduli; see ``AffineOperator.moduli``."""
    return op.moduli


def sample_pairs(dim: int, count: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform sample of ``count`` point pairs in [SAMPLE_LOW, SAMPLE_HIGH]^dim."""
    if count < 1:
        raise ValidationError("sample count must be positive")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(SAMPLE_LOW, SAMPLE_HIGH, size=(count, dim))
    ys = rng.uniform(SAMPLE_LOW, SAMPLE_HIGH, size=(count, dim))
    return xs, ys


def _form(op: AffineOperator, a: float, b: float, c: float) -> np.ndarray:
    """The matrix Q = a M_s + b M^T M + c I."""
    q = c * np.eye(op.dim)
    if a:
        q += a * op._sym
    if b:
        q += b * op._gram
    return q


def _check_forms(op: AffineOperator, name: str, forms) -> VerificationReport:
    """Engine of the pairwise checkers.  Each (a, b, c) in ``forms`` is the
    inequality z^T Q z >= 0 for all z, with Q = a M_s + b M^T M + c I; for
    z = x - y it is the checker's inequality on the pair (x, y).

    A form holds iff lambda_min(Q) >= 0, and it passes iff lambda_min(Q) >=
    -RELATIVE_TOLERANCE * S with S = |a| |M_s| + |b| |M^T M| + |c|, where |T| is
    the largest absolute row sum, a bound on the spectral norm of a symmetric
    T.  S scales with the terms, not with Q, which is ~0 at a tight modulus.
    A form with one matrix term T and coefficient k is decided from T's cached
    spectrum: lambda_min(Q) = k lambda_min(T) + c, or k lambda_max(T) + c when
    k < 0, where the spectrum of M^T M is sigma(M)^2 from the moduli's SVD.
    Only a form with both terms forms Q and calls eigvalsh.
    The report's max_violation is the largest deficit -lambda_min(Q) - tol * S;
    a failing report's witness is (w, 0) for the unit eigenvector w of
    lambda_min of the worst form's Q.  An S that overflows raises
    ValidationError: every entry of Q is at most S in size, so a finite S
    means a finite Q, and a non-finite Q has no meaningful spectrum.
    """
    deficits = []
    for a, b, c in forms:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
            scale = abs(c)
            if a:
                scale += abs(a) * op._sym_norm
            if b:
                scale += abs(b) * op._gram_norm
        if not np.isfinite(scale):
            raise ValidationError(f"{name}: the quadratic form overflows a float")
        if a and b:
            lam = np.linalg.eigvalsh(_form(op, a, b, c))[0]
        elif a:
            lam = a * op._sym_spectrum[0 if a > 0.0 else -1] + c
        else:
            lam = b * op._singular[0 if b > 0.0 else -1] ** 2 + c
        deficits.append(-lam - RELATIVE_TOLERANCE * scale)
    worst = int(np.argmax(deficits))  # a NaN deficit counts as the worst
    max_violation = float(deficits[worst])
    witness = None
    if not max_violation <= 0.0:
        q = _form(op, *forms[worst])
        witness = (np.linalg.eigh(q)[1][:, 0], np.zeros(op.dim))
    return VerificationReport(
        property=name,
        status=PASS if witness is None else FAIL,
        witness=witness,
        max_violation=max_violation,
        note=EXACT_NOTE,
    )


def check_ism(op: AffineOperator, alpha: float) -> VerificationReport:
    """Check <Ax - Ay, x - y> >= alpha * |Ax - Ay|^2 for all x, y:
    Q = M_s - alpha M^T M."""
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise ValidationError("ism modulus alpha must be finite and positive")
    return _check_forms(op, f"ism(alpha={alpha:g})", [(1.0, -alpha, 0.0)])


def check_relaxed_cocoercive(op: AffineOperator, u: float, v: float) -> VerificationReport:
    """Check <Ax - Ay, x - y> >= -u|Ax - Ay|^2 + v|x - y|^2 for all x, y:
    Q = M_s + u M^T M - v I."""
    if not (np.isfinite(v) and v > 0.0):
        raise ValidationError("cocoercivity constant v must be finite and positive")
    if not (np.isfinite(u) and u >= 0.0):
        raise ValidationError("cocoercivity constant u must be finite and nonnegative")
    return _check_forms(op, f"relaxed_cocoercive(u={u:g},v={v:g})", [(1.0, u, -v)])


def check_expansive(op: AffineOperator, gamma: float) -> VerificationReport:
    """Check |A x - A y| >= gamma * |x - y| for all x, y, in squared form:
    Q = M^T M - gamma^2 I."""
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValidationError("expansiveness modulus gamma must be finite and positive")
    # gamma * gamma, not gamma**2: a huge gamma gives inf, not OverflowError.
    return _check_forms(op, f"expansive(gamma={gamma:g})", [(0.0, 1.0, -gamma * gamma)])
