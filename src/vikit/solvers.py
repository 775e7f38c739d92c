"""Projection-type iterative solvers for VI(C, A) and for common points of
VI(C, A) and the fixed-point set of a nonexpansive map.

Two schemes are provided: the projected-gradient fixed-point iteration
x_{n+1} = P_C(x_n - lam * A x_n), and an anchored variant
x_{n+1} = a_n * anchor + (1 - a_n) * S(P_C(x_n - lam * A x_n)) for a
nonexpansive map S.  Both record the natural residual per iterate and, when a
reference solution is supplied and the operator is gamma-expansive, the
operator residual s_n = |A x_n - A x_ref| together with the certified distance
bound s_n / gamma.  Inputs are checked once per solve; each iteration checks
only the points it creates.  ``_check_inputs`` states the input rules once,
for the solvers and for the scenario parser.
The loop is deterministic, so a run to residual_tol is, bit for bit, the prefix
of the same run continued to a smaller tolerance (``IterationTrace.until``):
a scenario that lists ``compare_stopping`` takes ``solve_pg``'s trace from it.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass, field, replace
from numbers import Real

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, DivergenceError, ValidationError
from .geometry import ConvexSet, _finite_array, _point, _read_only
from .geometry import project  # noqa: F401  (perfbench/tracing.py wraps this name)
from .operators import AffineOperator, certify_moduli, evaluate

CONVERGED = "Converged"
MAX_ITERS = "MaxIters"

DEFAULT_RESIDUAL_TOL = 1e-8
DEFAULT_MAX_ITERS = 10_000
DEFAULT_COMPARISON_DELTA = 1e-6
COMPARISON_TOL_FACTOR = 1e-3  # compare_stopping's residual_tol is at most delta times this


@dataclass(frozen=True)
class AnchorSchedule:
    """Anchor weight rule a_n for the anchored scheme.

    Rules: "harmonic" gives 1/(n+1); "power" gives scale/(n+1)^exponent;
    "geometric" gives scale * ratio^n.  Weights must stay in (0, 1].
    """

    rule: str = "harmonic"
    scale: float = 1.0
    exponent: float = 1.0
    ratio: float = 0.5

    def __post_init__(self):
        if self.rule not in ("harmonic", "power", "geometric"):
            raise ConfigurationError(f"unknown anchor schedule rule '{self.rule}'")
        if not 0.0 < self.scale <= 1.0:
            raise ConfigurationError("anchor schedule scale must be in (0, 1]")
        if self.rule == "power" and not 0.0 < self.exponent <= sys.float_info.max:  # exact for int
            raise ConfigurationError("anchor schedule exponent must be positive")
        if self.rule == "geometric" and not 0.0 < self.ratio < 1.0:
            raise ConfigurationError("anchor schedule ratio must be in (0, 1)")

    def weight(self, n: int) -> float:
        if self.rule == "harmonic":
            return 1.0 / (n + 1)
        if self.rule == "power":
            with suppress(OverflowError):  # else (n + 1)^exponent is past the float range
                return self.scale / (n + 1.0) ** self.exponent
            return 0.0
        return self.scale * self.ratio**n


@dataclass(frozen=True)
class IterationConfig:
    """Solver parameters.

    ``step`` must lie in (0, 2*alpha) for the certified inverse-strong-monotonicity
    modulus alpha of the operator; that is checked when a solve starts.
    """

    step: float
    anchor_schedule: AnchorSchedule = field(default_factory=AnchorSchedule)
    max_iters: int = DEFAULT_MAX_ITERS
    residual_tol: float = DEFAULT_RESIDUAL_TOL

    def __post_init__(self):
        if not (isinstance(self.step, Real) and np.isfinite(self.step) and self.step > 0.0):
            raise ConfigurationError("step must be positive")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        if not (np.isfinite(self.residual_tol) and self.residual_tol > 0.0):
            raise ConfigurationError("residual_tol must be positive")


def _first_at_most(values: np.ndarray, target: float) -> int | None:
    hits = (values <= target).nonzero()[0]
    return int(hits[0]) if hits.size else None


@dataclass(frozen=True)
class IterationTrace:
    """Per-iteration history of a solve.

    Row n holds the iterate x_n, its natural residual
    r_n = |x_n - P_C(x_n - lam * A x_n)| and, when a reference point was
    supplied, the operator residual s_n = |A x_n - A x_ref|; the shortcut bound
    b_n = s_n / gamma is populated when gamma > 0.  A solve to residual_tol
    makes the prefix ``until(residual_tol)`` of the same solve to a smaller one.
    """

    iterates: np.ndarray
    natural_residuals: np.ndarray
    operator_residuals: np.ndarray | None
    shortcut_bounds: np.ndarray | None
    status: str
    gamma: float

    def __post_init__(self):
        for name in ("iterates", "natural_residuals", "operator_residuals", "shortcut_bounds"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _read_only(getattr(self, name)))

    @property
    def rows(self) -> int:
        return self.iterates.shape[0]

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    def until(self, tol: float) -> IterationTrace:
        """Rows up to and including the first with r_n <= tol, status Converged,
        else the whole trace: of a run to residual_tol <= tol, the run to tol."""
        k = _first_at_most(self.natural_residuals, tol)
        if k is None:
            return self
        return replace(self, status=CONVERGED, **{
            name: a[: k + 1] for name, a in vars(self).items() if isinstance(a, np.ndarray)})

    def distances_to(self, x_star) -> np.ndarray:
        return np.linalg.norm(self.iterates - np.asarray(x_star, dtype=float), axis=1)


class NonexpansiveMap:
    """Base class for the maps S paired with the VI in the anchored scheme."""

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Identity(NonexpansiveMap):
    def apply(self, x):
        return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class ProjectionOnto(NonexpansiveMap):
    """x -> P_S(x).  ``apply`` takes a finite vector of the set's dimension
    unchecked: ``solve_halpern`` checks the dimension once per solve, and the
    points it maps were checked when the loop made them."""

    set_: ConvexSet

    def apply(self, x):
        return self.set_._project(x)


@dataclass(frozen=True)
class AffineAverage(NonexpansiveMap):
    """x -> (1 - t) x + t c; nonexpansive for t in [0, 1], fixed point c for t > 0."""

    t: float
    fixed_point: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValidationError("averaging coefficient t must be in [0, 1]")
        _finite_array(self, "fixed_point", "fixed point")

    def apply(self, x):
        return (1.0 - self.t) * np.asarray(x, dtype=float) + self.t * self.fixed_point


def shortcut_distance_bound(gamma: float, operator_residual: float | np.ndarray):
    """Distance bound |x - x*| <= |Ax - Ax*| / gamma, elementwise, for gamma-expansive A."""
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ConfigurationError("shortcut bound requires an expansiveness modulus gamma > 0")
    if np.any(operator_residual < 0.0):
        raise ValidationError("operator residual must be nonnegative")
    return operator_residual / gamma


def natural_residual_factor(op: AffineOperator, step: float) -> float:
    """C = (1 + lam L)/(lam mu), inf unless lam mu > 0: |x - x*| <= C r(x), r the natural
    residual at step lam, for mu-strongly monotone, L-Lipschitz A (Facchinei & Pang 2003)."""
    moduli = certify_moduli(op)
    lam_mu = step * moduli.strong_monotonicity
    return (1.0 + step * moduli.lipschitz) / lam_mu if lam_mu > 0.0 else math.inf


def _check_step(op: AffineOperator, cfg: IterationConfig) -> float:
    """Validate lam in (0, 2*alpha); return the certified expansiveness modulus."""
    moduli = certify_moduli(op)
    if moduli.ism_alpha is None:
        raise ConfigurationError(
            "operator has no certified inverse-strong-monotonicity modulus "
            "(symmetric part is not positive definite)"
        )
    limit = 2.0 * moduli.ism_alpha
    if not cfg.step < limit:
        raise ConfigurationError(
            f"step {cfg.step:g} outside (0, {limit:g}) for certified alpha "
            f"{moduli.ism_alpha:g}"
        )
    return moduli.expansiveness


def _check_inputs(op: AffineOperator, set_: ConvexSet, s_map=None, **vectors) -> None:
    """The set and the map S act on R^n, n = op.dim, and each vector, named by
    its parameter (the scenario field), is a finite n-vector."""
    dims = {"constraint set": set_.dim}
    if isinstance(s_map, ProjectionOnto):
        dims["map_s set"] = s_map.set_.dim
    elif isinstance(s_map, AffineAverage):
        dims["map_s fixed_point"] = s_map.fixed_point.size
    for what, actual in dims.items():
        if actual != op.dim:
            raise DimensionMismatchError(op.dim, actual, what=what)
    for what, vector in vectors.items():
        if vector is not None:
            _point(vector, op.dim, what)


def _run(op, set_, cfg, x0, x_ref, advance) -> IterationTrace:
    gamma = _check_step(op, cfg)
    _check_inputs(op, set_, x0=x0)
    # Iterates live in C: the operator's domain.  x0, checked just above, is projected
    # unchecked; that also makes the membership postcondition independent of residual_tol.
    x = set_._project(np.asarray(x0, dtype=float))
    a_ref = None if x_ref is None else evaluate(op, x_ref)
    if not np.isfinite(x).all():
        raise ValidationError("input vector has non-finite entries")
    # Each update is checked to be a finite vector of length n, so a step needs
    # to check only the point it projects.  BLAS and ufuncs are called directly, bit for
    # bit: sqrt(d.dot(d)) is np.linalg.norm(d), a finite count is np.isfinite(v).all().
    apply, step = op.apply, cfg.step
    iterates, residuals, op_residuals = [], [], []
    status = MAX_ITERS
    n = 0
    while True:
        ax = apply(x)
        y = x - step * ax
        if np.count_nonzero(np.isfinite(y)) != y.size:
            raise ValidationError("point has non-finite entries")
        proj = set_._project(y)
        d = x - proj
        r = math.sqrt(d.dot(d))
        iterates.append(x)
        residuals.append(r)
        if a_ref is not None:
            d = ax - a_ref
            op_residuals.append(math.sqrt(d.dot(d)))
        if r <= cfg.residual_tol:
            status = CONVERGED
            break
        if n >= cfg.max_iters:
            break
        x = advance(n, x, proj)
        if np.count_nonzero(np.isfinite(x)) != x.size:
            raise DivergenceError(n + 1)
        if x.shape != proj.shape:
            raise DimensionMismatchError(op.dim, x.shape)
        n += 1

    s = None if a_ref is None else np.asarray(op_residuals)
    return IterationTrace(  # which stores its own read-only copies
        iterates=iterates,
        natural_residuals=residuals,
        operator_residuals=s,
        shortcut_bounds=None if s is None or gamma <= 0.0 else shortcut_distance_bound(gamma, s),
        status=status,
        gamma=gamma,
    )


def solve_projected_gradient(
    op: AffineOperator,
    set_: ConvexSet,
    cfg: IterationConfig,
    x0,
    x_ref=None,
) -> IterationTrace:
    """Iterate x_{n+1} = P_C(x_n - lam * A x_n) until the natural residual drops
    below cfg.residual_tol or max_iters update steps have been taken."""
    return _run(op, set_, cfg, x0, x_ref, lambda n, x, proj: proj)


def solve_halpern(
    op: AffineOperator,
    set_: ConvexSet,
    s_map: NonexpansiveMap,
    cfg: IterationConfig,
    x0,
    anchor=None,
    x_ref=None,
) -> IterationTrace:
    """Anchored scheme x_{n+1} = a_n * anchor + (1 - a_n) * S(P_C(x_n - lam * A x_n)).

    The anchor defaults to the start point.  With S = Identity and a vanishing
    anchor weight the scheme tracks the projected-gradient limit.
    """
    anchor = np.asarray(x0 if anchor is None else anchor, dtype=float)
    _check_inputs(op, set_, s_map, anchor=anchor)
    sched = cfg.anchor_schedule

    def advance(n, x, proj):
        a = sched.weight(n)
        return a * anchor + (1.0 - a) * s_map.apply(proj)

    return _run(op, set_, cfg, x0, x_ref, advance)


def _check_delta(delta: float) -> None:
    if not (np.isfinite(delta) and delta * COMPARISON_TOL_FACTOR > 0.0):
        raise ConfigurationError("comparison target delta must be finite and positive, and "
                                 f"delta * {COMPARISON_TOL_FACTOR:g} nonzero; got {delta:g}")


@dataclass(frozen=True)
class ComparisonRecord:
    """First iterations at which each stopping criterion certifies |x_n - x*| <= delta."""

    delta: float
    shortcut_iteration: int | None
    natural_iteration: int | None
    trace: IterationTrace


def compare_stopping(
    op: AffineOperator,
    set_: ConvexSet,
    cfg: IterationConfig,
    x0,
    x_star,
    delta: float = DEFAULT_COMPARISON_DELTA,
) -> ComparisonRecord:
    """Run the projected-gradient scheme against a known solution and report the
    first iteration at which (a) the shortcut bound s_n / gamma and (b) the
    natural-residual bound C r_n (``natural_residual_factor``) fall to delta;
    a C that is not finite certifies nothing, so (b) is then None."""
    _check_delta(delta)
    moduli = certify_moduli(op)
    if moduli.expansiveness <= 0.0:
        raise ConfigurationError(
            "non-expansive operator: sigma_min(M) = 0, the shortcut bound is unavailable"
        )
    # Run past both thresholds: the natural-residual stop must not cut the trace before
    # either criterion can fire.  C r_n <= delta needs r_n <= delta / C; as s_n <= L C r_n,
    # s_n / gamma <= delta needs r_n <= delta gamma / (L C); halves absorb rounding.
    c = natural_residual_factor(op, cfg.step)
    natural_tol = delta * min(COMPARISON_TOL_FACTOR, 0.5 / c)
    if natural_tol == 0.0:  # C = inf, or delta / C underflows: C r_n certifies nothing
        c, natural_tol = math.inf, delta * COMPARISON_TOL_FACTOR
    tol = delta * min(COMPARISON_TOL_FACTOR, 0.5 * moduli.expansiveness / (moduli.lipschitz * c))
    inner = replace(cfg, residual_tol=min(cfg.residual_tol, tol or natural_tol))  # tol may be 0
    trace = solve_projected_gradient(op, set_, inner, x0, x_ref=x_star)
    with np.errstate(over="ignore"):  # a C r_n past the float range certifies nothing
        natural = _first_at_most(c * trace.natural_residuals, delta) if c < math.inf else None
    return ComparisonRecord(
        delta=delta,
        shortcut_iteration=_first_at_most(trace.shortcut_bounds, delta),
        natural_iteration=natural,
        trace=trace,
    )
