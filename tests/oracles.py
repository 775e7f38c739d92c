"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths of the package under test: singular
values come from power iteration on the Gram matrix or from a dense
eigendecomposition of M^T M (never np.linalg.svd, which the package uses), and
VI solutions come from grid search over an objective, or from the literal
all-pairs grid scan, rather than from the package's own corner-node oracle,
whose corner mask and inner minimum also have row-wise references here;
simplex grid points from a recursive generator of integer compositions,
box grid points from a stack of raveled ``meshgrid`` axes.
The solver loop and the trace CSV writer also have literal references here:
a loop that re-checks every input, spells out A x = Mx + q itself and
projects through the public ``project``, and a writer built on ``csv.writer``;
so do the box, ball and simplex projections, as bodies that go through numpy's
function wrappers.
The pairwise checkers have a sampled counterpart: the ``sampled_*`` functions
evaluate each inequality on explicit pairs (x, y), independent of the
package's eigenvalue engine.  That engine has a literal reference too,
``reference_check_forms``, which forms every Q and calls eigvalsh on it; for a
form in M^T M alone that is a route of its own, since the package reads M^T M's
spectrum as the squared singular values of its SVD.
The decoder's guard has one too: ``literal_same_as_json`` walks every number
row with ``min`` and ``max``, where the package first tries one ``math.hypot``.
``contains``, the membership test the tests use, lives here: the package itself
never asks whether a point is in a set.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import suppress

import numpy as np

from vikit.errors import DimensionMismatchError, ValidationError
from vikit.geometry import ConvexSet
from vikit.operators import (
    EXACT_NOTE,
    FAIL,
    PASS,
    PRECONDITION_VIOLATED,
    RELATIVE_TOLERANCE,
    AffineOperator,
    VerificationReport,
    pairwise_report,
)
from vikit.verification import _check_lemma22_constants


def _lam_max(gram: np.ndarray, max_iters: int = 500_000, rtol: float = 1e-15) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration."""
    n = gram.shape[0]
    v = 1.0 + 0.001 * np.arange(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        w = gram @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        lam_new = float(v @ (gram @ v))
        if abs(lam_new - lam) <= rtol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


def power_sigma_max(matrix: np.ndarray) -> float:
    gram = matrix.T @ matrix
    return math.sqrt(max(_lam_max(gram), 0.0))


def power_sigma_min(matrix: np.ndarray) -> float:
    """Smallest singular value via power iteration on the shifted Gram matrix."""
    gram = matrix.T @ matrix
    shift = _lam_max(gram) + 1.0
    flipped = shift * np.eye(gram.shape[0]) - gram
    return math.sqrt(max(shift - _lam_max(flipped), 0.0))


def gram_spectral(matrix: np.ndarray) -> tuple[float, float, float]:
    """(sigma_max, sigma_min, lambda_min of the symmetric part) via dense
    eigendecompositions of M^T M and (M + M^T)/2."""
    lams = np.linalg.eigvalsh(matrix.T @ matrix)
    sym_lams = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
    return (
        math.sqrt(max(float(lams[-1]), 0.0)),
        math.sqrt(max(float(lams[0]), 0.0)),
        float(sym_lams[0]),
    )


def min_singular_vector(matrix: np.ndarray) -> np.ndarray:
    """Unit right-singular vector for the smallest singular value."""
    lams, vecs = np.linalg.eigh(matrix.T @ matrix)
    return vecs[:, 0]


def box_quadratic_grid_argmin(matrix, offset, lower, upper, spacing) -> np.ndarray:
    """Grid minimizer of f(x) = 0.5 x^T M x + q^T x over a box (symmetric M).

    For symmetric positive definite M the VI with A = grad f on the box is the
    box-constrained quadratic program this grid search solves.
    """
    matrix = np.asarray(matrix, dtype=float)
    offset = np.asarray(offset, dtype=float)
    axes = [
        lo + spacing * np.arange(int(math.floor((hi - lo) / spacing + 1e-9)) + 1)
        for lo, hi in zip(lower, upper)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    best_val = math.inf
    best = pts[0]
    for start in range(0, pts.shape[0], 65536):
        block = pts[start : start + 65536]
        vals = 0.5 * np.einsum("ij,ij->i", block @ matrix, block) + block @ offset
        idx = int(np.argmin(vals))
        if float(vals[idx]) < best_val:
            best_val = float(vals[idx])
            best = block[idx]
    return best.copy()


def literal_vi_gaps(op, grid) -> np.ndarray:
    """min over every grid point y of <Ax, y - x>, for each grid point x: the
    literal O(N^2) scan, in chunks of 512 rows."""
    pts = grid.points()
    a_vals = pts @ op.matrix.T + op.offset
    gaps = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], 512):
        stop = min(start + 512, pts.shape[0])
        block = a_vals[start:stop]
        inner_min = np.min(block @ pts.T, axis=1)
        gaps[start:stop] = inner_min - np.einsum("ij,ij->i", block, pts[start:stop])
    return gaps


def literal_grid_vi(op, grid) -> np.ndarray:
    """Grid points x with <Ax, y - x> >= -vi_tolerance against every grid
    point y, in lexicographic row order."""
    return grid.points()[literal_vi_gaps(op, grid) >= -grid.vi_tolerance]


# The grid oracle's two reductions as they were before they ran along the long
# axis: the corner mask over whole rows, and the inner minimum along each row.


def literal_extreme_nodes(pts: np.ndarray) -> np.ndarray:
    """Rows of ``pts`` whose every coordinate is the minimum or maximum of its axis."""
    return pts[np.all((pts == pts.min(axis=0)) | (pts == pts.max(axis=0)), axis=1)]


def literal_inner_min(a_vals: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """min over the rows y of ``nodes`` of <a, y>, for each row a of ``a_vals``."""
    return np.min(a_vals @ nodes.T, axis=1)


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of length ``parts`` summing to ``total``,
    in lexicographic order: the simplex grid's recursive generator, before the
    package built the lattice with ``np.indices``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def literal_grid_points(grid) -> np.ndarray:
    """A box grid's points in lexicographic row order, as one C-ordered stack of
    raveled ``meshgrid`` axes: the package's expression before it reshaped one
    array of the axes.  Each axis holds the nodes lo + i h for every i >= 0 with
    lo + i h <= hi + 4 ulp(max(|lo|, |hi|)), found node by node, not from the
    package's step count."""
    axes = []
    for lo, hi in zip(grid.set_.lower.tolist(), grid.set_.upper.tolist()):
        nodes = lo + grid.h * np.arange(int((hi - lo) / grid.h) + 2)
        axes.append(nodes[nodes <= hi + 4 * math.ulp(max(abs(lo), abs(hi)))])
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def contains(set_: ConvexSet, x, tol: float = 0.0) -> bool:
    """True iff x lies within distance tol of the set."""
    if tol < 0.0:
        raise ValidationError("tolerance must be nonnegative")
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x - set_.project(x))) <= tol


def diameter(points: np.ndarray) -> float:
    """Max pairwise euclidean distance, chunked."""
    best = 0.0
    sq = np.sum(points**2, axis=1)
    for start in range(0, points.shape[0], 512):
        block = points[start : start + 512]
        d2 = sq[start : start + 512, None] + sq[None, :] - 2.0 * (block @ points.T)
        best = max(best, float(np.max(d2)))
    return math.sqrt(max(best, 0.0))


def sample_in_set(set_, rng: np.random.Generator, count: int) -> np.ndarray:
    """Points guaranteed to lie in the set (up to roundoff), one variant each."""
    from vikit.geometry import AffineSubspace, Ball, Box, Halfspace, Simplex

    n = set_.dim
    if isinstance(set_, Box):
        return rng.uniform(set_.lower, set_.upper, size=(count, n))
    if isinstance(set_, Ball):
        raw = rng.normal(size=(count, n))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = set_.radius * rng.uniform(size=(count, 1)) ** (1.0 / n)
        return set_.center[None, :] + radii * raw
    if isinstance(set_, Halfspace):
        pts = rng.uniform(-10.0, 10.0, size=(count, n))
        slack = pts @ set_.normal - set_.offset
        scale = np.maximum(slack, 0.0) / float(set_.normal @ set_.normal)
        return pts - 2.0 * scale[:, None] * set_.normal[None, :]
    if isinstance(set_, Simplex):
        raw = rng.exponential(size=(count, n))
        return raw / np.sum(raw, axis=1, keepdims=True)
    if isinstance(set_, AffineSubspace):
        k = set_.orthonormal_basis.shape[0]
        coeffs = rng.uniform(-10.0, 10.0, size=(count, k))
        return set_.basepoint[None, :] + coeffs @ set_.orthonormal_basis
    raise TypeError(f"no sampler for {type(set_)!r}")


def random_monotone_operator(rng: np.random.Generator, dim: int):
    """Random affine operator whose symmetric part has a known positive
    smallest eigenvalue (drawn from [0.05, 1])."""
    raw = rng.uniform(-1.0, 1.0, size=(dim, dim))
    sym_min = float(np.linalg.eigvalsh(0.5 * (raw + raw.T))[0])
    margin = rng.uniform(0.05, 1.0)
    offset = rng.uniform(-2.0, 2.0, size=dim)
    return AffineOperator(matrix=raw + (margin - sym_min) * np.eye(dim), offset=offset)


def literal_run(op, set_, cfg, x0, x_ref, advance):
    """Drop-in for ``vikit.solvers._run`` that checks every input of every
    iteration: A x_n as ``op.matrix @ x + op.offset``, independent of the
    package's ``AffineOperator.apply``, and the projection through the public
    ``project``, each with its own shape and finiteness checks."""
    from vikit.errors import DimensionMismatchError, DivergenceError, ValidationError
    from vikit.geometry import project
    from vikit.solvers import CONVERGED, MAX_ITERS, IterationTrace, _check_inputs, _check_step

    def evaluate(op, x):
        """Mx + q for x checked as ``vikit.operators.evaluate`` checks it."""
        x = np.asarray(x, dtype=float)
        if x.shape != (op.dim,):
            raise DimensionMismatchError(op.dim, x.shape, what="vector")
        if not np.all(np.isfinite(x)):
            raise ValidationError("input vector has non-finite entries")
        return op.matrix @ x + op.offset

    gamma = _check_step(op, cfg)
    _check_inputs(op, set_, x0=x0)
    x = project(set_, x0)
    a_ref = None
    if x_ref is not None:
        x_ref = np.asarray(x_ref, dtype=float)
        a_ref = evaluate(op, x_ref)

    iterates, residuals, op_residuals, bounds = [], [], [], []
    status = MAX_ITERS
    n = 0
    while True:
        ax = evaluate(op, x)
        proj = project(set_, x - cfg.step * ax)
        r = float(np.linalg.norm(x - proj))
        iterates.append(x)
        residuals.append(r)
        if a_ref is not None:
            s = float(np.linalg.norm(ax - a_ref))
            op_residuals.append(s)
            if gamma > 0.0:
                bounds.append(s / gamma)
        if r <= cfg.residual_tol:
            status = CONVERGED
            break
        if n >= cfg.max_iters:
            break
        x_next = advance(n, x, proj)
        if not np.all(np.isfinite(x_next)):
            raise DivergenceError(n + 1)
        x = x_next
        n += 1

    return IterationTrace(
        iterates=np.asarray(iterates),
        natural_residuals=np.asarray(residuals),
        operator_residuals=np.asarray(op_residuals) if a_ref is not None else None,
        shortcut_bounds=np.asarray(bounds) if (a_ref is not None and gamma > 0.0) else None,
        status=status,
        gamma=gamma,
    )


def assert_same_trace(lean, literal):
    """Same status, row count and gamma, and the same bits in every column."""
    assert (lean.status, lean.rows, lean.gamma) == (literal.status, literal.rows, literal.gamma)
    for name in ("iterates", "natural_residuals", "operator_residuals", "shortcut_bounds"):
        a, b = getattr(lean, name), getattr(literal, name)
        assert (a is None) == (b is None), name
        assert a is None or (a.shape == b.shape and a.tobytes() == b.tobytes()), name


def literal_trace_csv(trace, x_star=None) -> str:
    """The trace CSV text, one ``csv.writer`` row per iteration: n, r_n, s_n,
    bound_n and, with x_star, dist_n; a missing column is left blank."""
    def fmt(value):
        return repr(float(value))

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["n", "r_n", "s_n", "bound_n"]
    distances = None
    if x_star is not None:
        header.append("dist_n")
        distances = trace.distances_to(x_star)
    writer.writerow(header)
    for i in range(trace.rows):
        row = [str(i), fmt(trace.natural_residuals[i])]
        row.append("" if trace.operator_residuals is None else fmt(trace.operator_residuals[i]))
        row.append("" if trace.shortcut_bounds is None else fmt(trace.shortcut_bounds[i]))
        if distances is not None:
            row.append(fmt(distances[i]))
        writer.writerow(row)
    return buffer.getvalue()


def literal_projection_apply(self, x):
    """``ProjectionOnto.apply`` through the public, input-checking ``project``."""
    return self.set_.project(x)


# -- projections through numpy's function wrappers ----------------------------
# The bodies of ``Box._project``, ``Ball._project`` and ``Simplex._project``
# before they called ufuncs and array methods directly; each takes the set as
# ``self``.


def literal_box_project(self, x):
    return np.clip(x, self.lower, self.upper)


def literal_ball_project(self, x):
    d = x - self.center
    dist = float(np.linalg.norm(d))
    if dist <= self.radius:
        return x
    return self.center + (self.radius / dist) * d


def literal_simplex_project(self, x):
    # Sort-and-threshold; the >= keeps the largest feasible support on ties.
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, self.n + 1)
    feasible = np.nonzero(u - (css - 1.0) / j >= 0.0)[0]
    rho = feasible[-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(x - theta, 0.0)


# -- sampled pairwise checkers ------------------------------------------------
# The package's pairwise checkers as they were before the exact engine: each
# inequality is evaluated on explicit pairs with an additive tolerance, and a
# report's witness is the first violating pair in sample order.

SAMPLED_TOLERANCE = 1e-9


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise inner products of two (k, n) arrays."""
    return np.einsum("ij,ij->i", a, b)


def check_pairs(op: AffineOperator, name: str, pairs, seed, deficits) -> VerificationReport:
    """Engine of the sampled checkers: normalize the pairs to two validated
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


def sampled_check_ism(
    op: AffineOperator,
    alpha: float,
    pairs,
    tolerance: float = SAMPLED_TOLERANCE,
    seed: int | None = None,
) -> VerificationReport:
    """Check <Ax - Ay, x - y> >= alpha * |Ax - Ay|^2 on every pair."""
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise ValidationError("ism modulus alpha must be finite and positive")
    return check_pairs(
        op, f"ism(alpha={alpha:g})", pairs, seed,
        lambda z, dz: alpha * rowdot(dz, dz) - rowdot(dz, z) - tolerance,
    )


def sampled_check_relaxed_cocoercive(
    op: AffineOperator,
    u: float,
    v: float,
    pairs,
    tolerance: float = SAMPLED_TOLERANCE,
    seed: int | None = None,
) -> VerificationReport:
    """Check <Ax - Ay, x - y> >= -u|Ax - Ay|^2 + v|x - y|^2 on every pair."""
    if not (np.isfinite(v) and v > 0.0):
        raise ValidationError("cocoercivity constant v must be finite and positive")
    if not (np.isfinite(u) and u >= 0.0):
        raise ValidationError("cocoercivity constant u must be finite and nonnegative")
    return check_pairs(
        op, f"relaxed_cocoercive(u={u:g},v={v:g})", pairs, seed,
        lambda z, dz: -u * rowdot(dz, dz) + v * rowdot(z, z) - rowdot(dz, z) - tolerance,
    )


def sampled_check_expansive(
    op: AffineOperator,
    gamma: float,
    pairs,
    tolerance: float = SAMPLED_TOLERANCE,
    seed: int | None = None,
) -> VerificationReport:
    """Check |A x - A y| >= gamma * |x - y| - tolerance on every pair."""
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValidationError("expansiveness modulus gamma must be finite and positive")
    return check_pairs(
        op, f"expansive(gamma={gamma:g})", pairs, seed,
        lambda z, dz: gamma * np.linalg.norm(z, axis=1) - np.linalg.norm(dz, axis=1) - tolerance,
    )


def sampled_lemma_cocoercive_expansive(
    op: AffineOperator,
    m: float,
    v: float,
    eps: float,
    pairs,
    tolerance: float = SAMPLED_TOLERANCE,
    seed: int | None = None,
) -> tuple[VerificationReport, float]:
    """Derive the expansiveness modulus gamma = v - m*eps^2 of a relaxed
    (m, v)-cocoercive, eps-Lipschitz operator and verify it on sampled pairs.

    Checks both |Ax - Ay| >= gamma|x - y| and the intermediate squared form
    <Ax - Ay, x - y> >= gamma|x - y|^2 (the first follows from the second by
    Cauchy-Schwarz).  Returns (report, gamma); when gamma <= 0 the hypothesis
    fails and the report status is PreconditionViolated.
    """
    _check_lemma22_constants(m, v, eps)  # the library's input rule; the check stays apart
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
            gamma * norm_z**2 - rowdot(dz, z) - tolerance,
        ])

    return check_pairs(op, name, pairs, seed, deficits), gamma


# -- reference quadratic-form engine ------------------------------------------
# The package's ``operators._check_forms`` as it was before the shared spectra:
# every form builds its Q and takes its own eigvalsh, one-term forms included,
# where the package reads a one-term form from eigvalsh(M_s) or the SVD of M.


def reference_check_forms(op: AffineOperator, name: str, forms) -> VerificationReport:
    """Engine of the pairwise checkers.  Each (a, b, c) in ``forms`` is the
    inequality z^T Q z >= 0 for all z, with Q = a M_s + b M^T M + c I; for
    z = x - y it is the checker's inequality on the pair (x, y).

    A form holds iff lambda_min(Q) >= 0, and it passes iff lambda_min(Q) >=
    -RELATIVE_TOLERANCE * S with S = |a| |M_s| + |b| |M^T M| + |c|, where |T| is
    the largest absolute row sum, a bound on the spectral norm of a symmetric
    T.  S scales with the terms, not with Q, which is ~0 at a tight modulus.
    The report's max_violation is the largest deficit -lambda_min(Q) - tol * S;
    a failing report's witness is (w, 0) for the unit eigenvector w of
    lambda_min of the worst form.  A Q or S that overflows raises
    ValidationError, since a non-finite Q has no meaningful spectrum.
    """
    n = op.dim
    forms_q, deficits = [], []
    for a, b, c in forms:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
            q = c * np.eye(n)
            scale = abs(c)
            if a:
                q += a * op._sym
                scale += abs(a) * np.linalg.norm(op._sym, np.inf)
            if b:
                q += b * op._gram
                scale += abs(b) * np.linalg.norm(op._gram, np.inf)
        if not (np.isfinite(q).all() and np.isfinite(scale)):
            raise ValidationError(f"{name}: the quadratic form overflows a float")
        forms_q.append(q)
        deficits.append(-np.linalg.eigvalsh(q)[0] - RELATIVE_TOLERANCE * scale)
    worst = int(np.argmax(deficits))  # a NaN deficit counts as the worst
    max_violation = float(deficits[worst])
    witness = None
    if not max_violation <= 0.0:
        witness = (np.linalg.eigh(forms_q[worst])[1][:, 0], np.zeros(n))
    return VerificationReport(
        property=name,
        status=PASS if witness is None else FAIL,
        witness=witness,
        max_violation=max_violation,
        note=EXACT_NOTE,
    )


# -- reference decoder guard ---------------------------------------------------
# ``cli._same_as_json`` as it was before its one-hypot test of a number row.
_FAST_DEPTH, _FAST_MAGNITUDE = 64, 2.0**63


def literal_same_as_json(value, depth: int = 0) -> bool:
    """True when orjson's decoded ``value`` is certainly what json would decode."""
    value = list(value.values()) if isinstance(value, dict) else value
    if not isinstance(value, list):
        return not isinstance(value, (int, float)) or abs(value) < _FAST_MAGNITUDE
    if depth == _FAST_DEPTH:
        return False
    if value and type(value[0]) in (int, float):
        with suppress(TypeError):  # a non-number follows: check item by item
            return -_FAST_MAGNITUDE < min(value) and max(value) < _FAST_MAGNITUDE
    return all(literal_same_as_json(item, depth + 1) for item in value)
