"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths of the package under test: singular
values come from power iteration on the Gram matrix or from a dense
eigendecomposition of M^T M (never np.linalg.svd, which the package uses), and
VI solutions come from grid search over an objective, or from the literal
all-pairs grid scan, rather than from the package's own corner-node oracle.
"""

from __future__ import annotations

import math

import numpy as np


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
    from vikit.operators import AffineOperator

    raw = rng.uniform(-1.0, 1.0, size=(dim, dim))
    sym_min = float(np.linalg.eigvalsh(0.5 * (raw + raw.T))[0])
    margin = rng.uniform(0.05, 1.0)
    offset = rng.uniform(-2.0, 2.0, size=dim)
    return AffineOperator(matrix=raw + (margin - sym_min) * np.eye(dim), offset=offset)
