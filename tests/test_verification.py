import itertools
import json
import math

import numpy as np
import pytest

from vikit import operators, verification
from vikit.errors import DimensionMismatchError, ValidationError
from vikit.geometry import Ball, Box, Simplex
from vikit.operators import (
    AffineOperator,
    _check_forms,
    certify_moduli,
    check_expansive,
    check_ism,
    check_relaxed_cocoercive,
    sample_pairs,
)
from vikit.solvers import IterationConfig, solve_projected_gradient
from vikit.verification import (
    BruteForceGrid,
    brute_force_vi,
    check_singleton_vi,
    lemma_cocoercive_expansive,
)

from oracles import (
    _compositions,
    diameter,
    literal_extreme_nodes,
    literal_grid_points,
    literal_grid_vi,
    literal_inner_min,
    literal_vi_gaps,
    random_monotone_operator,
    reference_check_forms,
    sampled_check_expansive,
    sampled_check_ism,
    sampled_check_relaxed_cocoercive,
    sampled_lemma_cocoercive_expansive,
)

UNIT_BOX = Box(lower=[0.0, 0.0], upper=[1.0, 1.0])
IDENTITY_OP = AffineOperator(matrix=np.eye(2), offset=[-0.5, -0.5])
DIAG_OP = AffineOperator(matrix=[[2.0, 0.0], [0.0, 1.0]], offset=[-2.0, 1.0])
ZERO_OP = AffineOperator(matrix=np.zeros((2, 2)), offset=[0.0, 0.0])
NON_FINITE = [math.nan, math.inf, -math.inf]
# Offsets of a translated box; float spacing at 1e10 is ~1.9e-6.
FAR_OFFSETS = [0.0, 1e4, 1e6, 1e7, 1e8, 1e10]


class TestGrid:
    def test_box_count_and_lexicographic_order(self):
        grid = BruteForceGrid(set_=UNIT_BOX, h=0.5)
        pts = grid.points()
        assert grid.count() == 9
        assert pts.shape == (9, 2)
        # lexicographic: first coordinate slowest
        np.testing.assert_allclose(pts[:3], [[0.0, 0.0], [0.0, 0.5], [0.0, 1.0]])
        np.testing.assert_allclose(pts[-1], [1.0, 1.0])

    def test_simplex_count_and_membership(self):
        grid = BruteForceGrid(set_=Simplex(3), h=0.1)
        pts = grid.points()
        assert grid.count() == math.comb(12, 2)
        assert pts.shape[0] == grid.count()
        np.testing.assert_allclose(np.sum(pts, axis=1), 1.0, atol=1e-12)
        assert np.all(pts >= 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("h", [1.0, 0.5, 0.1, 0.01])
    def test_simplex_points_match_the_recursive_generator(self, n, h):
        grid = BruteForceGrid(set_=Simplex(n), h=h)
        literal = np.array(list(_compositions(round(1.0 / h), n)), dtype=float) * h
        got = grid.points()
        assert got.dtype == literal.dtype and got.shape == literal.shape
        assert got.tobytes() == literal.tobytes()

    @pytest.mark.parametrize("lower,upper,h", [
        ([0.0], [1.0], 0.1),
        ([-1.5], [-1.5], 0.3),
        ([0.0, 0.0], [1.0, 1.0], 0.02),
        ([-2.0, 0.5], [1.1, 0.5], 0.7),
        ([0.0, -1.0, 2.0], [1.0, 1.0, 2.5], 0.25),
        ([0.3, 0.3, -0.4], [0.3, 1.0, 0.9], 0.45),
        *[([c + 0.3], [c + 0.3 + 0.35], 0.05) for c in FAR_OFFSETS],
    ])
    def test_box_points_match_the_stacked_axes(self, lower, upper, h):
        grid = BruteForceGrid(set_=Box(lower=lower, upper=upper), h=h)
        literal = literal_grid_points(grid)
        got = grid.points()
        assert got.dtype == literal.dtype and np.array_equal(got, literal)
        assert got.shape == (grid.count(), len(lower))

    @pytest.mark.parametrize("lower,upper,h,count", [
        # a width of 7 steps at every offset, however lo and hi round there
        *[([c + 0.3], [c + 0.3 + 0.35], 0.05, 8) for c in FAR_OFFSETS],
        # the unit square: floor(1 / h) + 1 nodes per axis, 1 / 0.3 and 1 / 0.001 included
        *[([0.0, 0.0], [1.0, 1.0], h, count) for h, count in [
            (0.01, 101**2), (0.02, 51**2), (0.05, 21**2), (0.1, 11**2), (0.25, 5**2),
            (1.0 / 3.0, 4**2), (0.3, 4**2), (0.001, 1001**2)]],
    ])
    def test_box_node_count(self, lower, upper, h, count):
        assert BruteForceGrid(set_=Box(lower=lower, upper=upper), h=h).count() == count

    def test_golden_box_points_match_the_stacked_axes(self, golden_oracle):
        boxes = [entry["grid"] for entry in golden_oracle.values()
                 if isinstance(entry["grid"].set_, Box)]
        assert len(boxes) == 3
        for grid in boxes:
            assert np.array_equal(grid.points(), literal_grid_points(grid))

    def test_simplex_spacing_must_divide_one(self):
        with pytest.raises(ValidationError):
            BruteForceGrid(set_=Simplex(2), h=0.3)

    def test_point_count_guard(self):
        with pytest.raises(ValidationError, match="guard"):
            BruteForceGrid(set_=UNIT_BOX, h=1e-5)

    def test_only_box_and_simplex_supported(self):
        with pytest.raises(ValidationError):
            BruteForceGrid(set_=Ball(center=[0.0, 0.0], radius=1.0), h=0.1)

    def test_dimension_guard(self):
        cube4 = Box(lower=np.zeros(4), upper=np.ones(4))
        with pytest.raises(ValidationError, match="dimension"):
            BruteForceGrid(set_=cube4, h=0.5)

    def test_zero_spacing_rejected(self):
        with pytest.raises(ValidationError, match="^grid spacing must be positive$"):
            BruteForceGrid(set_=UNIT_BOX, h=0.0)

    def test_vi_tolerance_positive(self):
        with pytest.raises(ValidationError):
            BruteForceGrid(set_=UNIT_BOX, h=0.1, vi_tolerance=0.0)


class TestBruteForceVi:
    def test_identity_instance_clusters_at_center(self, golden_oracle):
        # same instance as the box_identity golden: A(x) = x - (0.5, 0.5)
        sols = golden_oracle["box_identity"]["solutions"]
        assert sols.shape[0] >= 1
        dists = np.linalg.norm(sols - np.array([0.5, 0.5]), axis=1)
        assert np.max(dists) <= 0.01 * np.sqrt(2)

    def test_diagonal_instance_clusters_at_corner(self, golden_oracle):
        sols = golden_oracle["box_diag"]["solutions"]
        assert sols.shape[0] >= 1
        dists = np.linalg.norm(sols - np.array([1.0, 0.0]), axis=1)
        assert np.max(dists) <= 0.01 * np.sqrt(2)

    def test_zero_operator_returns_every_grid_point(self):
        grid = BruteForceGrid(set_=UNIT_BOX, h=0.1)
        sols = brute_force_vi(ZERO_OP, grid)
        assert sols.shape[0] == grid.count()

    def test_output_is_lexicographically_sorted(self):
        grid = BruteForceGrid(set_=UNIT_BOX, h=0.25)
        sols = brute_force_vi(ZERO_OP, grid)
        as_tuples = [tuple(row) for row in sols]
        assert as_tuples == sorted(as_tuples)

    def test_operator_and_grid_dimensions_must_match(self):
        grid = BruteForceGrid(set_=UNIT_BOX, h=0.1)
        op3 = AffineOperator(matrix=np.eye(3), offset=np.zeros(3))
        with pytest.raises(DimensionMismatchError,
                           match="^constraint set has dimension 2, expected 3$"):
            brute_force_vi(op3, grid)


def _random_grid_instance(rng, kind):
    """A seeded (operator, grid) pair of dimension 1-3 for the oracle
    cross-check.  ``kind`` is "box" (float operator), "box_integer" (integer
    M and q, dyadic spacing and tolerance: exact ties, also at the tolerance
    edge), "box_degenerate" (an axis with lo == hi and a spacing that does not
    divide hi - lo) or "simplex"."""
    dim = int(rng.integers(1, 4))
    tolerance = 1e-9
    if kind == "simplex":
        grid = BruteForceGrid(set_=Simplex(dim), h=1.0 / int(rng.integers(1, 25)))
    else:
        lower = rng.uniform(-2.0, 2.0, size=dim)
        extent = rng.uniform(0.0, 2.0, size=dim)
        h = float(rng.choice([0.1, 0.25, 0.3, 0.5, 0.7]))
        if kind == "box_integer":
            lower, extent = np.round(lower), np.round(extent)
            h = float(rng.choice([0.25, 0.5, 1.0]))
            tolerance = float(rng.choice([1e-9, 0.25, 1.0]))
        if kind == "box_degenerate":
            extent[rng.integers(dim)] = 0.0
            h = float(rng.choice([0.3, 0.45, 0.7]))
        box = Box(lower=lower, upper=lower + extent)
        grid = BruteForceGrid(set_=box, h=h, vi_tolerance=tolerance)
    operator_kind = rng.integers(3)
    if operator_kind == 0:
        return AffineOperator(matrix=np.zeros((dim, dim)), offset=np.zeros(dim)), grid
    if operator_kind == 1 or kind == "box_integer":
        matrix = rng.integers(-3, 4, size=(dim, dim)).astype(float)
        return AffineOperator(matrix=matrix, offset=rng.integers(-3, 4, size=dim)), grid
    return AffineOperator(matrix=rng.uniform(-2.0, 2.0, size=(dim, dim)),
                          offset=rng.uniform(-2.0, 2.0, size=dim)), grid


GRID_KINDS = ("box", "box_integer", "box_degenerate", "simplex")


class TestOracleCrossCheck:
    """The corner-node oracle returns exactly the rows of the literal
    all-pairs scan in tests/oracles.py."""

    def test_goldens(self, golden_oracle):
        for name, entry in golden_oracle.items():
            literal = literal_grid_vi(entry["scenario"].operator, entry["grid"])
            assert np.array_equal(entry["solutions"], literal), name

    def test_random_grids(self):
        # 240 instances; the set records that they include what makes ties
        # and odd grids: zero operators, lo == hi axes, non-integral steps,
        # nodes whose gap is exactly -vi_tolerance
        seen = set()
        for index, kind in enumerate(GRID_KINDS):
            for seed in range(60):
                op, grid = _random_grid_instance(np.random.default_rng([index, seed]), kind)
                gaps = literal_vi_gaps(op, grid)
                literal = grid.points()[gaps >= -grid.vi_tolerance]
                assert np.array_equal(brute_force_vi(op, grid), literal), (kind, seed)
                seen.add((kind, op.dim))
                if not (np.any(op.matrix) or np.any(op.offset)):
                    seen.add((kind, "zero"))
                if isinstance(grid.set_, Box):
                    steps = (grid.set_.upper - grid.set_.lower) / grid.h
                    if np.any(steps == 0.0):
                        seen.add("lo == hi")
                    if np.any(np.abs(steps - np.round(steps)) > 1e-6):
                        seen.add("non-integral steps")
                if np.any(gaps == -grid.vi_tolerance):
                    seen.add("tolerance edge")
        for kind in GRID_KINDS:
            assert {(kind, 1), (kind, 2), (kind, 3), (kind, "zero")} <= seen
        assert {"lo == hi", "non-integral steps", "tolerance edge"} <= seen


class TestExtremeNodes:
    def test_box_corners_are_axis_end_products(self):
        rng = np.random.default_rng(3)
        for lower, upper, h in [
            ([0.0, -1.0, 2.0], [1.0, 0.5, 2.0], 0.3),  # degenerate third axis
            ([0.0, 0.0], [1.0, 1.0], 0.01),
            ([-1.5], [0.2], 0.7),
            *[(lo, lo + rng.uniform(0.0, 2.0, size=3), 0.35)
              for lo in rng.uniform(-2.0, 2.0, size=(5, 3))],
        ]:
            grid = BruteForceGrid(set_=Box(lower=lower, upper=upper), h=h)
            ends = [
                sorted({lo, lo + h * steps})
                for lo, steps in zip(grid.set_.lower, grid._axis_steps())
            ]
            expected = np.array(list(itertools.product(*ends)))
            pts = grid.points()
            corners = grid.extreme_nodes()
            assert np.array_equal(corners, expected)
            assert all(np.any(np.all(pts == row, axis=1)) for row in corners)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_simplex_vertices(self, dim):
        for k in (1, 3, 10, 100):
            grid = BruteForceGrid(set_=Simplex(dim), h=1.0 / k)
            pts = grid.points()
            vertices = grid.extreme_nodes()
            expected = sorted(tuple(k * grid.h * np.eye(dim)[j]) for j in range(dim))
            assert np.array_equal(vertices, np.array(expected))
            assert all(np.any(np.all(pts == row, axis=1)) for row in vertices)

    def test_equal_to_the_scan_of_every_node_without_building_the_grid(self, monkeypatch):
        grids = [BruteForceGrid(set_=Box(lower=lo, upper=hi), h=h) for lo, hi, h in [
            ([0.3], [0.3], 0.1),  # lo == hi
            ([-1.0], [0.45], 0.2),  # h does not divide the side
            ([0.0, 2.0], [1.0, 2.0], 0.3),
            ([-0.0, -1.0], [0.5, 0.0], 0.5),  # -0.0 + 0.0 is +0.0 in both
            ([-1.0, 0.5, 0.0], [0.7, 0.5, 1.3], 0.4),
            ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 0.5),
            ([0.1, 0.2, 0.3], [0.9, 1.4, 0.65], 0.07),
        ]]
        grids += [BruteForceGrid(set_=Simplex(n), h=1.0 / k) for n in (1, 2, 3) for k in (1, 3, 7)]
        literals = [literal_extreme_nodes(grid.points()) for grid in grids]
        monkeypatch.setattr(BruteForceGrid, "points", lambda self: pytest.fail("grid built"))
        for grid, literal in zip(grids, literals):
            nodes = grid.extreme_nodes()
            assert nodes.flags.c_contiguous
            assert (nodes.shape, nodes.tobytes()) == (literal.shape, literal.tobytes())

    def test_nodes_rounded_onto_a_corner_leave_the_inner_minimum(self):
        # |lo| >> h * steps: interior nodes round onto the axis's ends, so the
        # scan returns them too; the grid's corners omit the repeats.
        grid = BruteForceGrid(set_=Box(lower=[1e17, 0.0], upper=[1e17 + 64.0, 1.0]), h=0.5)
        pts = grid.points()
        nodes, scanned = grid.extreme_nodes(), literal_extreme_nodes(pts)
        assert nodes.shape[0] == 4 < scanned.shape[0]
        assert {tuple(row) for row in nodes} == {tuple(row) for row in scanned}
        op = AffineOperator(matrix=[[2.0, 1.0], [-1.0, 3.0]], offset=[-1.0, 0.5])
        a_vals = pts @ op.matrix.T + op.offset
        assert (literal_inner_min(a_vals, nodes).tobytes()
                == literal_inner_min(a_vals, scanned).tobytes())


class TestSingletonCheck:
    def test_expansive_instance_passes(self, golden_oracle):
        report = golden_oracle["box_diag"]["singleton"]
        assert report.status == "Pass"
        assert report.witness is None
        assert report.max_violation <= 0.0

    def test_zero_operator_fails_with_extreme_witness(self):
        grid = BruteForceGrid(set_=UNIT_BOX, h=0.1)
        report = check_singleton_vi(brute_force_vi(ZERO_OP, grid), grid)
        assert report.status == "Fail"
        wx, wy = report.witness
        assert np.linalg.norm(wx - wy) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_one_dimensional_instance(self):
        line = Box(lower=[0.0], upper=[1.0])
        op = AffineOperator(matrix=[[1.0]], offset=[-0.3])
        grid = BruteForceGrid(set_=line, h=1e-3)
        sols = brute_force_vi(op, grid)
        report = check_singleton_vi(sols, grid)
        assert report.status == "Pass"
        assert np.all(np.abs(sols - 0.3) <= 1e-3)

    def test_empty_solution_set_reported(self):
        # solution sits off-grid; with a tiny tolerance no grid point qualifies
        off_grid = AffineOperator(matrix=np.eye(2), offset=[-0.5005, -0.5005])
        grid = BruteForceGrid(set_=UNIT_BOX, h=0.01)
        report = check_singleton_vi(brute_force_vi(off_grid, grid), grid)
        assert report.status == "Fail"
        assert report.witness is None
        assert report.note == "VI(C,A) empty at this resolution"

    def test_simplex_instance_passes(self, golden_oracle):
        assert golden_oracle["simplex_rotation"]["singleton"].status == "Pass"

    @pytest.mark.parametrize("set_, h", [
        (UNIT_BOX, 0.05),
        (Box(lower=[0.0] * 3, upper=[1.0] * 3), 0.1),
        (Simplex(3), 0.05),
    ], ids=["box2", "box3", "simplex3"])
    def test_flat_operator_fails_on_a_pair_past_the_threshold(self, set_, h):
        # 1e-12 I makes every node a solution: the set spans C, no singleton
        flat = AffineOperator(matrix=1e-12 * np.eye(set_.dim), offset=np.zeros(set_.dim))
        grid = BruteForceGrid(set_=set_, h=h)
        sols = brute_force_vi(flat, grid)
        assert sols.shape[0] == grid.count()
        report = check_singleton_vi(sols, grid)
        threshold = 2.0 * h * math.sqrt(set_.dim)
        gap = float(np.linalg.norm(report.witness[0] - report.witness[1]))
        assert report.status == "Fail" and gap > threshold
        assert report.max_violation == gap - threshold


def random_grid_cases(seed: int, count: int):
    """Seeded (operator, grid) pairs on boxes and simplices with n = 1-3, the
    operator scaled by 1 down to 1e-12, so that its solution set ranges from
    one node to every node of the grid."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 4))
        op = random_monotone_operator(rng, n)
        scale = 10.0 ** -float(rng.choice([0, 3, 6, 9, 12]))
        op = AffineOperator(matrix=scale * op.matrix, offset=scale * op.offset)
        if rng.random() < 0.5:
            lower = rng.uniform(-1.0, 0.5, size=n)
            set_ = Box(lower=lower, upper=lower + rng.uniform(0.2, 1.5, size=n))
            h = float(rng.uniform(0.02, 0.2)) * (2.0 if n == 3 else 1.0)
        else:
            set_, h = Simplex(n), 1.0 / int(rng.integers(3, 40 if n < 3 else 25))
        yield op, BruteForceGrid(set_=set_, h=h)


def long_axis_cases():
    """(operator, grid) pairs for the long-axis reductions: ``random_grid_cases``,
    the cross-check's instances (integer ties, lo == hi axes), boxes with a
    degenerate axis, unit boxes of dimension 1-3, and simplices of dimension 1-3."""
    yield from random_grid_cases(seed=29, count=120)
    for index, kind in enumerate(GRID_KINDS):
        for seed in range(20):
            yield _random_grid_instance(np.random.default_rng([index, seed]), kind)
    rng = np.random.default_rng(31)
    sets = [
        (Box(lower=[0.0, -1.0, 2.0], upper=[1.0, 0.5, 2.0]), 0.3),
        (Box(lower=[0.25, -1.0], upper=[0.25, 1.0]), 0.1),
        (Box(lower=[1.5], upper=[1.5]), 0.5),
        (Box(lower=[-3.0, 2.0, 0.0], upper=[-3.0, 2.0, 0.0]), 0.2),
        *[(Box(lower=[0.0] * n, upper=[1.0] * n), h)
          for n, h in [(1, 0.001), (2, 0.01), (3, 0.05)]],
        *[(Simplex(n), 1.0 / k) for n in (1, 2, 3) for k in (1, 7, 100)],
    ]
    for set_, h in sets:
        op = random_monotone_operator(rng, set_.dim)
        yield op, BruteForceGrid(set_=set_, h=h)


class TestLongAxisReductions:
    """The oracle reduces along the long axis: it takes its corner nodes from
    the grid, not from a mask over every row, and its inner minimum is min over
    the rows of nodes @ a_vals.T.  Both give the row-wise references' bits."""

    def test_same_nodes_and_bit_equal_inner_minima(self):
        seen = set()
        for op, grid in long_axis_cases():
            pts = grid.points()
            a_vals = pts @ op.matrix.T + op.offset
            nodes, literal_nodes = grid.extreme_nodes(), literal_extreme_nodes(pts)
            assert (nodes.shape, nodes.tobytes()) == (literal_nodes.shape, literal_nodes.tobytes())
            inner_min = np.min(nodes @ a_vals.T, axis=0)  # as brute_force_vi takes it
            assert inner_min.tobytes() == literal_inner_min(a_vals, nodes).tobytes()
            gaps = literal_inner_min(a_vals, literal_nodes) - np.einsum("ij,ij->i", a_vals, pts)
            assert np.array_equal(brute_force_vi(op, grid), pts[gaps >= -grid.vi_tolerance])
            seen.add((type(grid.set_).__name__, op.dim))
            if isinstance(grid.set_, Box) and np.any(grid.set_.lower == grid.set_.upper):
                seen.add("lo == hi")
        assert {(kind, n) for kind in ("Box", "Simplex") for n in (1, 2, 3)} <= seen
        assert "lo == hi" in seen


class TestSingletonCandidates:
    """The verdict is decided on at most max(64, 2n) rows of the solution set."""

    def test_diameter_never_takes_more_than_64_rows(self, monkeypatch):
        sizes, diameter_of = [], verification._diameter

        def counted(points):
            sizes.append(points.shape[0])
            return diameter_of(points)

        monkeypatch.setattr(verification, "_diameter", counted)
        for op, grid in random_grid_cases(seed=18, count=120):
            check_singleton_vi(brute_force_vi(op, grid), grid)
        assert sizes and max(sizes) <= 64

    def test_verdict_matches_the_exact_diameter(self):
        verdicts = set()
        for op, grid in random_grid_cases(seed=81, count=120):
            sols = brute_force_vi(op, grid)
            if sols.shape[0] == 0:
                continue
            report = check_singleton_vi(sols, grid)
            threshold = 2.0 * grid.h * math.sqrt(grid.set_.dim)
            exact = diameter(sols)
            # a set whose diameter is the threshold itself (a 3-node span per
            # axis) is decided by the last bit of two different float sums
            if abs(exact - threshold) > 1e-9 * threshold:
                assert report.status == ("Pass" if exact <= threshold else "Fail")
            if report.status == "Fail":
                assert 0.0 < report.max_violation <= exact - threshold + 1e-12
            verdicts.add(report.status)
        assert verdicts == {"Pass", "Fail"}


def exact_diameter(points: np.ndarray) -> float:
    """Max distance over every pair, each from its own coordinate differences."""
    return max(math.dist(a, b) for a, b in itertools.combinations(points.tolist(), 2))


def translated_cluster(offset: float, h: float, side: int, dim: int) -> np.ndarray:
    """The side^dim grid nodes offset + h * k, k in {0..side-1}^dim, as rows."""
    ticks = offset + h * np.arange(side)
    return np.stack(np.meshgrid(*[ticks] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


class TestSingletonUnderTranslation:
    """Translating the solution set does not change the verdict: the diameter
    comes from differences of rows (|a|^2 + |b|^2 - 2 a.b would cancel to 0
    far from the origin)."""

    @pytest.mark.parametrize("side,dim,h,offset", [
        *[(4, 3, 0.01, offset) for offset in (0.0, 1e6, 1e8)],  # span 3h < 2h sqrt(3)
        *[(6, 2, 1e-3, offset) for offset in (0.0, 1e6)],  # every node of [offset, offset + 5h]^2
    ], ids=["cube-0", "cube-1e6", "cube-1e8", "square-0", "square-1e6"])
    def test_verdict_is_the_one_at_the_origin(self, side, dim, h, offset):
        def verdict(at):
            grid = BruteForceGrid(set_=Box(lower=[at] * dim, upper=[at + 0.1] * dim), h=h)
            return check_singleton_vi(translated_cluster(at, h, side, dim), grid)

        threshold = 2.0 * h * math.sqrt(dim)
        at_origin, report = verdict(0.0), verdict(offset)
        exact = exact_diameter(translated_cluster(offset, h, side, dim))
        assert exact == pytest.approx((side - 1) * h * math.sqrt(dim), abs=1e-6)
        assert report.status == at_origin.status == "Fail"
        assert report.max_violation == pytest.approx(at_origin.max_violation, abs=1e-6)
        assert report.max_violation == pytest.approx(exact - threshold, abs=1e-12)

    def test_diameter_of_a_far_cluster(self):
        cluster = translated_cluster(1e8, 0.01, side=3, dim=2)
        dist, i, j = verification._diameter(cluster)
        assert dist == pytest.approx(0.02 * math.sqrt(2), abs=1e-8)
        assert dist == pytest.approx(exact_diameter(cluster), abs=1e-15)
        assert dist == math.dist(cluster[i], cluster[j])


class TestLemmaCocoerciveExpansive:
    def test_derived_modulus(self):
        op = AffineOperator(matrix=np.eye(2), offset=[0.0, 0.0])
        report, gamma = lemma_cocoercive_expansive(op, 0.5, 1.0, 1.0)
        assert gamma == pytest.approx(0.5)
        assert report.status == "Pass"
        sampled, _ = sampled_lemma_cocoercive_expansive(op, 0.5, 1.0, 1.0,
                                                        sample_pairs(2, count=2000, seed=1))
        assert sampled.status == "Pass"

    def test_strongly_monotone_case(self):
        # m = 0 reduces to v-strong monotonicity: gamma = v
        report, gamma = lemma_cocoercive_expansive(DIAG_OP, 0.0, 1.0, 2.0)
        assert gamma == 1.0
        assert report.status == "Pass"
        sampled, _ = sampled_lemma_cocoercive_expansive(DIAG_OP, 0.0, 1.0, 2.0,
                                                        sample_pairs(2, count=2000, seed=2))
        assert sampled.status == "Pass"

    def test_boundary_hypothesis_is_precondition_violation(self):
        report, gamma = lemma_cocoercive_expansive(DIAG_OP, 1.0, 1.0, 1.0)
        assert gamma == 0.0
        assert report.status == "PreconditionViolated"
        assert report.witness is None
        assert report.samples_used == 0

    def test_overstated_constants_fail_with_witness(self):
        # gamma = 3: |Mz|^2 - 9|z|^2 and <Mz, z> - 3|z|^2 are both most
        # negative along z = (0, 1), by -8 and -2
        report, gamma = lemma_cocoercive_expansive(DIAG_OP, 0.0, 3.0, 2.0)
        assert gamma == 3.0
        assert report.status == "Fail"
        assert report.witness is not None
        wx, wy = report.witness
        np.testing.assert_allclose(np.abs(wx), [0.0, 1.0], atol=1e-12)
        np.testing.assert_array_equal(wy, [0.0, 0.0])
        assert report.max_violation == pytest.approx(8.0, abs=1e-8)
        sampled, _ = sampled_lemma_cocoercive_expansive(DIAG_OP, 0.0, 3.0, 2.0,
                                                        [([0.0, 1.0], [0.0, 0.0])])
        assert sampled.status == "Fail"
        assert sampled.witness is not None

    @pytest.mark.parametrize("m,v,eps,gamma,status", [
        (0.0, 0.0, 2.0, 0.0, "PreconditionViolated"),
        (0.5, -1.0, 2.0, -3.0, "PreconditionViolated"),
        (1.0, 1.0, 0.0, 1.0, "Pass"),
        (1.0, 1.5, 0.0, 1.5, "Fail"),
    ], ids=["v-zero", "v-negative", "eps-zero", "eps-zero-overstated"])
    def test_constants_past_the_hypothesis_follow_gamma(self, m, v, eps, gamma, status):
        # v <= 0 or eps = 0 is no input error: gamma = v - m eps^2 decides, and
        # diag(2, 1) is 1-expansive and 1-strongly monotone, but not 1.5-
        report, derived = lemma_cocoercive_expansive(DIAG_OP, m, v, eps)
        assert (derived, report.status) == (gamma, status)
        pairs = sample_pairs(2, count=2000, seed=4)
        sampled, sampled_gamma = sampled_lemma_cocoercive_expansive(DIAG_OP, m, v, eps, pairs)
        assert (sampled_gamma, sampled.status) == (gamma, status)

    @pytest.mark.parametrize("eps", [-1.0, -1e-300])
    def test_negative_eps_rejected(self, eps):
        with pytest.raises(ValidationError, match="eps finite and nonnegative"):
            lemma_cocoercive_expansive(DIAG_OP, 0.0, 1.0, eps)

    def test_empty_pairs_refused(self):
        with pytest.raises(ValidationError):
            sampled_lemma_cocoercive_expansive(DIAG_OP, 0.0, 1.0, 2.0, [])

    def test_negative_m_rejected(self):
        with pytest.raises(ValidationError):
            lemma_cocoercive_expansive(DIAG_OP, -0.5, 1.0, 2.0)

    @pytest.mark.parametrize("m", NON_FINITE)
    def test_non_finite_m_rejected(self, m):
        with pytest.raises(ValidationError, match="m must be finite"):
            lemma_cocoercive_expansive(IDENTITY_OP, m, 1.0, 2.0)

    @pytest.mark.parametrize("v", NON_FINITE)
    def test_non_finite_v_rejected(self, v):
        with pytest.raises(ValidationError, match="must be finite"):
            lemma_cocoercive_expansive(IDENTITY_OP, 0.0, v, 2.0)

    @pytest.mark.parametrize("eps", NON_FINITE)
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValidationError, match="must be finite"):
            lemma_cocoercive_expansive(IDENTITY_OP, 0.0, 1.0, eps)


class TestMonotoneChain:
    # The chain <Ax - Ay, x - y> >= -m|Ax - Ay|^2 + v|x - y|^2 and
    # <Ax - Ay, x - y> >= 0: its first link is check_relaxed_cocoercive with
    # u = m, its second the form M_s through the same engine.
    def test_identity(self):
        op = AffineOperator(matrix=np.eye(2), offset=[0.0, 0.0])
        assert check_relaxed_cocoercive(op, 0.0, 1.0).status == "Pass"
        assert _check_forms(op, "monotone", [(1.0, 0.0, 0.0)]).status == "Pass"
        pairs = sample_pairs(2, count=1000, seed=4)
        assert sampled_check_relaxed_cocoercive(op, 0.0, 1.0, pairs).status == "Pass"

    @pytest.mark.parametrize("m", NON_FINITE)
    def test_non_finite_m_rejected(self, m):
        with pytest.raises(ValidationError, match="u must be finite"):
            check_relaxed_cocoercive(IDENTITY_OP, m, 1.0)
        with pytest.raises(ValidationError, match="u must be finite"):
            sampled_check_relaxed_cocoercive(IDENTITY_OP, m, 1.0, [([0.0, 1.0], [0.0, 0.0])])

    @pytest.mark.parametrize("v", NON_FINITE)
    def test_non_finite_v_rejected(self, v):
        with pytest.raises(ValidationError, match="v must be finite"):
            check_relaxed_cocoercive(IDENTITY_OP, 0.0, v)
        with pytest.raises(ValidationError, match="v must be finite"):
            sampled_check_relaxed_cocoercive(IDENTITY_OP, 0.0, v, [([0.0, 1.0], [0.0, 0.0])])


class TestLemmasEndToEnd:
    def test_cocoercive_expansive_and_singleton_on_goldens(self, golden_oracle):
        # positive derived modulus implies both lemma conclusions hold:
        # exact (and sampled) expansiveness passes and the grid oracle certifies
        # a singleton
        for name in ("box_identity", "box_diag", "box_rotation"):
            sc = golden_oracle[name]["scenario"]
            certified = certify_moduli(sc.operator)
            for m_const in (0.0, 0.25 * certified.strong_monotonicity / certified.lipschitz**2):
                constants = (m_const, certified.strong_monotonicity, certified.lipschitz)
                report, gamma = lemma_cocoercive_expansive(sc.operator, *constants)
                assert gamma > 0.0
                assert report.status == "Pass"
                pairs = sample_pairs(2, count=5000, seed=sc.seed)
                sampled, _ = sampled_lemma_cocoercive_expansive(sc.operator, *constants, pairs)
                assert sampled.status == "Pass"
            assert golden_oracle[name]["singleton"].status == "Pass"

    def test_ism_expansive_singleton_on_goldens(self, golden_oracle):
        for name in ("box_identity", "box_diag", "box_rotation"):
            sc = golden_oracle[name]["scenario"]
            certified = certify_moduli(sc.operator)
            assert certified.ism_alpha is not None
            assert certified.expansiveness > 0.0
            assert check_ism(sc.operator, certified.ism_alpha).status == "Pass"
            pairs = sample_pairs(2, count=5000, seed=sc.seed)
            assert sampled_check_ism(sc.operator, certified.ism_alpha, pairs).status == "Pass"
            assert golden_oracle[name]["singleton"].status == "Pass"

    def test_solver_limit_lands_on_oracle_cluster(self, golden_oracle):
        for name in ("box_identity", "box_diag", "box_rotation"):
            sc = golden_oracle[name]["scenario"]
            grid = golden_oracle[name]["grid"]
            sols = golden_oracle[name]["solutions"]
            trace = solve_projected_gradient(sc.operator, sc.set_, sc.config, sc.x0)
            dists = np.linalg.norm(sols - trace.final[None, :], axis=1)
            assert float(np.min(dists)) <= grid.h * np.sqrt(2) + 1e-6

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_expansive_operators_are_injective_on_samples(self, dim):
        rng = np.random.default_rng(40 + dim)
        op = random_monotone_operator(rng, dim)
        gamma = certify_moduli(op).expansiveness
        assert gamma > 0.0
        xs, ys = sample_pairs(dim, count=5000, seed=dim)
        z = xs - ys
        nz = np.linalg.norm(z, axis=1)
        distinct = nz > 0.0
        images = np.linalg.norm(z @ op.matrix.T, axis=1)
        assert np.all(images[distinct] >= 0.5 * gamma * nz[distinct])


CROSS_CHECK_KINDS = ("monotone", "non-normal", "singular", "rotation", "indefinite")
CROSS_CHECK_SMALL = 110
CROSS_CHECK_LARGE = 10


def cross_check_operator(i: int) -> AffineOperator:
    """Operator i of the cross-check: kind i mod 5, dims 1-5 for the first
    CROSS_CHECK_SMALL instances and n = 50 after them."""
    rng = np.random.default_rng(5000 + i)
    n = 1 + i % 5 if i < CROSS_CHECK_SMALL else 50
    kind = CROSS_CHECK_KINDS[(i // 5 + i) % 5]
    if kind == "monotone":
        return random_monotone_operator(rng, n)
    if kind == "non-normal":
        matrix = np.diag(rng.uniform(0.5, 2.0, n)) + np.triu(rng.uniform(-4.0, 4.0, (n, n)), 1)
    elif kind == "singular":
        u, _, vt = np.linalg.svd(rng.normal(size=(n, n)))
        singular = rng.uniform(0.5, 2.0, n)
        singular[-1] = 0.0
        matrix = u @ np.diag(singular) @ vt
    elif kind == "rotation":
        blocks = np.zeros((n, n))
        for k in range(0, n - 1, 2):
            angle, radius = rng.uniform(-1.5, 1.5), rng.uniform(0.5, 2.0)
            blocks[k:k + 2, k:k + 2] = radius * np.array(
                [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        if n % 2:
            blocks[-1, -1] = rng.uniform(0.5, 2.0)
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        matrix = q @ blocks @ q.T
    else:
        matrix = rng.uniform(-2.0, 2.0, size=(n, n))
    return AffineOperator(matrix=matrix, offset=np.zeros(n))


def cross_check_cases(op: AffineOperator):
    """(exact checker, sampled checker, constants) triples around the
    operator's own moduli: at them, below them and above them."""
    sym_min, gram_min = (float(np.linalg.eigvalsh(q)[0]) for q in (op._sym, op._gram))
    sigma_min = np.sqrt(max(gram_min, 0.0))
    sigma_max = np.linalg.norm(op.matrix, 2) or 1.0  # the 1-D singular kind is M = 0
    v_ref = sym_min if sym_min > 0.0 else 0.1
    alpha_ref = v_ref / sigma_max**2
    for f in (0.5, 1.0, 1.0 + 1e-3, 2.0):
        yield check_ism, sampled_check_ism, (alpha_ref * f,)
        yield check_expansive, sampled_check_expansive, ((sigma_min or 0.1) * f,)
        yield (lemma_cocoercive_expansive, sampled_lemma_cocoercive_expansive,
               (0.25 * v_ref / sigma_max**2, v_ref * f, sigma_max))
        for u in (0.0, 0.5):
            v_u = float(np.linalg.eigvalsh(op._sym + u * op._gram)[0])
            constants = (u, (v_u if v_u > 0.0 else 0.1) * f)
            yield check_relaxed_cocoercive, sampled_check_relaxed_cocoercive, constants


def verdict(checker, op, constants, *pairs, **kwargs):
    result = checker(op, *constants, *pairs, **kwargs)
    return result[0] if isinstance(result, tuple) else result


class TestSampledCrossCheck:
    """The exact checkers against the sampled ones, which evaluate each
    inequality literally on explicit pairs."""

    @pytest.mark.parametrize("i", range(CROSS_CHECK_SMALL + CROSS_CHECK_LARGE))
    def test_exact_verdicts_agree_with_sampled_pairs(self, i):
        op = cross_check_operator(i)
        pairs = sample_pairs(op.dim, count=2000, seed=i)
        for exact, sampled, constants in cross_check_cases(op):
            report = verdict(exact, op, constants)
            if report.status == "Pass":
                # no sampled pair violates a property the exact check passes
                assert verdict(sampled, op, constants, pairs).status == "Pass", constants
            else:
                # the witness (w, 0) violates the literal inequality
                assert report.status == "Fail" and report.max_violation > 0.0
                wx, wy = report.witness
                assert np.linalg.norm(wx) == pytest.approx(1.0) and not np.any(wy)
                literal = verdict(sampled, op, constants, [(wx, wy)], tolerance=0.0)
                assert literal.status == "Fail", constants

    def test_instances_cover_every_kind_and_verdict(self):
        kinds, dims, seen = set(), set(), set()
        for i in range(CROSS_CHECK_SMALL + CROSS_CHECK_LARGE):
            op = cross_check_operator(i)
            dims.add(op.dim)
            kinds.add(CROSS_CHECK_KINDS[(i // 5 + i) % 5])
            if i % 7:
                continue
            pairs = sample_pairs(op.dim, count=2000, seed=i)
            for exact, sampled, constants in cross_check_cases(op):
                status = verdict(exact, op, constants).status
                seen.add(status)
                if status == "Fail" and verdict(sampled, op, constants, pairs).status == "Pass":
                    seen.add("Fail missed by sampling")
        assert kinds == set(CROSS_CHECK_KINDS)
        assert dims == {1, 2, 3, 4, 5, 50}
        assert {"Pass", "Fail", "Fail missed by sampling"} <= seen


ENGINE_SCALES = [1e-150, 1e-8, 1.0, 1e8, 1e150]


def tight_cases(dim: int, seed: int, scale: float):
    """(operator, checker, constants) at tight moduli, as in the operator
    tests: ``scale`` times a symmetric positive definite matrix with alpha =
    1/lambda_max, and ``scale`` times R + 2I with gamma = sigma_min from the
    SVD, each exact and 1e-6 above."""
    rng = np.random.default_rng(1100 + 10 * dim + seed)
    q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    symmetric = scale * (q @ np.diag(rng.uniform(0.5, 3.0, dim)) @ q.T)
    general = scale * (rng.uniform(-1.0, 1.0, (dim, dim)) + 2.0 * np.eye(dim))
    alpha = 1.0 / np.linalg.eigvalsh(symmetric)[-1]
    gamma = np.linalg.svd(general, compute_uv=False)[-1]
    for f in (1.0, 1.0 + 1e-6):
        yield AffineOperator(matrix=symmetric, offset=np.zeros(dim)), check_ism, (alpha * f,)
        yield AffineOperator(matrix=general, offset=np.zeros(dim)), check_expansive, (gamma * f,)


def engine_cases(op: AffineOperator):
    """(checker, constants) pairs of the sampled cross-check, at, below and
    above the operator's own moduli, covering every checker, u = 0 and u > 0."""
    return [(exact, constants) for exact, _, constants in cross_check_cases(op)]


class TestSharedSpectraEngine:
    """The engine that decides a one-term form from the cached spectrum of its
    term against the reference that forms every Q and calls eigvalsh on it
    (``oracles.reference_check_forms``): the same status, witness bytes and
    error, and max_violation within 64 n eps S, S the largest form scale."""

    @staticmethod
    def outcomes(monkeypatch, checker, op, constants):
        """The checker's report or ValidationError text under the engine, then
        under the reference, and the forms the engine was given."""
        forms_seen = []

        def recording(op_, name, forms):
            forms_seen.extend(forms)
            return _check_forms(op_, name, forms)

        results = []
        for engine in (recording, reference_check_forms):
            monkeypatch.setattr(operators, "_check_forms", engine)
            monkeypatch.setattr(verification, "_check_forms", engine)
            try:
                results.append(verdict(checker, op, constants))
            except ValidationError as exc:
                results.append(str(exc))
        return results, forms_seen

    def assert_same_reports(self, monkeypatch, op, cases):
        eps = np.finfo(float).eps
        for checker, constants in cases:
            (new, ref), forms = self.outcomes(monkeypatch, checker, op, constants)
            if isinstance(ref, str) or not forms:  # an overflow or a precondition
                assert new == ref, constants
                continue
            assert new.status == ref.status, (checker.__name__, constants)
            assert (new.property, new.note, new.samples_used, new.seed) == (
                ref.property, ref.note, ref.samples_used, ref.seed)
            if ref.witness is None:
                assert new.witness is None
            else:
                assert [w.tobytes() for w in new.witness] == [w.tobytes() for w in ref.witness]
            with np.errstate(over="ignore"):  # an unused term may overflow
                norms = (np.linalg.norm(op._sym, np.inf), np.linalg.norm(op._gram, np.inf))
            scale = max(abs(c) + (abs(a) * norms[0] if a else 0.0)
                        + (abs(b) * norms[1] if b else 0.0) for a, b, c in forms)
            assert abs(new.max_violation - ref.max_violation) <= 64 * op.dim * eps * scale
            if all(a and b for a, b, _ in forms):  # Q formed as before, so bit-equal
                assert new.max_violation == ref.max_violation

    @pytest.mark.parametrize("i", range(CROSS_CHECK_SMALL + CROSS_CHECK_LARGE))
    def test_cross_check_operators(self, monkeypatch, i):
        op = cross_check_operator(i)
        self.assert_same_reports(monkeypatch, op, engine_cases(op))

    def test_goldens(self, monkeypatch, golden_scenarios):
        for sc in golden_scenarios:
            self.assert_same_reports(monkeypatch, sc.operator, engine_cases(sc.operator))

    @pytest.mark.parametrize("scale", ENGINE_SCALES)
    def test_tight_constants(self, monkeypatch, scale):
        for dim, seed in itertools.product([1, 2, 5, 50], [0, 1]):
            for op, checker, constants in tight_cases(dim, seed, scale):
                self.assert_same_reports(monkeypatch, op, [(checker, constants)])

    @pytest.mark.parametrize("scale", ENGINE_SCALES)
    def test_scaled_operators(self, monkeypatch, scale):
        for i in range(0, CROSS_CHECK_SMALL + CROSS_CHECK_LARGE, 7):
            matrix = scale * cross_check_operator(i).matrix
            op = AffineOperator(matrix=matrix, offset=np.zeros(len(matrix)))
            self.assert_same_reports(monkeypatch, op, engine_cases(op))

    @pytest.mark.parametrize("i", range(0, CROSS_CHECK_SMALL + CROSS_CHECK_LARGE, 3))
    def test_negative_one_term_coefficients(self, i):
        # no checker builds a one-term form with a negative coefficient, which
        # the engine decides from lambda_max of the term
        op = cross_check_operator(i)
        top = [float(np.linalg.eigvalsh(t)[-1]) for t in (op._sym, op._gram)]
        eps = np.finfo(float).eps
        for f in (0.5, 1.0, 1.0 + 1e-3, 2.0):
            for form in ((-1.0, 0.0, f * top[0] + 0.1), (0.0, -2.0, 2.0 * f * top[1])):
                new, ref = (engine(op, "negative", [form])
                            for engine in (_check_forms, reference_check_forms))
                assert new.status == ref.status
                if ref.witness is not None:
                    assert new.witness[0].tobytes() == ref.witness[0].tobytes()
                scale = abs(form[2]) + 2.0 * max(
                    np.linalg.norm(op._sym, np.inf), np.linalg.norm(op._gram, np.inf))
                assert abs(new.max_violation - ref.max_violation) <= 64 * op.dim * eps * scale

    def test_overflowing_terms_raise_in_both(self, monkeypatch):
        op = AffineOperator(matrix=1e155 * np.eye(2), offset=[0.0, 0.0])
        cases = [(check_expansive, (1.0,)), (check_ism, (1e-155,)),
                 (check_relaxed_cocoercive, (1.0, 1.0)), (check_relaxed_cocoercive, (0.0, 1e155)),
                 (check_expansive, (1e200,))]
        self.assert_same_reports(monkeypatch, op, cases)

    def test_cases_cover_every_checker_and_verdict(self):
        seen = set()
        for i in range(CROSS_CHECK_SMALL + CROSS_CHECK_LARGE):
            op = cross_check_operator(i)
            for checker, constants in engine_cases(op):
                report = verdict(checker, op, constants)
                two_terms = checker is check_ism or (
                    checker is check_relaxed_cocoercive and constants[0] > 0.0)
                seen.add((checker.__name__, two_terms, report.status))
        for name, two_terms in (("check_ism", True), ("check_expansive", False),
                                ("check_relaxed_cocoercive", False),
                                ("check_relaxed_cocoercive", True),
                                ("lemma_cocoercive_expansive", False)):
            assert {(name, two_terms, "Pass"), (name, two_terms, "Fail")} <= seen


class TestReportShape:
    FIELDS = {"property", "status", "witness", "samples_used", "max_violation", "seed", "note"}

    def test_json_field_names_exact(self, golden_oracle):
        report, _ = lemma_cocoercive_expansive(DIAG_OP, 0.0, 1.0, 2.0)
        doc = report.as_dict()
        assert set(doc) == self.FIELDS
        # an exact check draws nothing, so it has no seed; a seed is echoed
        # where a check takes one
        assert doc["seed"] is None
        assert doc["samples_used"] == 0
        assert doc["note"].startswith("exact")
        json.dumps(doc)  # serializable
        grid = golden_oracle["box_diag"]["grid"]
        singleton = check_singleton_vi(golden_oracle["box_diag"]["solutions"], grid, seed=6)
        assert set(singleton.as_dict()) == self.FIELDS
        assert singleton.as_dict()["seed"] == 6
        sampled, _ = sampled_lemma_cocoercive_expansive(
            DIAG_OP, 0.0, 1.0, 2.0, sample_pairs(2, count=10, seed=6), seed=6)
        assert set(sampled.as_dict()) == self.FIELDS
        assert sampled.as_dict()["seed"] == 6

    def test_fail_iff_witness_for_sampled_checks(self):
        # both the exact checkers and their sampled cross-check
        passing, _ = lemma_cocoercive_expansive(DIAG_OP, 0.0, 1.0, 2.0)
        failing, _ = lemma_cocoercive_expansive(DIAG_OP, 0.0, 3.0, 2.0)
        sampled_passing, _ = sampled_lemma_cocoercive_expansive(
            DIAG_OP, 0.0, 1.0, 2.0, sample_pairs(2, count=100, seed=7)
        )
        sampled_failing, _ = sampled_lemma_cocoercive_expansive(
            DIAG_OP, 0.0, 3.0, 2.0, [([0.0, 1.0], [0.0, 0.0])]
        )
        for ok, bad in ((passing, failing), (sampled_passing, sampled_failing)):
            assert ok.status == "Pass" and ok.witness is None
            assert bad.status == "Fail" and bad.witness is not None
            assert ok.max_violation <= 0.0
            assert bad.max_violation > 0.0

    def test_diameter_helper_matches_package(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(300, 2))
        from vikit.verification import _diameter

        dist, i, j = _diameter(pts)
        assert dist == pytest.approx(diameter(pts), abs=1e-12)
        assert dist == pytest.approx(float(np.linalg.norm(pts[i] - pts[j])), abs=1e-15)
