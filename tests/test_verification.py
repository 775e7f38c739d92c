import json
import math

import numpy as np
import pytest

from vikit.errors import ValidationError
from vikit.geometry import Ball, Box, Simplex
from vikit.operators import AffineOperator, certify_moduli, check_ism, sample_pairs
from vikit.solvers import IterationConfig, solve_projected_gradient
from vikit.verification import (
    BruteForceGrid,
    brute_force_vi,
    check_monotone_chain,
    check_singleton_vi,
    lemma_cocoercive_expansive,
)

from oracles import diameter, random_monotone_operator

UNIT_BOX = Box(lower=[0.0, 0.0], upper=[1.0, 1.0])
IDENTITY_OP = AffineOperator(matrix=np.eye(2), offset=[-0.5, -0.5])
DIAG_OP = AffineOperator(matrix=[[2.0, 0.0], [0.0, 1.0]], offset=[-2.0, 1.0])
ZERO_OP = AffineOperator(matrix=np.zeros((2, 2)), offset=[0.0, 0.0])


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
        with pytest.raises(ValidationError):
            brute_force_vi(op3, grid)


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


class TestLemmaCocoerciveExpansive:
    def test_derived_modulus(self):
        xs, ys = sample_pairs(2, count=2000, seed=1)
        report, gamma = lemma_cocoercive_expansive(
            AffineOperator(matrix=np.eye(2), offset=[0.0, 0.0]), 0.5, 1.0, 1.0, (xs, ys)
        )
        assert gamma == pytest.approx(0.5)
        assert report.status == "Pass"

    def test_strongly_monotone_case(self):
        # m = 0 reduces to v-strong monotonicity: gamma = v
        xs, ys = sample_pairs(2, count=2000, seed=2)
        report, gamma = lemma_cocoercive_expansive(DIAG_OP, 0.0, 1.0, 2.0, (xs, ys))
        assert gamma == 1.0
        assert report.status == "Pass"

    def test_boundary_hypothesis_is_precondition_violation(self):
        xs, ys = sample_pairs(2, count=10, seed=3)
        report, gamma = lemma_cocoercive_expansive(DIAG_OP, 1.0, 1.0, 1.0, (xs, ys))
        assert gamma == 0.0
        assert report.status == "PreconditionViolated"
        assert report.witness is None
        assert report.samples_used == 0

    def test_overstated_constants_fail_with_witness(self):
        report, gamma = lemma_cocoercive_expansive(
            DIAG_OP, 0.0, 3.0, 2.0, [([0.0, 1.0], [0.0, 0.0])]
        )
        assert gamma == 3.0
        assert report.status == "Fail"
        assert report.witness is not None

    def test_empty_pairs_refused(self):
        with pytest.raises(ValidationError):
            lemma_cocoercive_expansive(DIAG_OP, 0.0, 1.0, 2.0, [])

    def test_negative_m_rejected(self):
        with pytest.raises(ValidationError):
            lemma_cocoercive_expansive(DIAG_OP, -0.5, 1.0, 2.0, [([0.0, 1.0], [0.0, 0.0])])


class TestMonotoneChain:
    def test_identity(self):
        xs, ys = sample_pairs(2, count=1000, seed=4)
        op = AffineOperator(matrix=np.eye(2), offset=[0.0, 0.0])
        assert check_monotone_chain(op, 0.0, 1.0, 1.0, (xs, ys)).status == "Pass"

    def test_scaled_rotation_with_exact_modulus(self):
        xs, ys = sample_pairs(2, count=1000, seed=5)
        op = AffineOperator(matrix=[[1.0, -1.0], [1.0, 1.0]], offset=[0.0, 0.0])
        report = check_monotone_chain(op, 0.0, 1.0, np.sqrt(2.0), (xs, ys))
        assert report.status == "Pass"

    def test_indefinite_operator_fails(self):
        op = AffineOperator(matrix=[[1.0, 0.0], [0.0, -1.0]], offset=[0.0, 0.0])
        report = check_monotone_chain(op, 0.0, 0.1, 1.0, [([0.0, 1.0], [0.0, 0.0])])
        assert report.status == "Fail"
        wx, wy = report.witness
        np.testing.assert_array_equal(wx, [0.0, 1.0])
        np.testing.assert_array_equal(wy, [0.0, 0.0])


class TestLemmasEndToEnd:
    def test_cocoercive_expansive_and_singleton_on_goldens(self, golden_oracle):
        # positive derived modulus implies both lemma conclusions hold:
        # sampled expansiveness passes and the grid oracle certifies a singleton
        for name in ("box_identity", "box_diag", "box_rotation"):
            sc = golden_oracle[name]["scenario"]
            certified = certify_moduli(sc.operator)
            for m_const in (0.0, 0.25 * certified.strong_monotonicity / certified.lipschitz**2):
                pairs = sample_pairs(2, count=5000, seed=sc.seed)
                report, gamma = lemma_cocoercive_expansive(
                    sc.operator, m_const, certified.strong_monotonicity,
                    certified.lipschitz, pairs,
                )
                assert gamma > 0.0
                assert report.status == "Pass"
            assert golden_oracle[name]["singleton"].status == "Pass"

    def test_ism_expansive_singleton_on_goldens(self, golden_oracle):
        for name in ("box_identity", "box_diag", "box_rotation"):
            sc = golden_oracle[name]["scenario"]
            certified = certify_moduli(sc.operator)
            assert certified.ism_alpha is not None
            assert certified.expansiveness > 0.0
            pairs = sample_pairs(2, count=5000, seed=sc.seed)
            assert check_ism(sc.operator, certified.ism_alpha, pairs).status == "Pass"
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


class TestReportShape:
    def test_json_field_names_exact(self):
        xs, ys = sample_pairs(2, count=10, seed=6)
        report, _ = lemma_cocoercive_expansive(DIAG_OP, 0.0, 1.0, 2.0, (xs, ys), seed=6)
        doc = report.as_dict()
        assert set(doc) == {
            "property",
            "status",
            "witness",
            "samples_used",
            "max_violation",
            "seed",
            "note",
        }
        assert doc["seed"] == 6
        json.dumps(doc)  # serializable

    def test_fail_iff_witness_for_sampled_checks(self):
        passing, _ = lemma_cocoercive_expansive(
            DIAG_OP, 0.0, 1.0, 2.0, sample_pairs(2, count=100, seed=7)
        )
        failing, _ = lemma_cocoercive_expansive(
            DIAG_OP, 0.0, 3.0, 2.0, [([0.0, 1.0], [0.0, 0.0])]
        )
        assert passing.status == "Pass" and passing.witness is None
        assert failing.status == "Fail" and failing.witness is not None
        assert passing.max_violation <= 0.0
        assert failing.max_violation > 0.0

    def test_diameter_helper_matches_package(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(300, 2))
        from vikit.verification import _diameter

        dist, i, j = _diameter(pts)
        assert dist == pytest.approx(diameter(pts), abs=1e-12)
        assert dist == pytest.approx(float(np.linalg.norm(pts[i] - pts[j])), abs=1e-15)
