import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vikit.errors import DimensionMismatchError, ValidationError
from vikit.geometry import (
    AffineSubspace,
    Ball,
    Box,
    Halfspace,
    Simplex,
    contains,
    project,
)

from oracles import sample_in_set


def unit_box():
    return Box(lower=[0.0, 0.0], upper=[1.0, 1.0])


def all_variants(dim=3, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0][:2]
    return [
        Box(lower=-np.ones(dim), upper=2.0 * np.ones(dim)),
        Ball(center=rng.uniform(-1, 1, dim), radius=1.5),
        Halfspace(normal=rng.normal(size=dim), offset=0.7),
        Simplex(dim),
        AffineSubspace(basepoint=rng.uniform(-1, 1, dim), orthonormal_basis=basis),
    ]


class TestProjectExamples:
    def test_box_interior_point_fixed(self):
        np.testing.assert_array_equal(project(unit_box(), [0.5, 0.5]), [0.5, 0.5])

    def test_box_clips_outside(self):
        np.testing.assert_array_equal(project(unit_box(), [2.0, 0.5]), [1.0, 0.5])

    def test_ball_radial_scaling(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        np.testing.assert_allclose(project(ball, [3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_simplex_symmetric_point(self):
        np.testing.assert_allclose(project(Simplex(2), [1.0, 1.0]), [0.5, 0.5], atol=1e-15)

    def test_simplex_matches_grid_brute_force(self):
        # nearest grid point of the simplex to a generic query
        simplex = Simplex(3)
        x = np.array([0.9, -0.3, 0.5])
        proj = project(simplex, x)
        k = np.arange(0, 201)
        best, best_d = None, np.inf
        for i in k:
            for j in range(0, 201 - i):
                cand = np.array([i, j, 200 - i - j]) / 200.0
                d = float(np.linalg.norm(cand - x))
                if d < best_d:
                    best, best_d = cand, d
        assert np.linalg.norm(proj - best) <= np.sqrt(3) / 200.0 + 1e-12
        assert abs(np.sum(proj) - 1.0) <= 1e-12
        assert np.all(proj >= 0.0)

    def test_halfspace(self):
        hs = Halfspace(normal=[1.0, 0.0], offset=1.0)
        np.testing.assert_array_equal(project(hs, [2.0, 5.0]), [1.0, 5.0])
        np.testing.assert_array_equal(project(hs, [0.5, 5.0]), [0.5, 5.0])

    def test_affine_subspace(self):
        line = AffineSubspace(basepoint=[0.0, 1.0], orthonormal_basis=[[1.0, 0.0]])
        np.testing.assert_allclose(project(line, [3.0, 4.0]), [3.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 3])
    def test_affine_subspace_with_empty_basis_is_its_basepoint(self, n):
        basepoint = np.linspace(-1.0, 1.0, n)
        point = AffineSubspace(basepoint=basepoint, orthonormal_basis=np.zeros((0, n)))
        np.testing.assert_array_equal(project(point, np.full(n, 5.0)), basepoint)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            project(unit_box(), [0.5, 0.5, 0.5])


class TestContainsExamples:
    def test_box_member(self):
        assert contains(unit_box(), [0.5, 0.5], tol=0.0)

    def test_ball_near_miss(self):
        assert not contains(Ball(center=[0.0, 0.0], radius=1.0), [1.1, 0.0], tol=0.05)

    def test_halfspace_boundary_of_tolerance(self):
        # distance is exactly 1
        assert contains(Halfspace(normal=[1.0, 0.0], offset=1.0), [2.0, 0.0], tol=1.0)
        assert not contains(Halfspace(normal=[1.0, 0.0], offset=1.0), [2.0, 0.0], tol=0.99)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            contains(unit_box(), [0.5, 0.5], tol=-1.0)


class TestValidation:
    def test_box_bounds_ordered(self):
        with pytest.raises(ValidationError):
            Box(lower=[1.0, 0.0], upper=[0.0, 1.0])

    def test_ball_radius_positive(self):
        with pytest.raises(ValidationError):
            Ball(center=[0.0], radius=0.0)

    def test_halfspace_zero_normal_degenerate(self):
        with pytest.raises(ValidationError):
            Halfspace(normal=[0.0, 0.0], offset=1.0)

    def test_simplex_dimension_positive(self):
        with pytest.raises(ValidationError):
            Simplex(0)

    def test_affine_basis_must_be_orthonormal(self):
        with pytest.raises(ValidationError):
            AffineSubspace(basepoint=[0.0, 0.0], orthonormal_basis=[[1.0, 1.0]])
        with pytest.raises(ValidationError):
            AffineSubspace(
                basepoint=[0.0, 0.0, 0.0],
                orthonormal_basis=[[1.0, 0.0, 0.0], [0.9, 0.1, 0.0]],
            )


class TestProjectionProperties:
    @pytest.mark.parametrize("variant", range(5))
    def test_idempotence(self, variant):
        set_ = all_variants()[variant]
        rng = np.random.default_rng(10 + variant)
        for _ in range(2000):
            x = rng.uniform(-10.0, 10.0, size=set_.dim)
            p = project(set_, x)
            assert np.linalg.norm(project(set_, p) - p) <= 1e-12

    @pytest.mark.parametrize("variant", range(5))
    def test_nonexpansiveness(self, variant):
        set_ = all_variants()[variant]
        rng = np.random.default_rng(20 + variant)
        for _ in range(2000):
            x = rng.uniform(-10.0, 10.0, size=set_.dim)
            y = rng.uniform(-10.0, 10.0, size=set_.dim)
            px, py = project(set_, x), project(set_, y)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    @pytest.mark.parametrize("variant", range(5))
    def test_variational_characterization(self, variant):
        # <x - Px, y - Px> <= tol for every member y
        set_ = all_variants()[variant]
        rng = np.random.default_rng(30 + variant)
        members = sample_in_set(set_, rng, 2000)
        for y in members[:5]:
            assert contains(set_, y, tol=1e-9)
        for i in range(2000):
            x = rng.uniform(-10.0, 10.0, size=set_.dim)
            p = project(set_, x)
            assert float((x - p) @ (members[i] - p)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=2, max_size=2),
    y=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=2, max_size=2),
)
def test_projection_contracts_hypothesis(x, y):
    x, y = np.asarray(x), np.asarray(y)
    for set_ in (unit_box(), Ball(center=[0.5, -0.5], radius=2.0), Simplex(2)):
        px, py = project(set_, x), project(set_, y)
        assert np.linalg.norm(project(set_, px) - px) <= 1e-12
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

