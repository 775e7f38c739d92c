import itertools

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
    project,
)
from vikit.operators import AffineOperator
from vikit.solvers import AffineAverage, IterationTrace

from oracles import (
    contains,
    literal_ball_project,
    literal_box_project,
    literal_simplex_project,
    sample_in_set,
)


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

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("empty", [[], np.zeros(0)], ids=["list", "array"])
    def test_affine_subspace_reads_an_empty_basis_as_0_by_n(self, n, empty):
        basepoint = np.linspace(-1.0, 1.0, n)
        point = AffineSubspace(basepoint=basepoint, orthonormal_basis=empty)
        assert point.orthonormal_basis.shape == (0, n)
        np.testing.assert_array_equal(project(point, np.full(n, 5.0)), basepoint)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            project(unit_box(), [0.5, 0.5, 0.5])


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


PROJECTION_DIMS = (1, 2, 3, 50, 500)


class TestProjectionBodies:
    """Box, Ball and Simplex projections give the bits of their earlier bodies,
    which went through numpy's function wrappers (tests/oracles.py)."""

    @staticmethod
    def check(set_, x):
        literal = {Box: literal_box_project, Ball: literal_ball_project,
                   Simplex: literal_simplex_project}[type(set_)]
        x = np.asarray(x, dtype=float)
        assert same_bits(set_._project(x), literal(set_, x)), (set_, x)

    @pytest.mark.parametrize("n", PROJECTION_DIMS)
    def test_seeded_random_points(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(30):
            lower = rng.uniform(-2.0, 1.0, n)
            box = Box(lower=lower, upper=lower + rng.uniform(0.0, 2.0, n))
            ball = Ball(center=rng.uniform(-1.0, 1.0, n), radius=rng.uniform(0.1, 3.0))
            for scale in (0.1, 1.0, 10.0):
                x = rng.normal(scale=scale, size=n)
                for set_ in (box, ball, Simplex(n)):
                    self.check(set_, x)

    @pytest.mark.parametrize("n", PROJECTION_DIMS)
    def test_points_on_the_bounds(self, n):
        rng = np.random.default_rng(600 + n)
        lower = rng.uniform(-2.0, 1.0, n)
        upper = lower + rng.uniform(0.0, 2.0, n)
        box = Box(lower=lower, upper=upper)
        mixed = np.where(rng.random(n) < 0.5, lower, upper)
        for x in (lower, upper, mixed):
            self.check(box, x)
        unit = rng.normal(size=n)
        unit /= np.linalg.norm(unit)
        ball = Ball(center=rng.uniform(-1.0, 1.0, n), radius=1.5)
        for x in (ball.center, ball.center + 1.5 * unit, ball.center + np.nextafter(1.5, 2) * unit):
            self.check(ball, x)
        vertex = np.zeros(n)
        vertex[0] = 1.0
        for x in (vertex, np.full(n, 1.0 / n), -vertex):
            self.check(Simplex(n), x)

    def test_signed_zeros(self):
        zeros = (-0.0, 0.0)
        for x, lo, hi in itertools.product(zeros, (-1.0, -0.0, 0.0), (-0.0, 0.0, 1.0)):
            self.check(Box(lower=[lo], upper=[hi]), [x])
        for x in itertools.product(zeros, repeat=3):
            self.check(Box(lower=[-0.0, 0.0, -0.0], upper=[0.0, -0.0, 1.0]), x)
            self.check(Ball(center=[-0.0, 0.0, 0.0], radius=1.0), x)
            self.check(Simplex(3), x)
        for x in itertools.product((-0.0, 0.0, 1.0), repeat=3):
            self.check(Simplex(3), x)

    @pytest.mark.parametrize("n", PROJECTION_DIMS)
    def test_tied_simplex_coordinates(self, n):
        rng = np.random.default_rng(700 + n)
        for x in (np.full(n, 0.3), np.full(n, -2.0), rng.integers(-2, 3, n) / 2.0,
                  np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n]):
            self.check(Simplex(n), x)

    @staticmethod
    def check_ball(ball, x):
        """The earlier body's bits while |d|^2 is finite.  Where it overflows,
        that body sent every point to the center; the projection computed
        from d scaled by its largest entry is the reference there."""
        d = x - ball.center
        with np.errstate(over="ignore"):
            overflows = np.isinf(d @ d)
        if not overflows:
            TestProjectionBodies.check(ball, x)
            return
        scale = np.max(np.abs(d))
        length = scale * np.linalg.norm(d / scale)
        got = ball._project(x)
        if length <= ball.radius:
            assert same_bits(got, x)
        else:
            expected = ball.center + (ball.radius / length) * d
            atol = 1e-13 * (np.max(np.abs(ball.center)) + ball.radius)
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=atol)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("n", PROJECTION_DIMS)
    def test_entries_near_1e300(self, n):
        rng = np.random.default_rng(800 + n)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, n) * 1e300
            lower = rng.uniform(-1.0, 0.0, n) * 1e300
            self.check(Box(lower=lower, upper=lower + rng.uniform(0.0, 1.0, n) * 1e300), x)
            self.check_ball(Ball(center=rng.uniform(-1.0, 1.0, n) * 1e300, radius=1e300), x)
            self.check_ball(Ball(center=np.zeros(n), radius=1.0), x)
            self.check(Simplex(n), x)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_ball_far_point_reaches_the_sphere(self):
        # |d|^2 = 1e400 overflows; the point still projects onto the sphere
        got = Ball(center=[0.0, 0.0], radius=1.0).project([1e200, 0.0])
        np.testing.assert_allclose(got, [1.0, 0.0], rtol=1e-15, atol=0.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("center,x,radius,expected", [
        ([-1e308, 0.0], [1e308, 0.0], 1.0, [-1e308, 0.0]),
        ([-1e308, 0.0], [1e308, 0.0], 1e300, [-1e308 + 1e300, 0.0]),
        ([-1e308, 0.0], [1e308, 0.0], 1e308, [0.0, 0.0]),
        ([0.0, 0.0], [1.5e308, 1.5e308], 2.0, [2.0 ** 0.5, 2.0 ** 0.5]),
        ([-1e308, 1.0], [1e308, 1.0], 1.0, [-1e308, 1.0]),
    ])
    def test_ball_point_out_of_float_range_of_the_center(self, center, x, radius, expected):
        # d = x - center or |d| overflows: the point still projects onto the
        # sphere, along x/2 - center/2
        got = Ball(center=center, radius=radius).project(x)
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_ball_huge_radius_keeps_an_inner_point(self):
        x = np.array([1e200, 0.0])
        assert same_bits(Ball(center=[0.0, 0.0], radius=1e300).project(x), x)

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200])
    def test_halfspace_normal_whose_square_leaves_the_float_range(self, scale):
        # |normal|^2 overflows (1e200), is subnormal (1e-160) or is 0 (1e-200):
        # (1, 1) came back unchanged, as (-1.1e-5, -1.1e-5), or as ZeroDivisionError
        got = Halfspace(normal=[scale, scale], offset=0.0).project([1.0, 1.0])
        np.testing.assert_allclose(got, [0.0, 0.0], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("exponent", range(-300, 301, 25))
    def test_halfspace_projection_is_the_same_at_every_normal_scale(self, exponent):
        # {x : <s u, x> <= s b} is one set for every s > 0
        rng = np.random.default_rng(exponent + 300)
        u, b, s = rng.normal(size=3), rng.normal(), 10.0**exponent
        scaled, unit = Halfspace(normal=s * u, offset=s * b), Halfspace(normal=u, offset=b)
        for x in 5.0 * rng.normal(size=(8, 3)):
            got = scaled.project(x)
            np.testing.assert_allclose(got, unit.project(x), rtol=1e-13, atol=1e-13)
            assert u @ got <= b + 1e-12


# Each constructor array field, with the field's name in its message and its
# number of axes: (make from a value, attribute, name, ndim).
FINITE_ARRAY_FIELDS = [
    (lambda v: Box(lower=v, upper=[9, 9]), "lower", "box lower", 1),
    (lambda v: Box(lower=[0, 0], upper=v), "upper", "box upper", 1),
    (lambda v: Ball(center=v, radius=1.0), "center", "ball center", 1),
    (lambda v: Halfspace(normal=v, offset=0.0), "normal", "halfspace normal", 1),
    (lambda v: AffineSubspace(basepoint=v, orthonormal_basis=np.zeros((0, 2))),
     "basepoint", "basepoint", 1),
    (lambda v: AffineAverage(t=0.5, fixed_point=v), "fixed_point", "fixed point", 1),
    (lambda v: AffineOperator(matrix=np.eye(2), offset=v), "offset", "operator offset", 1),
    (lambda m: AffineOperator(matrix=m, offset=[0, 0]), "matrix", "operator matrix", 2),
    (lambda m: AffineSubspace(basepoint=[0, 0], orthonormal_basis=m),
     "orthonormal_basis", "orthonormal basis", 2),
]


def _breaking(case: str, ndim: int):
    """A value that breaks the array rule for a field of ``ndim`` axes."""
    ones = np.ones((2,) * ndim)
    if case in ("nan", "inf"):
        ones.flat[-1] = np.nan if case == "nan" else -np.inf
        return ones.tolist()
    return ones[0].tolist() if case == "axis-too-few" else [ones.tolist()]


@pytest.mark.parametrize("make,attr,name,ndim", FINITE_ARRAY_FIELDS,
                         ids=[f[1] for f in FINITE_ARRAY_FIELDS])
class TestFiniteArrayFields:
    @pytest.mark.parametrize("case", ["nan", "inf", "axis-too-few", "axis-too-many"])
    def test_message(self, make, attr, name, ndim, case):
        kind = "vector" if ndim == 1 else "matrix"
        with pytest.raises(ValidationError, match=f"^{name} must be a finite {kind}$"):
            make(_breaking(case, ndim))

    @pytest.mark.parametrize("dtype", [int, float])
    def test_stored_as_a_read_only_float_copy(self, make, attr, name, ndim, dtype):
        source = np.eye(2, dtype=dtype)  # a row of it is a view: a stored view would change below
        stored = getattr(make(source if ndim == 2 else source[0]), attr)
        before = stored.tolist()
        source[...] = 7
        assert stored.dtype == float and stored.tolist() == before
        assert not stored.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stored[...] = 0.0


# Every other array a frozen object stores: (make from an int source, attribute).
FROZEN_ARRAYS = [
    (lambda a, name=name: IterationTrace(
        **{"iterates": a, "natural_residuals": a[0], "operator_residuals": a[0],
           "shortcut_bounds": a[0], name: a}, status="Converged", gamma=1.0), name)
    for name in ("iterates", "natural_residuals", "operator_residuals", "shortcut_bounds")
]


@pytest.mark.parametrize("dtype", [int, float])
@pytest.mark.parametrize("make,attr", FROZEN_ARRAYS, ids=[f[1] for f in FROZEN_ARRAYS])
def test_frozen_array_is_a_read_only_float_copy(make, attr, dtype):
    source = np.eye(2, dtype=dtype)  # a row of it is a view: a stored view would change below
    stored = getattr(make(source), attr)
    before = stored.tolist()
    source[...] = 7
    assert stored.dtype == float and stored.tolist() == before
    assert not stored.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stored[...] = 0.0


@pytest.mark.parametrize("cache", ["_sym", "_gram", "_sym_spectrum", "_singular"])
def test_cached_spectra_are_read_only_floats(cache):
    stored = getattr(AffineOperator(matrix=[[2, 1], [0, 1]], offset=[0, 0]), cache)
    assert stored.dtype == float and not stored.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stored[...] = 0.0


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
    @pytest.mark.parametrize("make,message", [
        (lambda: project(unit_box(), [np.nan, 0.5]), "point has non-finite entries"),
        (lambda: Box(lower=[0.0, 0.0], upper=[1.0]), "box bounds must be vectors of equal length"),
        (lambda: Box(lower=[0.0, np.nan], upper=[1.0, 1.0]), "box lower must be a finite vector"),
        (lambda: Halfspace(normal=[1.0, 0.0], offset=np.inf), "halfspace offset must be finite"),
        (lambda: AffineSubspace(basepoint=[0.0, 0.0], orthonormal_basis=[[1.0, 0.0, 0.0]]),
         "basis vectors must match the basepoint dimension"),
        (lambda: AffineSubspace(basepoint=[0.0, 0.0], orthonormal_basis=[[]]),
         "basis vectors must match the basepoint dimension"),
        (lambda: AffineSubspace(basepoint=[0.0, 0.0], orthonormal_basis=[[np.nan, 1.0]]),
         "orthonormal basis must be a finite matrix"),
    ], ids=["nan-point", "box-unequal-length", "box-nan-bound", "halfspace-inf-offset",
            "affine-basis-width", "affine-empty-row", "affine-nan-basis"])
    def test_rejection_message(self, make, message):
        with pytest.raises(ValidationError, match=f"^{message}$") as excinfo:
            make()
        assert type(excinfo.value) is ValidationError

    def test_box_bounds_ordered(self):
        with pytest.raises(ValidationError):
            Box(lower=[1.0, 0.0], upper=[0.0, 1.0])

    def test_ball_radius_positive(self):
        with pytest.raises(ValidationError):
            Ball(center=[0.0], radius=0.0)

    def test_halfspace_zero_normal_degenerate(self):
        with pytest.raises(ValidationError):
            Halfspace(normal=[0.0, 0.0], offset=1.0)

    @pytest.mark.parametrize("n,message", [
        *[(n, "simplex dimension must be positive") for n in (0, 0.5, -1, -np.inf)],
        *[(n, f"simplex dimension must be a whole number, got {n!r}")
          for n in (2.5, 1.9, np.nan, np.inf)],
    ])
    def test_simplex_dimension_positive(self, n, message):
        with pytest.raises(ValidationError) as info:
            Simplex(n)
        assert str(info.value) == message

    @pytest.mark.parametrize("n", [2, 2.0, np.int64(2), np.float64(2.0)])
    def test_simplex_dimension_accepts_whole_numbers(self, n):
        simplex = Simplex(n)
        assert type(simplex.n) is int and simplex.n == 2

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

