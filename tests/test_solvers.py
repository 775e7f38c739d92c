import itertools
import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vikit import solvers
from vikit.errors import (
    ConfigurationError,
    DimensionMismatchError,
    DivergenceError,
    ValidationError,
)
from vikit.geometry import AffineSubspace, Ball, Box, ConvexSet, Halfspace, Simplex, contains
from vikit.operators import AffineOperator, certify_moduli, evaluate
from vikit.solvers import (
    AffineAverage,
    AnchorSchedule,
    Identity,
    IterationConfig,
    IterationTrace,
    NonexpansiveMap,
    ProjectionOnto,
    compare_stopping,
    natural_residual_factor,
    shortcut_distance_bound,
    solve_halpern,
    solve_projected_gradient,
)

from oracles import (
    assert_same_trace,
    box_quadratic_grid_argmin,
    literal_projection_apply,
    literal_run,
    random_monotone_operator,
    sample_in_set,
)

GOLDEN_FILE = Path(__file__).parent / "goldens" / "compare_stopping.json"

UNIT_BOX = Box(lower=[0.0, 0.0], upper=[1.0, 1.0])


def shifted_identity(center):
    """A(x) = x - center, whose VI solution on C is the projection of center."""
    return AffineOperator(matrix=np.eye(len(center)), offset=-np.asarray(center, dtype=float))


class TestAnchorSchedule:
    def test_harmonic_default(self):
        sched = AnchorSchedule()
        assert sched.weight(0) == 1.0
        assert sched.weight(9) == pytest.approx(0.1)

    def test_power_and_geometric(self):
        assert AnchorSchedule(rule="power", scale=0.5, exponent=2.0).weight(1) == pytest.approx(
            0.125
        )
        assert AnchorSchedule(rule="geometric", ratio=0.5).weight(3) == pytest.approx(0.125)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AnchorSchedule(rule="linear")
        with pytest.raises(ConfigurationError):
            AnchorSchedule(scale=1.5)
        with pytest.raises(ConfigurationError):
            AnchorSchedule(rule="geometric", ratio=1.0)

    def test_power_exponent_zero_rejected(self):
        with pytest.raises(ConfigurationError, match="^anchor schedule exponent must be positive$"):
            AnchorSchedule(rule="power", exponent=0.0)

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf"),
                                          pytest.param(10**400, id="1e400")])
    def test_power_exponent_must_be_finite(self, exponent):
        with pytest.raises(ConfigurationError, match="^anchor schedule exponent must be positive$"):
            AnchorSchedule(rule="power", exponent=exponent)

    @pytest.mark.parametrize("exponent", [100, 100.0])
    def test_power_weight_past_the_float_range_is_zero(self, exponent):
        # (n + 1)^100 first passes the float range at n + 1 = 1210
        sched = AnchorSchedule(rule="power", scale=0.5, exponent=exponent)
        assert sched.weight(1208) == 0.5 / 1209**exponent > 0.0
        assert sched.weight(1209) == 0.0
        assert sched.weight(10**6) == 0.0

    @pytest.mark.parametrize("exponent", [10**6, 10**300], ids=["1e6", "1e300"])
    def test_integer_exponent_is_raised_as_a_float(self, exponent):
        # an exact integer power would have millions of digits, or never end
        assert AnchorSchedule(rule="power", exponent=exponent).weight(1000) == 0.0


class TestIterationConfig:
    def test_defaults(self):
        cfg = IterationConfig(step=0.5)
        assert cfg.residual_tol == 1e-8
        assert cfg.max_iters == 10_000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            IterationConfig(step=0.0)
        with pytest.raises(ConfigurationError):
            IterationConfig(step=None)
        with pytest.raises(ConfigurationError):
            IterationConfig(step=0.5, max_iters=0)
        with pytest.raises(ConfigurationError):
            IterationConfig(step=0.5, residual_tol=0.0)


class TestProjectedGradient:
    def test_interior_solution_in_one_step(self):
        op = shifted_identity([0.5, 0.5])
        cfg = IterationConfig(step=1.0)
        trace = solve_projected_gradient(op, UNIT_BOX, cfg, [0.0, 0.0])
        assert trace.status == "Converged"
        np.testing.assert_allclose(trace.final, [0.5, 0.5], atol=1e-12)
        assert trace.rows == 2  # start point plus one projection step

    def test_exterior_center_projects_to_boundary(self):
        op = shifted_identity([2.0, 0.5])
        cfg = IterationConfig(step=1.0)
        trace = solve_projected_gradient(op, UNIT_BOX, cfg, [0.0, 0.0])
        np.testing.assert_allclose(trace.final, [1.0, 0.5], atol=1e-12)

    def test_diagonal_instance_matches_quadratic_grid_oracle(self):
        # symmetric M makes the VI a box-constrained quadratic; grid-solve it
        op = AffineOperator(matrix=[[2.0, 0.0], [0.0, 1.0]], offset=[-2.0, 1.0])
        cfg = IterationConfig(step=0.4)
        trace = solve_projected_gradient(op, UNIT_BOX, cfg, [0.0, 1.0])
        oracle = box_quadratic_grid_argmin(
            op.matrix, op.offset, UNIT_BOX.lower, UNIT_BOX.upper, spacing=1e-3
        )
        np.testing.assert_allclose(oracle, [1.0, 0.0], atol=1e-12)
        assert np.linalg.norm(trace.final - oracle) <= 1e-3 * np.sqrt(2) + 1e-6
        np.testing.assert_allclose(trace.final, [1.0, 0.0], atol=1e-6)

    def test_step_outside_stability_range_rejected(self):
        op = AffineOperator(matrix=[[2.0, 0.0], [0.0, 1.0]], offset=[-2.0, 1.0])
        with pytest.raises(ConfigurationError, match="0.5"):
            solve_projected_gradient(op, UNIT_BOX, IterationConfig(step=0.75), [0.0, 0.0])

    def test_operator_without_ism_modulus_rejected(self):
        zero = AffineOperator(matrix=np.zeros((2, 2)), offset=[0.0, 0.0])
        with pytest.raises(ConfigurationError):
            solve_projected_gradient(zero, UNIT_BOX, IterationConfig(step=0.1), [0.0, 0.0])

    def test_final_iterate_in_set(self, golden_scenarios):
        for sc in golden_scenarios:
            trace = solve_projected_gradient(sc.operator, sc.set_, sc.config, sc.x0)
            assert contains(sc.set_, trace.final, tol=1e-6)

    def test_final_iterate_in_set_even_with_loose_tolerance(self):
        op = shifted_identity([0.5, 0.5])
        cfg = IterationConfig(step=1.0, residual_tol=5.0)
        trace = solve_projected_gradient(op, UNIT_BOX, cfg, [7.0, -3.0])
        assert contains(UNIT_BOX, trace.final, tol=1e-6)

    def test_max_iters_status(self):
        op = AffineOperator(matrix=[[2.0, 0.0], [0.0, 1.0]], offset=[-2.0, 1.0])
        cfg = IterationConfig(step=0.4, max_iters=2, residual_tol=1e-14)
        trace = solve_projected_gradient(op, UNIT_BOX, cfg, [0.0, 1.0])
        assert trace.status == "MaxIters"
        assert trace.rows == 3


class TestTraceContents:
    def test_reference_columns_populated(self):
        op = AffineOperator(matrix=[[2.0, 0.0], [0.0, 1.0]], offset=[-2.0, 1.0])
        cfg = IterationConfig(step=0.4)
        trace = solve_projected_gradient(op, UNIT_BOX, cfg, [0.0, 1.0], x_ref=[1.0, 0.0])
        assert trace.operator_residuals is not None
        assert trace.shortcut_bounds is not None
        assert trace.gamma == pytest.approx(1.0)
        assert np.all(trace.natural_residuals >= 0.0)
        assert np.all(trace.operator_residuals >= 0.0)
        np.testing.assert_allclose(
            trace.shortcut_bounds, trace.operator_residuals / trace.gamma, rtol=1e-15
        )
        assert trace.natural_residuals[-1] <= cfg.residual_tol

    def test_no_reference_no_columns(self):
        op = shifted_identity([0.5, 0.5])
        trace = solve_projected_gradient(op, UNIT_BOX, IterationConfig(step=1.0), [0.0, 0.0])
        assert trace.operator_residuals is None
        assert trace.shortcut_bounds is None

    def test_residual_monotone_for_symmetric_instances(self, golden_box_scenarios):
        for sc in golden_box_scenarios:
            if not np.allclose(sc.operator.matrix, sc.operator.matrix.T):
                continue
            trace = solve_projected_gradient(sc.operator, sc.set_, sc.config, sc.x0)
            r = trace.natural_residuals
            assert np.all(r[1:] <= r[:-1] + 1e-12)

    def test_shortcut_bound_dominates_distance(self, golden_scenarios):
        # |x_n - x*| <= s_n / gamma + 1e-9 along every golden trace
        for sc in golden_scenarios:
            trace = solve_projected_gradient(sc.operator, sc.set_, sc.config, sc.x0,
                                             x_ref=sc.x_star)
            distances = trace.distances_to(sc.x_star)
            assert np.all(distances <= trace.shortcut_bounds + 1e-9)

    def test_converged_iterate_satisfies_sampled_vi(self, golden_scenarios):
        # <Ax, y - x> >= -1e-6 for 1000 members y of the set
        for sc in golden_scenarios:
            trace = solve_projected_gradient(sc.operator, sc.set_, sc.config, sc.x0)
            assert trace.status == "Converged"
            x = trace.final
            ax = evaluate(sc.operator, x)
            ys = sample_in_set(sc.set_, np.random.default_rng(99), 1000)
            assert float(np.min((ys - x) @ ax)) >= -1e-6


class TestHalpern:
    def test_identity_map_matches_projected_gradient(self, golden_scenarios):
        for sc in golden_scenarios:
            pg = solve_projected_gradient(sc.operator, sc.set_, sc.config, sc.x0)
            hal = solve_halpern(sc.operator, sc.set_, Identity(), sc.config, sc.x0,
                                anchor=sc.x0)
            assert np.linalg.norm(hal.final - pg.final) <= 1e-6

    def test_harmonic_default_tracks_projected_gradient(self):
        op = AffineOperator(matrix=[[2.0, 0.0], [0.0, 1.0]], offset=[-2.0, 1.0])
        pg = solve_projected_gradient(op, UNIT_BOX, IterationConfig(step=0.4), [0.0, 1.0])
        cfg = IterationConfig(step=0.4, max_iters=2000, residual_tol=1e-12)
        hal = solve_halpern(op, UNIT_BOX, Identity(), cfg, [0.0, 1.0])
        assert np.linalg.norm(hal.final - pg.final) <= 1e-3

    def test_first_step_is_anchor_under_harmonic_rule(self):
        op = shifted_identity([0.5, 0.5])
        cfg = IterationConfig(step=1.0, max_iters=1, residual_tol=1e-15)
        anchor = np.array([0.25, 0.75])
        trace = solve_halpern(op, UNIT_BOX, Identity(), cfg, [0.0, 0.0], anchor=anchor)
        np.testing.assert_allclose(trace.iterates[1], anchor, atol=1e-15)

    def test_interior_instance_reaches_center(self):
        op = shifted_identity([0.5, 0.5])
        cfg = IterationConfig(step=1.0, anchor_schedule=AnchorSchedule(rule="geometric"))
        trace = solve_halpern(op, UNIT_BOX, Identity(), cfg, [0.0, 0.0],
                              anchor=np.zeros(2))
        np.testing.assert_allclose(trace.final, [0.5, 0.5], atol=1e-6)

    def test_common_point_with_affine_average(self):
        # q = -M c makes c solve the VI; c is also the fixed point of S
        c = np.array([0.25, 0.25])
        op = shifted_identity(c)
        s_map = AffineAverage(t=0.5, fixed_point=c)
        cfg = IterationConfig(
            step=1.0,
            anchor_schedule=AnchorSchedule(rule="geometric"),
            max_iters=200,
            residual_tol=1e-10,
        )
        trace = solve_halpern(op, UNIT_BOX, s_map, cfg, [1.0, 1.0])
        x = trace.final
        assert np.linalg.norm(x - s_map.apply(x)) <= 1e-5
        assert trace.natural_residuals[-1] <= 1e-5
        assert contains(UNIT_BOX, x, tol=1e-6)

    def test_projection_map_variant_runs(self):
        op = shifted_identity([0.5, 0.5])
        s_map = ProjectionOnto(Ball(center=[0.5, 0.5], radius=0.25))
        cfg = IterationConfig(step=1.0, anchor_schedule=AnchorSchedule(rule="geometric"))
        trace = solve_halpern(op, UNIT_BOX, s_map, cfg, [0.0, 0.0])
        np.testing.assert_allclose(trace.final, [0.5, 0.5], atol=1e-6)

    def test_anchor_dimension_checked(self):
        op = shifted_identity([0.5, 0.5])
        with pytest.raises(Exception):
            solve_halpern(op, UNIT_BOX, Identity(), IterationConfig(step=1.0),
                          [0.0, 0.0], anchor=[0.0, 0.0, 0.0])


class TestNonexpansiveMaps:
    @pytest.mark.parametrize(
        "s_map",
        [
            Identity(),
            ProjectionOnto(Ball(center=[0.0, 0.0], radius=1.0)),
            AffineAverage(t=0.5, fixed_point=np.array([0.25, 0.25])),
        ],
    )
    def test_sampled_nonexpansiveness(self, s_map):
        rng = np.random.default_rng(8)
        for _ in range(500):
            x = rng.uniform(-10, 10, size=2)
            y = rng.uniform(-10, 10, size=2)
            assert np.linalg.norm(s_map.apply(x) - s_map.apply(y)) <= (
                np.linalg.norm(x - y) + 1e-12
            )

    def test_affine_average_validation(self):
        with pytest.raises(ValidationError):
            AffineAverage(t=1.5, fixed_point=np.zeros(2))


class TestShortcutBound:
    def test_arithmetic(self):
        assert shortcut_distance_bound(0.5, 1e-3) == pytest.approx(2e-3)

    def test_zero_residual(self):
        assert shortcut_distance_bound(1.0, 0.0) == 0.0

    def test_modulus_from_cocoercivity_constants(self):
        # gamma = v - m * eps^2 with (m, v, eps) = (0.5, 1, 1)
        gamma = 1.0 - 0.5 * 1.0**2
        assert gamma == 0.5
        assert shortcut_distance_bound(gamma, 1e-3) == pytest.approx(2e-3)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ConfigurationError):
            shortcut_distance_bound(0.0, 1e-3)
        with pytest.raises(ConfigurationError):
            shortcut_distance_bound(-1.0, 1e-3)
        with pytest.raises(ValidationError):
            shortcut_distance_bound(1.0, -1e-3)


class TestCompareStopping:
    def test_identity_instance_fires_both_criteria_together(self):
        # r_n = s_n for A = I - c with lambda = 1 and an interior solution
        op = shifted_identity([0.5, 0.5])
        record = compare_stopping(op, UNIT_BOX, IterationConfig(step=1.0), [0.0, 0.0],
                                  [0.5, 0.5])
        assert record.shortcut_iteration == record.natural_iteration

    def test_golden_observed_iterations(self, golden_scenarios):
        frozen = json.loads(GOLDEN_FILE.read_text())
        for sc in golden_scenarios:
            record = compare_stopping(sc.operator, sc.set_, sc.config, sc.x0, sc.x_star,
                                      sc.delta)
            expected = frozen[sc.name]
            assert record.shortcut_iteration == expected["shortcut_iteration"]
            assert record.natural_iteration == expected["natural_iteration"]
            assert record.shortcut_iteration <= record.natural_iteration + 5

    def test_natural_residual_factor(self):
        # C = (1 + lam L)/(lam mu) for diag(2, 1): L = 2, mu = 1
        op = AffineOperator(matrix=[[2.0, 0.0], [0.0, 1.0]], offset=[-2.0, 1.0])
        assert natural_residual_factor(op, 0.4) == (1.0 + 0.4 * 2.0) / 0.4 == 4.5

    @pytest.mark.parametrize("scale", [1.0, 0.25], ids=["lam-mu-subnormal", "lam-mu-underflows"])
    def test_step_too_small_for_a_finite_factor_certifies_nothing(self, scale):
        # lam = 5e-324 moves no coordinate, so r_0 = 0 while |x_0 - x*| = sqrt(2);
        # lam mu is 5e-324 (C = inf) or 0 (no division), and no warning is raised
        op = AffineOperator(matrix=[[2.0 * scale, 0.0], [0.0, scale]], offset=[-2.0, 1.0])
        assert natural_residual_factor(op, 5e-324) == math.inf
        record = compare_stopping(op, UNIT_BOX, IterationConfig(step=5e-324, max_iters=5),
                                  [0.0, 1.0], [1.0, 0.0])
        assert record.trace.natural_residuals.tolist() == [0.0]
        assert record.natural_iteration is None

    def test_natural_iteration_is_the_first_row_certified_by_c_r_n(self, golden_scenarios):
        for sc in golden_scenarios:
            record = compare_stopping(sc.operator, sc.set_, sc.config, sc.x0, sc.x_star,
                                      sc.delta)
            c = natural_residual_factor(sc.operator, sc.config.step)
            bound = c * record.trace.natural_residuals
            first = int(np.argmax(bound <= sc.delta))
            assert record.natural_iteration == first and bound[first] <= sc.delta
            assert np.all(bound[:first] > sc.delta)

    def test_natural_criterion_fires_when_c_exceeds_1000(self):
        # M = diag(50, 1) at half the step limit 2 mu / L^2: C = 1.02 / 4e-4 = 2550,
        # so C r_n <= delta needs r_n <= delta / 2550, below a stop at delta * 1e-3
        op = AffineOperator(matrix=[[50.0, 0.0], [0.0, 1.0]], offset=[-25.0, -0.5])
        c = natural_residual_factor(op, 4e-4)
        assert c == pytest.approx(2550.0)
        cfg = IterationConfig(step=4e-4, residual_tol=1e-4, max_iters=20_000)
        record = compare_stopping(op, UNIT_BOX, cfg, [0.5, 1.0], [0.5, 0.5], delta=0.1)
        bound = c * record.trace.natural_residuals
        first = int(np.argmax(bound <= 0.1))
        assert record.natural_iteration == first and bound[first] <= 0.1
        assert np.all(bound[:first] > 0.1)
        assert np.linalg.norm(record.trace.iterates[first] - [0.5, 0.5]) <= 0.1

    def test_shortcut_criterion_fires_when_l_over_gamma_times_c_exceeds_1000(self):
        # M = R diag(30, 1) R^T at half the step limit: C = 930 and L / gamma = 30.
        # s_n / gamma <= delta needs r_n <= delta gamma / (L C); a stop at
        # delta / (2C) ended the trace at row 3097, with bound_n = 1.2e-6 there
        rot = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
        m = rot @ np.diag([30.0, 1.0]) @ rot.T
        x_star = np.array([1.0, 0.25])
        op = AffineOperator(matrix=m, offset=np.array([-1.0, 0.0]) - m @ x_star)
        step = certify_moduli(op).ism_alpha
        assert natural_residual_factor(op, step) == pytest.approx(930.0)
        cfg = IterationConfig(step=step, residual_tol=1e-8, max_iters=100_000)
        record = compare_stopping(op, UNIT_BOX, cfg, [0.0, 0.0], x_star, delta=1e-6)
        assert (record.shortcut_iteration, record.natural_iteration) == (3148, 2921)
        assert record.trace.shortcut_bounds[3148] <= 1e-6 < record.trace.shortcut_bounds[3147]

    def test_singular_operator_refused(self):
        singular = AffineOperator(matrix=[[1.0, 0.0], [0.0, 0.0]], offset=[0.0, 0.0])
        with pytest.raises(ConfigurationError, match="non-expansive operator"):
            compare_stopping(singular, UNIT_BOX, IterationConfig(step=0.5), [0.0, 0.0],
                             [0.0, 0.0])

    def test_invalid_delta_rejected(self):
        op = shifted_identity([0.5, 0.5])
        with pytest.raises(ConfigurationError):
            compare_stopping(op, UNIT_BOX, IterationConfig(step=1.0), [0.0, 0.0],
                             [0.5, 0.5], delta=0.0)

    @pytest.mark.parametrize("delta,accepted", [(2.5e-321, True), (2.4e-321, False),
                                                (1e-322, False), (math.inf, False)])
    def test_delta_needs_a_nonzero_inner_tolerance(self, delta, accepted):
        # compare_stopping runs to residual_tol delta * 1e-3, which must not be 0
        op = shifted_identity([0.5, 0.5])
        if accepted:
            compare_stopping(op, UNIT_BOX, IterationConfig(step=1.0), [0.0, 0.0], [0.5, 0.5],
                             delta=delta)
        else:
            with pytest.raises(ConfigurationError, match="^comparison target delta must be"):
                compare_stopping(op, UNIT_BOX, IterationConfig(step=1.0), [0.0, 0.0],
                                 [0.5, 0.5], delta=delta)


def test_divergence_error_carries_iteration_index():
    err = DivergenceError(17)
    assert err.iteration == 17
    assert "17" in str(err)


def literal_solve(monkeypatch, solve, *args, **kwargs):
    """``solve`` run on the reference loop that re-checks every input, with a
    projection map S that re-checks every point it maps."""
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_run", literal_run)
        patch.setattr(ProjectionOnto, "apply", literal_projection_apply)
        return solve(*args, **kwargs)


SET_TYPES = (Box, Ball, Halfspace, Simplex, AffineSubspace)
MAP_TYPES = (Identity, ProjectionOnto, AffineAverage)
RULES = ("harmonic", "power", "geometric")
LOOP_VARIANTS = list(itertools.product(SET_TYPES, MAP_TYPES, RULES))
LOOP_DIMS = (1, 2, 3, 10, 50)
LOOP_INSTANCES = 150
LARGE_DIM = 500  # past LOOP_DIMS: BLAS blocks the matvec
LARGE_INSTANCES = (0, 10, 20, 30, 40)  # one per set type, with x_ref on even i


def random_set(rng, set_type, n):
    if set_type is Box:
        lower = rng.uniform(-2.0, 0.0, n)
        return Box(lower=lower, upper=lower + rng.uniform(0.0, 2.0, n))
    if set_type is Ball:
        return Ball(center=rng.uniform(-1.0, 1.0, n), radius=rng.uniform(0.5, 2.0))
    if set_type is Halfspace:
        return Halfspace(normal=rng.normal(size=n), offset=rng.uniform(-1.0, 1.0))
    if set_type is Simplex:
        return Simplex(n)
    basis = np.linalg.qr(rng.normal(size=(n, n)))[0][:, : n // 2].T
    return AffineSubspace(basepoint=rng.normal(size=n), orthonormal_basis=basis)


def loop_instance(i, n=None):
    """Instance i: every (set, map, rule) triple recurs every 45 instances,
    with the dimension shifted each round unless ``n`` is given; even i supply
    x_ref, and every seventh instance caps the run at 5 iterations."""
    rng = np.random.default_rng(1000 + i)
    set_type, map_type, rule = LOOP_VARIANTS[i % len(LOOP_VARIANTS)]
    n = n or LOOP_DIMS[(i + i // len(LOOP_VARIANTS)) % len(LOOP_DIMS)]
    op = random_monotone_operator(rng, n)
    alpha = certify_moduli(op).ism_alpha
    schedule = AnchorSchedule(rule=rule, scale=rng.uniform(0.2, 1.0),
                              exponent=rng.uniform(0.5, 2.0), ratio=rng.uniform(0.1, 0.9))
    cfg = IterationConfig(step=rng.uniform(0.2, 0.95) * 2.0 * alpha, anchor_schedule=schedule,
                          max_iters=5 if i % 7 == 0 else 300)
    if map_type is Identity:
        s_map = Identity()
    elif map_type is ProjectionOnto:
        s_map = ProjectionOnto(random_set(rng, Ball, n))
    else:
        s_map = AffineAverage(t=rng.uniform(0.0, 1.0), fixed_point=rng.normal(size=n))
    return dict(
        op=op, set_=random_set(rng, set_type, n), s_map=s_map, cfg=cfg,
        x0=3.0 * rng.normal(size=n),
        anchor=None if i % 3 else rng.normal(size=n),
        x_ref=rng.normal(size=n) if i % 2 == 0 else None,
    )


class TestReferenceLoop:
    """The solver loop validates its inputs once per solve; the reference loop
    re-checks them on every iteration.  Both must give the same bits."""

    @pytest.mark.parametrize("i", range(LOOP_INSTANCES))
    def test_matches_reference_loop(self, monkeypatch, i):
        inst = loop_instance(i)
        pg_args = (inst["op"], inst["set_"], inst["cfg"], inst["x0"])
        halpern_args = (inst["op"], inst["set_"], inst["s_map"], inst["cfg"], inst["x0"])
        halpern_kwargs = {"anchor": inst["anchor"], "x_ref": inst["x_ref"]}
        assert_same_trace(
            solve_projected_gradient(*pg_args, x_ref=inst["x_ref"]),
            literal_solve(monkeypatch, solve_projected_gradient, *pg_args, x_ref=inst["x_ref"]))
        assert_same_trace(
            solve_halpern(*halpern_args, **halpern_kwargs),
            literal_solve(monkeypatch, solve_halpern, *halpern_args, **halpern_kwargs))

    @pytest.mark.parametrize("i", LARGE_INSTANCES)
    def test_matches_reference_loop_at_n500(self, monkeypatch, i):
        inst = loop_instance(i, n=LARGE_DIM)
        cfg = replace(inst["cfg"], max_iters=min(inst["cfg"].max_iters, 25))
        pg_args = (inst["op"], inst["set_"], cfg, inst["x0"])
        halpern_args = (inst["op"], inst["set_"], inst["s_map"], cfg, inst["x0"])
        halpern_kwargs = {"anchor": inst["anchor"], "x_ref": inst["x_ref"]}
        lean = solve_projected_gradient(*pg_args, x_ref=inst["x_ref"])
        assert lean.iterates.shape[1] == LARGE_DIM
        assert_same_trace(
            lean,
            literal_solve(monkeypatch, solve_projected_gradient, *pg_args, x_ref=inst["x_ref"]))
        assert_same_trace(
            solve_halpern(*halpern_args, **halpern_kwargs),
            literal_solve(monkeypatch, solve_halpern, *halpern_args, **halpern_kwargs))

    def test_large_instances_cover_every_set_type(self):
        set_types = {LOOP_VARIANTS[i % len(LOOP_VARIANTS)][0] for i in LARGE_INSTANCES}
        assert set_types == set(SET_TYPES)
        assert {i % 2 for i in LARGE_INSTANCES} == {0}  # every one supplies x_ref

    def test_instances_cover_every_variant(self):
        instances = [loop_instance(i) for i in range(LOOP_INSTANCES)]
        assert {(type(inst["set_"]), type(inst["s_map"]), inst["cfg"].anchor_schedule.rule)
                for inst in instances} == set(LOOP_VARIANTS)
        assert {inst["op"].dim for inst in instances} == set(LOOP_DIMS)
        assert {inst["x_ref"] is None for inst in instances} == {True, False}
        statuses = {
            solve_halpern(inst["op"], inst["set_"], inst["s_map"], inst["cfg"], inst["x0"]).status
            for inst in instances[:len(LOOP_VARIANTS)]}
        assert statuses == {solvers.CONVERGED, solvers.MAX_ITERS}

    @pytest.mark.parametrize("map_set", SET_TYPES)
    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_projection_maps_match_reference_loop(self, monkeypatch, map_set, n):
        rng = np.random.default_rng(2000 + 10 * n + SET_TYPES.index(map_set))
        op = random_monotone_operator(rng, n)
        cfg = IterationConfig(step=certify_moduli(op).ism_alpha, max_iters=300)
        args = (op, random_set(rng, Box, n), ProjectionOnto(random_set(rng, map_set, n)), cfg,
                3.0 * rng.normal(size=n))
        kwargs = {"anchor": rng.normal(size=n), "x_ref": rng.normal(size=n)}
        assert_same_trace(solve_halpern(*args, **kwargs),
                          literal_solve(monkeypatch, solve_halpern, *args, **kwargs))

    def test_projection_map_is_checked_once_per_solve(self, monkeypatch):
        calls = []
        project = ConvexSet.project

        def counting_project(self, x):
            calls.append(type(self).__name__)
            return project(self, x)

        monkeypatch.setattr(ConvexSet, "project", counting_project)
        s_map = ProjectionOnto(Ball(center=[0.5, 0.5], radius=0.25))
        trace = solve_halpern(shifted_identity([0.9, 0.9]), UNIT_BOX, s_map,
                              IterationConfig(step=1.0, max_iters=200), [0.0, 0.0])
        assert trace.rows > 50
        assert calls == []  # _check_inputs checks the start point; no projection re-checks

    def test_goldens_match_reference_loop(self, monkeypatch, golden_scenarios):
        for sc in golden_scenarios:
            pg_args = (sc.operator, sc.set_, sc.config, sc.x0)
            halpern_args = (sc.operator, sc.set_, sc.map_s, sc.config, sc.x0)
            assert_same_trace(
                solve_projected_gradient(*pg_args, x_ref=sc.x_star),
                literal_solve(monkeypatch, solve_projected_gradient, *pg_args, x_ref=sc.x_star))
            assert_same_trace(
                solve_halpern(*halpern_args, anchor=sc.anchor, x_ref=sc.x_star),
                literal_solve(monkeypatch, solve_halpern, *halpern_args, anchor=sc.anchor,
                              x_ref=sc.x_star))
            lean = compare_stopping(*pg_args, sc.x_star, sc.delta)
            literal = literal_solve(monkeypatch, compare_stopping, *pg_args, sc.x_star, sc.delta)
            assert (lean.shortcut_iteration, lean.natural_iteration) == (
                literal.shortcut_iteration, literal.natural_iteration)
            assert_same_trace(lean.trace, literal.trace)


class TestTraceUntil:
    """``until(tol)`` is the prefix of a trace that a solve stopping at
    residual_tol = tol makes."""

    @staticmethod
    def trace(with_reference=True):
        residuals = np.array([4.0, 2.0, 1.0, 0.5])
        return IterationTrace(
            iterates=np.arange(8.0).reshape(4, 2),
            natural_residuals=residuals,
            operator_residuals=2.0 * residuals if with_reference else None,
            shortcut_bounds=residuals if with_reference else None,
            status=solvers.MAX_ITERS,
            gamma=2.0,
        )

    @pytest.mark.parametrize("tol,rows", [(4.0, 1), (1.5, 3), (1.0, 3), (0.5, 4), (1e9, 1)])
    def test_rows_up_to_the_first_at_most_tol(self, tol, rows):
        full = self.trace()
        cut = full.until(tol)
        assert (cut.rows, cut.status, cut.gamma) == (rows, solvers.CONVERGED, 2.0)
        for name in ("iterates", "natural_residuals", "operator_residuals", "shortcut_bounds"):
            assert np.array_equal(getattr(cut, name), getattr(full, name)[:rows]), name
            assert not getattr(cut, name).flags.writeable

    def test_no_row_at_most_tol_keeps_the_whole_trace(self):
        full = self.trace()
        assert full.until(0.25) is full

    def test_missing_columns_stay_missing(self):
        cut = self.trace(with_reference=False).until(1.0)
        assert cut.rows == 3
        assert cut.operator_residuals is None and cut.shortcut_bounds is None

    @pytest.mark.parametrize("i", range(0, LOOP_INSTANCES, 5))
    def test_prefix_of_a_longer_run_is_the_shorter_run(self, monkeypatch, i):
        inst = loop_instance(i)
        args = (inst["op"], inst["set_"], inst["cfg"], inst["x0"])
        short = solve_projected_gradient(*args, x_ref=inst["x_ref"])
        longer = replace(inst["cfg"], residual_tol=inst["cfg"].residual_tol * 1e-3)
        long = solve_projected_gradient(*args[:2], longer, args[3], x_ref=inst["x_ref"])
        assert long.rows >= short.rows
        assert_same_trace(long.until(inst["cfg"].residual_tol), short)
        assert_same_trace(long.until(inst["cfg"].residual_tol),
                          literal_solve(monkeypatch, solve_projected_gradient, *args,
                                        x_ref=inst["x_ref"]))


class TestShapeMessages:
    """An array with the wrong number of axes is named by its shape; a 1-D
    array of the wrong length keeps the "has dimension" message."""

    def test_start_point(self):
        with pytest.raises(DimensionMismatchError,
                           match=r"^x0 has shape \(1, 2\), expected \(2,\)$") as excinfo:
            solve_projected_gradient(shifted_identity([0.5, 0.5]), UNIT_BOX,
                                     IterationConfig(step=1.0), [[0.0, 0.0]])
        assert (excinfo.value.expected, excinfo.value.actual) == (2, (1, 2))

    def test_anchor(self):
        with pytest.raises(DimensionMismatchError,
                           match=r"^anchor has shape \(2, 1\), expected \(2,\)$"):
            solve_halpern(shifted_identity([0.5, 0.5]), UNIT_BOX, Identity(),
                          IterationConfig(step=1.0), [0.0, 0.0], anchor=[[0.0], [0.0]])

    def test_projected_point(self):
        with pytest.raises(DimensionMismatchError,
                           match=r"^vector has shape \(1, 2\), expected \(2,\)$"):
            UNIT_BOX.project([[0.5, 0.5]])

    @pytest.mark.parametrize("x,shape", [([[1.0, 2.0]], "(1, 2)"), (1.0, "()")])
    def test_evaluated_point(self, x, shape):
        op = shifted_identity([0.5, 0.5])
        with pytest.raises(DimensionMismatchError,
                           match=rf"^vector has shape {re.escape(shape)}, expected \(2,\)$"):
            evaluate(op, x)
        with pytest.raises(DimensionMismatchError,
                           match=rf"^vector has shape {re.escape(shape)}, expected \(2,\)$"):
            solve_projected_gradient(op, UNIT_BOX, IterationConfig(step=1.0), [0.0, 0.0], x_ref=x)

    def test_one_dimensional_length_keeps_its_message(self):
        err = DimensionMismatchError(2, (3,), what="x0")
        assert (str(err), err.actual) == ("x0 has dimension 3, expected 2", 3)
        assert str(DimensionMismatchError(2, 3)) == "vector has dimension 3, expected 2"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestLoopErrors:
    """Errors raised inside a solve keep their type and message."""

    def test_overflowing_gradient_step(self):
        op = AffineOperator(matrix=10.0 * np.eye(2), offset=[0.0, 0.0])
        halfspace = Halfspace(normal=[1.0, 0.0], offset=0.0)
        cfg = IterationConfig(step=0.1)
        with pytest.raises(ValidationError, match="^point has non-finite entries$"):
            solve_projected_gradient(op, halfspace, cfg, [-1e308, 0.0])
        with pytest.raises(ValidationError, match="^point has non-finite entries$"):
            solve_halpern(op, halfspace, Identity(), cfg, [-1e308, 0.0])

    def test_start_point_whose_projection_overflows(self):
        op = AffineOperator(matrix=np.eye(2), offset=[0.0, 0.0])
        halfspace = Halfspace(normal=[1.0, 1.0], offset=0.0)
        cfg = IterationConfig(step=1.0)
        with pytest.raises(ValidationError, match="^input vector has non-finite entries$"):
            solve_projected_gradient(op, halfspace, cfg, [1e308, 1e308])
        with pytest.raises(ValidationError, match="^input vector has non-finite entries$"):
            solve_halpern(op, halfspace, Identity(), cfg, [1e308, 1e308])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reference_point(self, bad):
        op = shifted_identity([0.5, 0.5])
        cfg = IterationConfig(step=1.0)
        with pytest.raises(ValidationError, match="^input vector has non-finite entries$"):
            solve_projected_gradient(op, UNIT_BOX, cfg, [0.0, 0.0], x_ref=[bad, 0.0])
        with pytest.raises(ValidationError, match="^input vector has non-finite entries$"):
            solve_halpern(op, UNIT_BOX, Identity(), cfg, [0.0, 0.0], x_ref=[0.0, bad])

    def test_reference_point_dimension(self):
        op = shifted_identity([0.5, 0.5])
        with pytest.raises(DimensionMismatchError, match="^vector has dimension 3, expected 2$"):
            solve_projected_gradient(op, UNIT_BOX, IterationConfig(step=1.0), [0.0, 0.0],
                                     x_ref=[0.0, 0.0, 0.0])

    @pytest.mark.parametrize("x0", [[0.0, 0.0], [0.5, 0.5]])
    def test_projection_map_of_the_wrong_dimension(self, monkeypatch, x0):
        # checked before the first iteration, so also when x0 solves the VI
        op = shifted_identity([0.5, 0.5])
        s_map = ProjectionOnto(Ball(center=[0.0, 0.0, 0.0], radius=1.0))
        for solve in (solve_halpern, lambda *a: literal_solve(monkeypatch, solve_halpern, *a)):
            with pytest.raises(DimensionMismatchError,
                               match="^map_s set has dimension 3, expected 2$"):
                solve(op, UNIT_BOX, s_map, IterationConfig(step=1.0), x0)

    @pytest.mark.parametrize("x0", [[0.0, 0.0], [0.5, 0.5]])
    def test_fixed_point_of_the_wrong_dimension(self, monkeypatch, x0):
        # checked before the first iteration: unchecked, (1 - t) x + t c failed to
        # broadcast mid-solve, or the solve returned when x0 solves the VI
        op = shifted_identity([0.5, 0.5])
        s_map = AffineAverage(t=0.5, fixed_point=[1.0, 2.0, 3.0])
        for solve in (solve_halpern, lambda *a: literal_solve(monkeypatch, solve_halpern, *a)):
            with pytest.raises(DimensionMismatchError,
                               match="^map_s fixed_point has dimension 3, expected 2$"):
                solve(op, UNIT_BOX, s_map, IterationConfig(step=1.0), x0)

    def test_map_that_changes_the_dimension(self):
        # (1 - t) x + t c would broadcast a 1-vector x against a 3-vector c
        op = AffineOperator(matrix=[[1.0]], offset=[0.0])
        s_map = AffineAverage(t=0.5, fixed_point=[1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatchError,
                           match="^map_s fixed_point has dimension 3, expected 1$"):
            solve_halpern(op, Box(lower=[-1.0], upper=[1.0]), s_map, IterationConfig(step=1.0),
                          [0.5])

    def test_user_map_that_changes_the_dimension(self):
        # a map the up-front checks cannot see into is caught by the loop's check
        class Doubling(NonexpansiveMap):
            def apply(self, x):
                return np.concatenate([x, x])

        op = AffineOperator(matrix=[[1.0]], offset=[0.0])
        with pytest.raises(DimensionMismatchError, match="^vector has dimension 2, expected 1$"):
            solve_halpern(op, Box(lower=[-1.0], upper=[1.0]), Doubling(),
                          IterationConfig(step=1.0), [0.5])

    def test_user_map_that_changes_the_shape(self):
        # n entries in a (1, n) array: the message names both shapes
        class Row(NonexpansiveMap):
            def apply(self, x):
                return x.reshape(1, -1)

        op = AffineOperator(matrix=np.eye(2), offset=[0.0, 0.0])
        with pytest.raises(DimensionMismatchError,
                           match=r"^vector has shape \(1, 2\), expected \(2,\)$"):
            solve_halpern(op, Box(lower=[-1.0, -1.0], upper=[1.0, 1.0]), Row(),
                          IterationConfig(step=1.0), [0.5, 0.5])


class Constant(NonexpansiveMap):
    """S(x) = v for every x: a user map that hands the loop any point, of any shape."""

    def __init__(self, v):
        self.v = v

    def apply(self, x):
        return self.v


FLOAT_EDGES = [math.nan, math.inf, -math.inf, 1.7976931348623157e308, -1.7976931348623157e308,
               5e-324, -5e-324, 1.1125369292536007e-308, 0.0, -0.0]


@st.composite
def loop_points(draw):
    """1-D or (1, n) arrays, n in 1..64, of any floats, float-range edges included."""
    n = draw(st.integers(1, 64))
    entries = draw(st.lists(st.one_of(st.sampled_from(FLOAT_EDGES), st.floats()),
                            min_size=n, max_size=n))
    v = np.array(entries)
    return v.reshape(1, n) if draw(st.booleans()) else v


class TestFinitenessCheck:
    """The loop tests each point it makes for finiteness by counting finite
    entries; that must agree with np.isfinite(v).all() on every array, warn on
    none, and come before the shape test."""

    @settings(max_examples=300, deadline=None)
    @given(v=loop_points())
    def test_agrees_with_isfinite_all(self, v):
        # a_0 = 2^-60 rounds 1 - a_0 to 1, so x_1 = a_0 * 0 + (1 - a_0) * v is v
        n = v.shape[-1]
        cfg = IterationConfig(step=1.0, max_iters=1,
                              anchor_schedule=AnchorSchedule(rule="geometric", scale=2.0**-60))
        args = (AffineOperator(matrix=np.eye(n), offset=np.zeros(n)),
                Box(lower=-np.ones(n), upper=np.ones(n)), Constant(v), cfg, np.full(n, 0.5))
        with np.errstate(over="ignore"):  # r_1 = |x_1 - P_C(0)| may pass the float range
            if not np.isfinite(v).all():
                with pytest.raises(DivergenceError) as excinfo:
                    solve_halpern(*args, anchor=np.zeros(n))
                assert excinfo.value.iteration == 1
            elif v.ndim == 2:
                with pytest.raises(DimensionMismatchError, match=r"^vector has shape \(1, "):
                    solve_halpern(*args, anchor=np.zeros(n))
            else:
                trace = solve_halpern(*args, anchor=np.zeros(n))
                assert trace.rows == 2 and np.array_equal(trace.final, v)

    def test_finite_step_whose_square_overflows_warns_nothing(self, monkeypatch):
        # y = x - (x + q) = (1e200, -1e200): finite, though y . y is past the float range
        op = AffineOperator(matrix=np.eye(2), offset=[-1e200, 1e200])
        square = Box(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        cfg = IterationConfig(step=1.0, max_iters=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pg = solve_projected_gradient(op, square, cfg, [0.0, 0.0], x_ref=[0.5, 0.5])
            halpern = solve_halpern(op, square, Identity(), cfg, [0.0, 0.0], x_ref=[0.5, 0.5])
        assert pg.status == solvers.CONVERGED and pg.final.tolist() == [1.0, -1.0]
        assert halpern.rows == 51 and np.isfinite(halpern.iterates).all()
        assert_same_trace(pg, literal_solve(monkeypatch, solve_projected_gradient, op, square,
                                            cfg, [0.0, 0.0], x_ref=[0.5, 0.5]))
        assert_same_trace(halpern, literal_solve(monkeypatch, solve_halpern, op, square,
                                                 Identity(), cfg, [0.0, 0.0], x_ref=[0.5, 0.5]))

    def test_step_holding_both_infinities(self, monkeypatch):
        # 1.5 * 1.5e308 overflows, so y = x - 1.5 x = (-inf, +inf): its entries sum to NaN
        op = AffineOperator(matrix=np.eye(2), offset=[0.0, 0.0])
        wide = Box(lower=[-1.7e308, -1.7e308], upper=[1.7e308, 1.7e308])
        cfg, x0 = IterationConfig(step=1.5), [1.5e308, -1.5e308]
        for solve, extra in ((solve_projected_gradient, ()), (solve_halpern, (Identity(),))):
            for run in (solve, lambda *a, solve=solve: literal_solve(monkeypatch, solve, *a)):
                with warnings.catch_warnings(record=True) as record:
                    warnings.simplefilter("always")
                    with pytest.raises(ValidationError, match="^point has non-finite entries$"):
                        run(op, wide, *extra, cfg, x0)
                assert [str(w.message) for w in record] == ["overflow encountered in multiply"]

    @pytest.mark.parametrize("n,point", [
        (2, np.full((1, 2), np.nan)),
        (1, np.array([np.inf, 0.0, 0.0])),
        (1, np.full((2, 1), -np.inf)),
    ], ids=["row", "long", "column"])
    def test_wrong_shaped_non_finite_point_diverges(self, monkeypatch, n, point):
        # finiteness is tested first: the shape test never sees this point
        op = AffineOperator(matrix=np.eye(n), offset=np.zeros(n))
        cfg = IterationConfig(step=1.0, anchor_schedule=AnchorSchedule(rule="geometric",
                                                                       scale=0.5))
        args = (op, Box(lower=-np.ones(n), upper=np.ones(n)), Constant(point), cfg,
                np.full(n, 0.5))
        for solve in (solve_halpern, lambda *a: literal_solve(monkeypatch, solve_halpern, *a)):
            with pytest.raises(DivergenceError) as excinfo:
                solve(*args)
            assert excinfo.value.iteration == 1
