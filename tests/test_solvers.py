import json
from pathlib import Path

import numpy as np
import pytest

from vikit.errors import ConfigurationError, DivergenceError, ValidationError
from vikit.geometry import Ball, Box, Simplex, contains
from vikit.operators import AffineOperator, certify_moduli, evaluate
from vikit.solvers import (
    AffineAverage,
    AnchorSchedule,
    Identity,
    IterationConfig,
    ProjectionOnto,
    compare_stopping,
    map_from_json,
    shortcut_distance_bound,
    solve_halpern,
    solve_projected_gradient,
)

from oracles import box_quadratic_grid_argmin, sample_in_set

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

    def test_from_json(self):
        sched = AnchorSchedule.from_json({"rule": "geometric", "ratio": 0.25})
        assert sched.rule == "geometric" and sched.ratio == 0.25
        assert AnchorSchedule.from_json(None).rule == "harmonic"


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

    def test_from_json_key_names(self):
        cfg = IterationConfig.from_json(
            {"lambda": 0.4, "max_iters": 50, "tol": 1e-6, "seed": 3}
        )
        assert cfg.step == 0.4
        assert cfg.max_iters == 50
        assert cfg.residual_tol == 1e-6
        assert cfg.seed == 3
        with pytest.raises(ValidationError):
            IterationConfig.from_json({"max_iters": 50})


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

    def test_map_from_json(self):
        assert isinstance(map_from_json(None), Identity)
        assert isinstance(map_from_json({"type": "identity"}), Identity)
        proj = map_from_json({"type": "projection", "set": {"type": "simplex", "dim": 2}})
        assert isinstance(proj, ProjectionOnto)
        assert isinstance(proj.set_, Simplex)
        avg = map_from_json({"type": "affine_average", "t": 0.5, "fixed_point": [0.0, 0.0]})
        assert isinstance(avg, AffineAverage)
        with pytest.raises(ValidationError):
            map_from_json({"type": "reflector"})


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


def test_divergence_error_carries_iteration_index():
    err = DivergenceError(17)
    assert err.iteration == 17
    assert "17" in str(err)
