import numpy as np
import pytest

from vikit.errors import DimensionMismatchError, ValidationError
from vikit.operators import (
    AffineOperator,
    certify_moduli,
    check_expansive,
    check_ism,
    check_relaxed_cocoercive,
    evaluate,
    sample_pairs,
)

from oracles import (
    gram_spectral,
    min_singular_vector,
    power_sigma_max,
    power_sigma_min,
    random_monotone_operator,
)

IDENTITY = AffineOperator(matrix=np.eye(2), offset=[0.0, 0.0])
DIAG = AffineOperator(matrix=[[2.0, 0.0], [0.0, 1.0]], offset=[-2.0, 1.0])
ROTATION = AffineOperator(matrix=[[1.0, -1.0], [1.0, 1.0]], offset=[0.0, 0.0])


class TestEvaluate:
    def test_identity(self):
        np.testing.assert_array_equal(evaluate(IDENTITY, [3.0, 4.0]), [3.0, 4.0])

    def test_diagonal_with_offset(self):
        np.testing.assert_array_equal(evaluate(DIAG, [1.0, 0.0]), [0.0, 1.0])

    def test_rotation(self):
        np.testing.assert_array_equal(evaluate(ROTATION, [1.0, 0.0]), [1.0, 1.0])

    def test_dimension_mismatch_names_sizes(self):
        with pytest.raises(DimensionMismatchError) as excinfo:
            evaluate(DIAG, [1.0, 2.0, 3.0])
        assert excinfo.value.expected == 2
        assert excinfo.value.actual == 3
        assert "2" in str(excinfo.value) and "3" in str(excinfo.value)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValidationError):
            evaluate(DIAG, [np.nan, 0.0])


class TestConstruction:
    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            AffineOperator(matrix=[[1.0, 0.0]], offset=[0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            AffineOperator(matrix=[[np.inf, 0.0], [0.0, 1.0]], offset=[0.0, 0.0])

    def test_offset_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            AffineOperator(matrix=np.eye(2), offset=[0.0, 0.0, 0.0])


class TestCertifyModuli:
    def test_identity(self):
        m = certify_moduli(IDENTITY)
        assert m.lipschitz == pytest.approx(1.0, abs=1e-12)
        assert m.expansiveness == pytest.approx(1.0, abs=1e-12)
        assert m.strong_monotonicity == pytest.approx(1.0, abs=1e-12)
        assert m.ism_alpha == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        # singular values of diag(2, 1) are 2 and 1; alpha = v / eps^2 = 1/4
        m = certify_moduli(DIAG)
        assert m.lipschitz == pytest.approx(2.0, abs=1e-12)
        assert m.expansiveness == pytest.approx(1.0, abs=1e-12)
        assert m.strong_monotonicity == pytest.approx(1.0, abs=1e-12)
        assert m.ism_alpha == pytest.approx(0.25, abs=1e-12)
        assert m.cocoercive_pair == (0.0, m.strong_monotonicity)

    def test_scaled_rotation(self):
        # M^T M = 2I so both singular values are sqrt(2); sym(M) = I
        m = certify_moduli(ROTATION)
        assert m.lipschitz == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert m.expansiveness == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert m.strong_monotonicity == pytest.approx(1.0, abs=1e-12)
        assert m.ism_alpha == pytest.approx(0.5, abs=1e-12)

    def test_computed_once_per_operator(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        op = AffineOperator(matrix=[[2.0, 0.0], [0.0, 1.0]], offset=[-2.0, 1.0])
        first = certify_moduli(op)
        assert certify_moduli(op) is first
        assert op.moduli is first
        assert len(calls) == 1

    def test_alpha_absent_without_strong_monotonicity(self):
        indefinite = AffineOperator(matrix=[[1.0, 0.0], [0.0, -1.0]], offset=[0.0, 0.0])
        assert certify_moduli(indefinite).ism_alpha is None
        zero = AffineOperator(matrix=np.zeros((2, 2)), offset=[0.0, 0.0])
        assert certify_moduli(zero).ism_alpha is None

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_matches_power_iteration_oracle(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(5):
            matrix = rng.uniform(-2.0, 2.0, size=(dim, dim))
            op = AffineOperator(matrix=matrix, offset=np.zeros(dim))
            m = certify_moduli(op)
            assert abs(m.lipschitz - power_sigma_max(matrix)) <= 1e-10
            assert abs(m.expansiveness - power_sigma_min(matrix)) <= 1e-10

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_gamma_never_exceeds_lipschitz(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            op = AffineOperator(
                matrix=rng.uniform(-3.0, 3.0, size=(dim, dim)), offset=np.zeros(dim)
            )
            m = certify_moduli(op)
            assert m.expansiveness <= m.lipschitz + 1e-12

    def test_alpha_is_certified_lower_bound(self):
        # <Mz, z> >= alpha |Mz|^2 must hold on sampled differences
        rng = np.random.default_rng(42)
        for dim in (1, 2, 5):
            op = random_monotone_operator(rng, dim)
            alpha = certify_moduli(op).ism_alpha
            assert alpha is not None
            z = rng.uniform(-10.0, 10.0, size=(2000, dim))
            mz = z @ op.matrix.T
            lhs = np.einsum("ij,ij->i", mz, z)
            rhs = alpha * np.einsum("ij,ij->i", mz, mz)
            assert np.all(lhs >= rhs - 1e-9)


class TestCheckIsm:
    def test_identity_any_alpha_one(self):
        xs, ys = sample_pairs(2, count=500, seed=1)
        report = check_ism(IDENTITY, 1.0, (xs, ys))
        assert report.status == "Pass"
        assert report.witness is None
        assert report.samples_used == 500

    def test_certified_alpha_passes_bulk(self):
        xs, ys = sample_pairs(2, count=10_000, seed=2)
        report = check_ism(DIAG, 0.25, (xs, ys))
        assert report.status == "Pass"
        assert report.max_violation <= 0.0

    def test_too_large_alpha_fails_with_witness(self):
        # <Mz, z> = 2, |Mz|^2 = 4, and 0.6 * 4 = 2.4 > 2 for z = (1, 0)
        report = check_ism(DIAG, 0.6, [([1.0, 0.0], [0.0, 0.0])])
        assert report.status == "Fail"
        wx, wy = report.witness
        np.testing.assert_array_equal(wx, [1.0, 0.0])
        np.testing.assert_array_equal(wy, [0.0, 0.0])
        assert report.max_violation == pytest.approx(0.4, abs=1e-8)

    def test_empty_pairs_refused(self):
        with pytest.raises(ValidationError):
            check_ism(DIAG, 0.25, [])

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValidationError):
            check_ism(DIAG, 0.0, [([1.0, 0.0], [0.0, 0.0])])

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_certified_alpha_passes_every_dim(self, dim):
        rng = np.random.default_rng(300 + dim)
        op = random_monotone_operator(rng, dim)
        alpha = certify_moduli(op).ism_alpha
        assert alpha is not None
        report = check_ism(op, alpha, sample_pairs(dim, count=10_000, seed=dim))
        assert report.status == "Pass"


class TestCheckRelaxedCocoercive:
    def test_identity_equality_case(self):
        xs, ys = sample_pairs(2, count=500, seed=3)
        assert check_relaxed_cocoercive(IDENTITY, 0.0, 1.0, (xs, ys)).status == "Pass"

    def test_slack_term_only_weakens(self):
        # strongly monotone implies relaxed cocoercive for any u >= 0
        xs, ys = sample_pairs(2, count=500, seed=4)
        assert check_relaxed_cocoercive(IDENTITY, 0.5, 1.0, (xs, ys)).status == "Pass"

    def test_v_above_modulus_fails(self):
        # <Mz, z> = 1 < 1.5 = v |z|^2 for z = (0, 1)
        report = check_relaxed_cocoercive(DIAG, 0.0, 1.5, [([0.0, 1.0], [0.0, 0.0])])
        assert report.status == "Fail"
        assert report.witness is not None

    def test_parameter_validation(self):
        pair = [([0.0, 1.0], [0.0, 0.0])]
        with pytest.raises(ValidationError):
            check_relaxed_cocoercive(DIAG, -0.1, 1.0, pair)
        with pytest.raises(ValidationError):
            check_relaxed_cocoercive(DIAG, 0.0, 0.0, pair)
        with pytest.raises(ValidationError):
            check_relaxed_cocoercive(DIAG, 0.0, 1.0, [])


class TestCheckExpansive:
    def test_identity(self):
        xs, ys = sample_pairs(2, count=500, seed=5)
        assert check_expansive(IDENTITY, 1.0, (xs, ys)).status == "Pass"

    def test_rotation_at_nominal_modulus(self):
        xs, ys = sample_pairs(2, count=500, seed=6)
        assert check_expansive(ROTATION, 1.414, (xs, ys)).status == "Pass"

    def test_weak_direction_fails(self):
        # |Mz| = 0.1 < 1 = gamma |z| for z = (0, 1)
        op = AffineOperator(matrix=[[2.0, 0.0], [0.0, 0.1]], offset=[0.0, 0.0])
        report = check_expansive(op, 1.0, [([0.0, 1.0], [0.0, 0.0])])
        assert report.status == "Fail"
        assert report.max_violation == pytest.approx(0.9, abs=1e-8)

    def test_empty_pairs_refused(self):
        with pytest.raises(ValidationError):
            check_expansive(DIAG, 1.0, [])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sigma_min_is_sharp(self, seed):
        # gamma = sigma_min passes everywhere; inflating it by 1e-3 fails on a
        # pair aligned with the minimal singular vector.
        rng = np.random.default_rng(700 + seed)
        matrix = rng.uniform(-1.0, 1.0, size=(3, 3)) + 1.5 * np.eye(3)
        op = AffineOperator(matrix=matrix, offset=np.zeros(3))
        gamma = certify_moduli(op).expansiveness
        assert gamma > 1e-3
        xs, ys = sample_pairs(3, count=2000, seed=seed)
        assert check_expansive(op, gamma, (xs, ys)).status == "Pass"
        direction = min_singular_vector(matrix)
        aligned = [(direction, np.zeros(3))]
        report = check_expansive(op, gamma * (1.0 + 1e-3), aligned)
        assert report.status == "Fail"


class TestMonotonicityChainProperty:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_squared_chain_from_certified_moduli(self, dim):
        rng = np.random.default_rng(900 + dim)
        op = random_monotone_operator(rng, dim)
        certified = certify_moduli(op)
        m_const = 0.25 * certified.strong_monotonicity / certified.lipschitz**2
        gamma = certified.strong_monotonicity - m_const * certified.lipschitz**2
        assert gamma > 0.0
        xs, ys = sample_pairs(dim, count=5000, seed=dim)
        z = xs - ys
        dz = z @ op.matrix.T
        inner = np.einsum("ij,ij->i", dz, z)
        sq = np.einsum("ij,ij->i", z, z)
        assert np.all(inner >= gamma * sq - 1e-9)
        assert np.all(inner >= -1e-9)


def test_sample_pairs_is_seeded_and_bounded():
    xs1, ys1 = sample_pairs(3, count=100, seed=5)
    xs2, ys2 = sample_pairs(3, count=100, seed=5)
    np.testing.assert_array_equal(xs1, xs2)
    np.testing.assert_array_equal(ys1, ys2)
    assert xs1.shape == (100, 3)
    assert np.all(xs1 >= -10.0) and np.all(xs1 <= 10.0)
    assert not np.array_equal(xs1, sample_pairs(3, count=100, seed=6)[0])


def test_gram_spectral_oracle_agrees_with_power_iteration():
    # sanity for the test oracles themselves
    rng = np.random.default_rng(1234)
    matrix = rng.uniform(-2.0, 2.0, size=(4, 4))
    smax, smin, _ = gram_spectral(matrix)
    assert abs(smax - power_sigma_max(matrix)) <= 1e-10
    assert abs(smin - power_sigma_min(matrix)) <= 1e-10
