import math

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
from vikit.verification import lemma_cocoercive_expansive

from oracles import (
    gram_spectral,
    min_singular_vector,
    power_sigma_max,
    power_sigma_min,
    random_monotone_operator,
    sampled_check_expansive,
    sampled_check_ism,
    sampled_check_relaxed_cocoercive,
)

IDENTITY = AffineOperator(matrix=np.eye(2), offset=[0.0, 0.0])
DIAG = AffineOperator(matrix=[[2.0, 0.0], [0.0, 1.0]], offset=[-2.0, 1.0])
ROTATION = AffineOperator(matrix=[[1.0, -1.0], [1.0, 1.0]], offset=[0.0, 0.0])
NON_FINITE = [math.nan, math.inf, -math.inf]


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

    def test_call_is_evaluate(self):
        np.testing.assert_array_equal(DIAG([1.0, 0.0]), evaluate(DIAG, [1.0, 0.0]))
        with pytest.raises(ValidationError, match="^input vector has non-finite entries$"):
            DIAG([np.nan, 0.0])
        with pytest.raises(DimensionMismatchError, match=r"^vector has dimension 3, expected 2$"):
            DIAG([1.0, 2.0, 3.0])


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

    @pytest.mark.parametrize("matrix,offset,message", [
        (np.eye(2), [[0.0, 0.0]], r"offset must be a vector, got shape \(1, 2\)"),
        (np.zeros((0, 0)), [], "operator dimension must be positive"),
    ], ids=["offset-not-a-vector", "empty-matrix"])
    def test_rejection_message(self, matrix, offset, message):
        with pytest.raises(ValidationError, match=f"^{message}$") as excinfo:
            AffineOperator(matrix=matrix, offset=offset)
        assert type(excinfo.value) is ValidationError


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

    def test_one_term_gram_forms_read_the_moduli_svd(self, linalg_calls):
        # M^T M - gamma^2 I is decided from sigma(M)^2 of the one SVD, with no
        # eigen-solve; Lemma 2.2 adds only eigvalsh(M_s), which the moduli reuse
        op = AffineOperator(matrix=[[2.0, 0.0], [0.0, 1.0]], offset=[-2.0, 1.0])
        assert check_expansive(op, 1.0).status == "Pass"
        assert linalg_calls == {"eigvalsh": 0, "eigh": 0, "svd": 1}
        assert lemma_cocoercive_expansive(op, 0.0, 1.0, 2.0)[0].status == "Pass"
        assert linalg_calls == {"eigvalsh": 1, "eigh": 0, "svd": 1}
        certify_moduli(op)
        assert linalg_calls == {"eigvalsh": 1, "eigh": 0, "svd": 1}

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


def assert_unit_witness(report, direction):
    """A Fail witness is the pair (w, 0) for a unit w along ``direction``."""
    wx, wy = report.witness
    np.testing.assert_array_equal(wy, np.zeros_like(wy))
    assert np.linalg.norm(wx) == pytest.approx(1.0, abs=1e-12)
    direction = np.asarray(direction, dtype=float)
    assert abs(wx @ direction) == pytest.approx(np.linalg.norm(direction), abs=1e-9)


class TestCheckIsm:
    def test_identity_any_alpha_one(self):
        # M_s - alpha M^T M = I - I is exactly zero
        report = check_ism(IDENTITY, 1.0)
        assert report.status == "Pass"
        assert report.witness is None
        assert report.samples_used == 0
        sampled = sampled_check_ism(IDENTITY, 1.0, sample_pairs(2, count=500, seed=1))
        assert sampled.status == "Pass"
        assert sampled.witness is None
        assert sampled.samples_used == 500

    def test_certified_alpha_passes_bulk(self):
        report = check_ism(DIAG, 0.25)
        assert report.status == "Pass"
        assert report.max_violation <= 0.0
        sampled = sampled_check_ism(DIAG, 0.25, sample_pairs(2, count=10_000, seed=2))
        assert sampled.status == "Pass"
        assert sampled.max_violation <= 0.0

    def test_too_large_alpha_fails_with_witness(self):
        # <Mz, z> = 2, |Mz|^2 = 4, and 0.6 * 4 = 2.4 > 2 for z = (1, 0):
        # Q = diag(2 - 2.4, 1 - 0.6) has lambda_min = -0.4 along (1, 0)
        report = check_ism(DIAG, 0.6)
        assert report.status == "Fail"
        assert_unit_witness(report, [1.0, 0.0])
        assert report.max_violation == pytest.approx(0.4, abs=1e-8)
        sampled = sampled_check_ism(DIAG, 0.6, [([1.0, 0.0], [0.0, 0.0])])
        assert sampled.status == "Fail"
        wx, wy = sampled.witness
        np.testing.assert_array_equal(wx, [1.0, 0.0])
        np.testing.assert_array_equal(wy, [0.0, 0.0])
        assert sampled.max_violation == pytest.approx(0.4, abs=1e-8)

    def test_empty_pairs_refused(self):
        with pytest.raises(ValidationError):
            sampled_check_ism(DIAG, 0.25, [])

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValidationError):
            check_ism(DIAG, 0.0)

    @pytest.mark.parametrize("alpha", NON_FINITE)
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValidationError, match="alpha must be finite"):
            check_ism(IDENTITY, alpha)

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_certified_alpha_passes_every_dim(self, dim):
        rng = np.random.default_rng(300 + dim)
        op = random_monotone_operator(rng, dim)
        alpha = certify_moduli(op).ism_alpha
        assert alpha is not None
        assert check_ism(op, alpha).status == "Pass"
        sampled = sampled_check_ism(op, alpha, sample_pairs(dim, count=10_000, seed=dim))
        assert sampled.status == "Pass"


class TestCheckRelaxedCocoercive:
    def test_identity_equality_case(self):
        assert check_relaxed_cocoercive(IDENTITY, 0.0, 1.0).status == "Pass"
        pairs = sample_pairs(2, count=500, seed=3)
        assert sampled_check_relaxed_cocoercive(IDENTITY, 0.0, 1.0, pairs).status == "Pass"

    def test_slack_term_only_weakens(self):
        # strongly monotone implies relaxed cocoercive for any u >= 0
        assert check_relaxed_cocoercive(IDENTITY, 0.5, 1.0).status == "Pass"
        pairs = sample_pairs(2, count=500, seed=4)
        assert sampled_check_relaxed_cocoercive(IDENTITY, 0.5, 1.0, pairs).status == "Pass"

    def test_v_above_modulus_fails(self):
        # <Mz, z> = 1 < 1.5 = v |z|^2 for z = (0, 1)
        report = check_relaxed_cocoercive(DIAG, 0.0, 1.5)
        assert report.status == "Fail"
        assert report.witness is not None
        assert_unit_witness(report, [0.0, 1.0])
        sampled = sampled_check_relaxed_cocoercive(DIAG, 0.0, 1.5, [([0.0, 1.0], [0.0, 0.0])])
        assert sampled.status == "Fail"
        assert sampled.witness is not None

    def test_scaled_rotation_with_exact_modulus(self):
        # M_s = I, so Q = M_s - I = 0 at v = 1
        assert check_relaxed_cocoercive(ROTATION, 0.0, 1.0).status == "Pass"
        pairs = sample_pairs(2, count=1000, seed=5)
        assert sampled_check_relaxed_cocoercive(ROTATION, 0.0, 1.0, pairs).status == "Pass"

    def test_indefinite_operator_fails(self):
        # <Mz, z> = -1 < 0.1 = v |z|^2 for z = (0, 1)
        op = AffineOperator(matrix=[[1.0, 0.0], [0.0, -1.0]], offset=[0.0, 0.0])
        report = check_relaxed_cocoercive(op, 0.0, 0.1)
        assert report.status == "Fail"
        wx, wy = report.witness
        np.testing.assert_allclose(np.abs(wx), [0.0, 1.0], atol=1e-12)
        np.testing.assert_array_equal(wy, [0.0, 0.0])
        sampled = sampled_check_relaxed_cocoercive(op, 0.0, 0.1, [([0.0, 1.0], [0.0, 0.0])])
        assert sampled.status == "Fail"
        wx, wy = sampled.witness
        np.testing.assert_array_equal(wx, [0.0, 1.0])
        np.testing.assert_array_equal(wy, [0.0, 0.0])

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            check_relaxed_cocoercive(DIAG, -0.1, 1.0)
        with pytest.raises(ValidationError):
            check_relaxed_cocoercive(DIAG, 0.0, 0.0)
        with pytest.raises(ValidationError):
            sampled_check_relaxed_cocoercive(DIAG, 0.0, 1.0, [])

    @pytest.mark.parametrize("u", NON_FINITE)
    def test_non_finite_u_rejected(self, u):
        with pytest.raises(ValidationError, match="u must be finite"):
            check_relaxed_cocoercive(IDENTITY, u, 1.0)

    @pytest.mark.parametrize("v", NON_FINITE)
    def test_non_finite_v_rejected(self, v):
        with pytest.raises(ValidationError, match="v must be finite"):
            check_relaxed_cocoercive(IDENTITY, 0.0, v)


class TestCheckExpansive:
    def test_identity(self):
        assert check_expansive(IDENTITY, 1.0).status == "Pass"
        pairs = sample_pairs(2, count=500, seed=5)
        assert sampled_check_expansive(IDENTITY, 1.0, pairs).status == "Pass"

    def test_rotation_at_nominal_modulus(self):
        assert check_expansive(ROTATION, 1.414).status == "Pass"
        pairs = sample_pairs(2, count=500, seed=6)
        assert sampled_check_expansive(ROTATION, 1.414, pairs).status == "Pass"

    def test_weak_direction_fails(self):
        # |Mz| = 0.1 < 1 = gamma |z| for z = (0, 1); in squared form
        # Q = M^T M - I = diag(3, -0.99)
        op = AffineOperator(matrix=[[2.0, 0.0], [0.0, 0.1]], offset=[0.0, 0.0])
        report = check_expansive(op, 1.0)
        assert report.status == "Fail"
        assert report.max_violation == pytest.approx(0.99, abs=1e-8)
        assert_unit_witness(report, [0.0, 1.0])
        sampled = sampled_check_expansive(op, 1.0, [([0.0, 1.0], [0.0, 0.0])])
        assert sampled.status == "Fail"
        assert sampled.max_violation == pytest.approx(0.9, abs=1e-8)

    def test_empty_pairs_refused(self):
        with pytest.raises(ValidationError):
            sampled_check_expansive(DIAG, 1.0, [])

    @pytest.mark.parametrize("gamma", NON_FINITE)
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValidationError, match="gamma must be finite"):
            check_expansive(IDENTITY, gamma)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sigma_min_is_sharp(self, seed):
        # gamma = sigma_min passes everywhere; inflating it by 1e-3 fails, with
        # the witness along the minimal singular vector.
        rng = np.random.default_rng(700 + seed)
        matrix = rng.uniform(-1.0, 1.0, size=(3, 3)) + 1.5 * np.eye(3)
        op = AffineOperator(matrix=matrix, offset=np.zeros(3))
        gamma = certify_moduli(op).expansiveness
        assert gamma > 1e-3
        assert check_expansive(op, gamma).status == "Pass"
        xs, ys = sample_pairs(3, count=2000, seed=seed)
        assert sampled_check_expansive(op, gamma, (xs, ys)).status == "Pass"
        direction = min_singular_vector(matrix)
        report = check_expansive(op, gamma * (1.0 + 1e-3))
        assert report.status == "Fail"
        assert_unit_witness(report, direction)
        aligned = [(direction, np.zeros(3))]
        assert sampled_check_expansive(op, gamma * (1.0 + 1e-3), aligned).status == "Fail"


def symmetric_pd(rng, dim):
    q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    return q @ np.diag(rng.uniform(0.5, 3.0, dim)) @ q.T


class TestExactTightness:
    """At a tight modulus Q is singular, so the verdict rests on the relative
    tolerance: the tight constant must pass and a 1e-6 overstatement fail."""

    @pytest.mark.parametrize("dim", [1, 2, 5, 50])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tight_ism_alpha(self, dim, seed):
        # symmetric M: M - alpha M^2 >= 0 iff alpha <= 1 / lambda_max(M)
        matrix = symmetric_pd(np.random.default_rng(1100 + 10 * dim + seed), dim)
        op = AffineOperator(matrix=matrix, offset=np.zeros(dim))
        lams, vecs = np.linalg.eigh(matrix)
        alpha = 1.0 / lams[-1]
        assert check_ism(op, alpha).status == "Pass"
        report = check_ism(op, alpha * (1.0 + 1e-6))
        assert report.status == "Fail"
        if dim > 1:
            assert_unit_witness(report, vecs[:, -1])

    @pytest.mark.parametrize("dim", [1, 2, 5, 50])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tight_expansive_gamma(self, dim, seed):
        rng = np.random.default_rng(1200 + 10 * dim + seed)
        matrix = rng.uniform(-1.0, 1.0, size=(dim, dim)) + 2.0 * np.eye(dim)
        op = AffineOperator(matrix=matrix, offset=np.zeros(dim))
        gamma = power_sigma_min(matrix)
        assert check_expansive(op, gamma).status == "Pass"
        report = check_expansive(op, gamma * (1.0 + 1e-6))
        assert report.status == "Fail"
        assert_unit_witness(report, min_singular_vector(matrix))

    @pytest.mark.parametrize("scale", [1e-150, 1e-8, 1.0, 1e8, 1e150])
    def test_verdicts_do_not_depend_on_scale(self, scale):
        # ism(alpha) and expansive(gamma) for M hold iff ism(alpha / c) and
        # expansive(c gamma) hold for c M
        base = symmetric_pd(np.random.default_rng(1300), 4)
        op = AffineOperator(matrix=scale * base, offset=np.zeros(4))
        lams = np.linalg.eigvalsh(base)
        alpha, gamma = 1.0 / (scale * lams[-1]), scale * lams[0]
        assert check_ism(op, alpha).status == "Pass"
        assert check_ism(op, alpha * (1.0 + 1e-6)).status == "Fail"
        assert check_expansive(op, gamma).status == "Pass"
        assert check_expansive(op, gamma * (1.0 + 1e-6)).status == "Fail"

    def test_overflowing_form_never_passes(self):
        # M^T M = 1e310 I overflows: eigvalsh would see inf (and report NaN),
        # which a bare lambda < -tol test would let pass
        op = AffineOperator(matrix=1e155 * np.eye(2), offset=[0.0, 0.0])
        with pytest.raises(ValidationError, match="overflows"):
            check_expansive(op, 1.0)
        with pytest.raises(ValidationError, match="overflows"):
            check_ism(op, 1e-155)
        with pytest.raises(ValidationError, match="overflows"):
            check_relaxed_cocoercive(op, 1.0, 1.0)
        # a form without M^T M keeps its exact verdict
        assert check_relaxed_cocoercive(op, 0.0, 1e155).status == "Pass"
        assert check_relaxed_cocoercive(op, 0.0, 1.1e155).status == "Fail"


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
