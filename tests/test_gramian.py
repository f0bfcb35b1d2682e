import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from gradsense.errors import ValidationError
from gradsense.gramian import (
    _whitened_pencil_min,
    assemble_gramian,
    observability_constant,
    time_correlation,
)
from gradsense.quadrature import gauss_panels
from gradsense.sensors import FilamentSensor, PointwiseSensor
from gradsense.spectral import Domain, Subregion, build_basis, gradient_gram
from gradsense.strategic import forbidden_sets_1d, rank_test

PI = math.pi
REGION = Subregion.interval(0.2, 0.5)


class TestTimeCorrelation:
    def test_equal_rates_closed_form(self):
        value = time_correlation(-PI ** 2, -PI ** 2, 1.0)
        exact = (1.0 - math.exp(-2 * PI ** 2)) / (2 * PI ** 2)
        assert value == pytest.approx(exact, rel=1e-15)

    def test_cancelling_rates_give_horizon(self):
        assert time_correlation(-3.7, 3.7, 2.5) == 2.5
        assert time_correlation(0.0, 0.0, 0.4) == 0.4

    def test_infinite_horizon_limit(self):
        assert time_correlation(-PI ** 2, -4 * PI ** 2, math.inf) \
            == pytest.approx(1.0 / (5 * PI ** 2), rel=1e-15)

    def test_quadrature_oracle(self):
        # independent check: integrate exp((l1+l2) t) numerically
        l1, l2, T = -2.3, -7.1, 0.8
        nodes, weights = gauss_panels(0.0, T, panels=8, order=16)
        quad = float(np.sum(weights * np.exp((l1 + l2) * nodes)))
        assert time_correlation(l1, l2, T) == pytest.approx(quad, rel=1e-14)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValidationError):
            time_correlation(-1.0, -1.0, 0.0)

    def test_nan_horizon_rejected(self):
        with pytest.raises(ValidationError, match="horizon"):
            time_correlation(-1.0, -1.0, math.nan)
        basis = build_basis(Domain.interval(1.0), 4)
        with pytest.raises(ValidationError, match="horizon"):
            assemble_gramian(basis, [PointwiseSensor((0.3,))], REGION, horizon=math.nan)

    @pytest.mark.parametrize("rates", [(-1.0, 1.0), (0.0, 0.0), (2.0, 3.0)])
    def test_infinite_horizon_needs_negative_rate_sum(self, rates):
        with pytest.raises(ValidationError, match="infinite horizon"):
            time_correlation(*rates, math.inf)

    def test_infinite_horizon_rejects_any_nonnegative_pair(self):
        e = np.array([-4.0, -1.0, 1.0])
        with pytest.raises(ValidationError, match="infinite horizon"):
            time_correlation(e[:, None], e[None, :], math.inf)

    def test_scalar_rates_give_a_scalar(self):
        value = time_correlation(-2.0, -3.0, 0.7)
        assert np.ndim(value) == 0
        assert isinstance(value, float)

    @pytest.mark.parametrize("horizon", [0.3, 2.5, 60.0, math.inf])
    def test_broadcast_equals_elementwise_scalar_calls(self, horizon):
        # the matrix the Gramian uses is the scalar formula applied pairwise, bit for bit
        basis = build_basis(Domain.rectangle(1.0, 1.3), 5)
        e = basis.eigenvalues
        if not math.isinf(horizon):
            e = np.concatenate([e, [0.5, 0.0, 1e-300, -0.5]])   # zero and tiny rate sums
        matrix = time_correlation(e[:, None], e[None, :], horizon)
        scalars = np.array([[time_correlation(a, b, horizon) for b in e] for a in e])
        assert matrix.shape == (e.size, e.size)
        assert np.array_equal(matrix, scalars)


class TestWhitenedPencil:
    def test_identity_weight(self):
        A = np.diag([3.0, 5.0])
        value, kept = _whitened_pencil_min(A, np.eye(2), 1e-12)
        assert value == pytest.approx(3.0, rel=1e-12)
        assert kept == 2

    def test_rank_deficient_weight(self):
        W = np.array([[1.0, 1.0], [1.0, 1.0]])
        value, kept = _whitened_pencil_min(np.eye(2), W, 1e-12)
        assert kept == 1
        assert value == pytest.approx(0.5, rel=1e-12)

    def test_zero_weight(self):
        value, kept = _whitened_pencil_min(np.eye(2), np.zeros((2, 2)), 1e-12)
        assert (value, kept) == (0.0, 0)


class TestAssembleGramian:
    def test_blind_single_mode(self):
        basis = build_basis(Domain.interval(1.0), 1)
        result = assemble_gramian(basis, [PointwiseSensor((Fraction(1, 2),))], REGION)
        assert abs(result.output_gram[0, 0]) < 1e-30
        assert result.margin < 1e-30
        assert not result.positive_definite
        assert math.isinf(result.constant)

    def test_strategic_location_margin_positive(self):
        basis = build_basis(Domain.interval(1.0), 5)
        result = assemble_gramian(basis, [PointwiseSensor((Fraction(1, 3),))], REGION)
        assert result.margin > 1e-10
        assert result.positive_definite

    def test_per_group_closed_form_oracle(self):
        # 1D groups are single modes, so each margin has a closed form:
        # time_correlation(l, l, T) * signature^2 / trace_gram_diagonal
        basis = build_basis(Domain.interval(1.0), 5)
        b = 0.3777
        result = assemble_gramian(basis, [PointwiseSensor((b,))], REGION, horizon=1.0)
        W = gradient_gram(basis, REGION)
        expected = []
        for k, n in enumerate(basis.modes):
            g = math.sqrt(2.0) * n * PI * math.cos(n * PI * b)
            tau = (1.0 - math.exp(2 * basis.eigenvalues[k])) / (-2 * basis.eigenvalues[k])
            expected.append(tau * g * g / W[k, k])
        np.testing.assert_allclose([gm.margin for gm in result.group_margins],
                                   expected, rtol=1e-11)
        assert result.margin == pytest.approx(min(expected), rel=1e-11)

    def test_output_gram_symmetric_and_psd(self):
        basis = build_basis(Domain.interval(1.0), 8)
        result = assemble_gramian(basis, [PointwiseSensor((0.29,)),
                                          PointwiseSensor((0.66,))], REGION)
        A = result.output_gram
        np.testing.assert_array_equal(A, A.T)
        eigs = np.linalg.eigvalsh(A)
        assert eigs.min() >= -1e-12 * max(eigs.max(), 1.0)

    def test_margin_monotone_in_horizon(self):
        basis = build_basis(Domain.interval(1.0), 6)
        sensors = [PointwiseSensor((0.31,))]
        margins = [assemble_gramian(basis, sensors, REGION, horizon=T).margin
                   for T in (0.5, 1.0, 2.0)]
        assert margins[0] <= margins[1] <= margins[2]

    def test_weight_scaling_squares_margin(self):
        basis = build_basis(Domain.rectangle(1.0, 1.0), 2)
        region = Subregion.rectangle(0.2, 0.8, 0.2, 0.8)
        curve = ((0.2, 0.3), (0.7, 0.62))
        s = 5.0
        base = assemble_gramian(basis, [FilamentSensor(points=curve)], region)
        scaled = assemble_gramian(basis, [FilamentSensor(points=curve, weight=s)], region)
        np.testing.assert_allclose(scaled.output_gram, s ** 2 * base.output_gram,
                                   rtol=1e-12)
        assert scaled.margin == pytest.approx(s ** 2 * base.margin, rel=1e-9)
        assert scaled.positive_definite == base.positive_definite

    def test_state_mode_uses_state_signatures(self):
        basis = build_basis(Domain.interval(1.0), 5)
        # at b = 1/3 the state signature of mode 3 vanishes: state margin dies
        result = assemble_gramian(basis, [PointwiseSensor((Fraction(1, 3),))], REGION,
                                  signature_mode="state")
        assert not result.positive_definite
        gradient = assemble_gramian(basis, [PointwiseSensor((Fraction(1, 3),))], REGION,
                                    signature_mode="gradient")
        assert gradient.positive_definite

    def test_region_and_horizon_validation(self):
        basis = build_basis(Domain.interval(1.0), 3)
        with pytest.raises(ValidationError):
            assemble_gramian(basis, [PointwiseSensor((0.3,))], REGION, horizon=0.0)
        with pytest.raises(ValidationError):
            assemble_gramian(basis, [], REGION)
        with pytest.raises(ValidationError):
            assemble_gramian(basis, [PointwiseSensor((0.3,))], REGION,
                             signature_mode="sideways")

    def test_precomputed_trace_gram(self):
        basis = build_basis(Domain.interval(1.0), 5)
        W = gradient_gram(basis, REGION)
        a = assemble_gramian(basis, [PointwiseSensor((0.3,))], REGION)
        b = assemble_gramian(basis, [PointwiseSensor((0.3,))], REGION, trace_gram=W)
        assert a.margin == pytest.approx(b.margin, rel=1e-14)


class TestObservabilityConstant:
    def test_unit_margin(self):
        basis = build_basis(Domain.interval(1.0), 2)
        result = assemble_gramian(basis, [PointwiseSensor((0.3,))], REGION)
        synthetic = dataclasses.replace(result, margin=1.0)
        assert observability_constant(synthetic) == 1.0

    def test_zero_margin_is_infinite(self):
        basis = build_basis(Domain.interval(1.0), 2)
        result = assemble_gramian(basis, [PointwiseSensor((0.3,))], REGION)
        synthetic = dataclasses.replace(result, margin=0.0)
        assert math.isinf(observability_constant(synthetic))

    def test_result_constant_is_the_function_value(self):
        basis = build_basis(Domain.interval(1.0), 5)
        for location in (Fraction(1, 3), Fraction(1, 2)):
            result = assemble_gramian(basis, [PointwiseSensor((location,))], REGION)
            assert result.constant == observability_constant(result)

    def test_matches_inverse_root_margin(self):
        basis = build_basis(Domain.interval(1.0), 5)
        result = assemble_gramian(basis, [PointwiseSensor((Fraction(1, 3),))], REGION)
        assert observability_constant(result) \
            == pytest.approx(1.0 / math.sqrt(result.margin), rel=1e-12)


class TestCrossValidation:
    def test_margin_iff_rank_small_sample(self):
        # forty locations: margin clears tolerance exactly when the rank test passes
        basis = build_basis(Domain.interval(1.0), 12)
        rng = np.random.default_rng(123)
        blind = sorted({Fraction(2 * k + 1, 2 * n)
                        for n in range(1, 13) for k in range(n)})
        samples = []
        while len(samples) < 40:
            b = float(rng.uniform(0.01, 0.99))
            if min(abs(b - float(m)) for m in blind) > 1e-4:
                samples.append(b)
        # include genuinely blind locations too
        samples += [0.5, 1.0 / 6.0, 0.25]
        for b in samples:
            sensor = PointwiseSensor((b,))
            margin_ok = assemble_gramian(basis, [sensor], REGION).margin > 1e-10
            ranks_ok = rank_test(basis, [sensor]).gradient_strategic
            assert margin_ok == ranks_ok, f"disagreement at b={b}"

    def test_blind_set_membership_matches_margin(self):
        basis = build_basis(Domain.interval(1.0), 12)
        for frac in (Fraction(1, 2), Fraction(3, 10), Fraction(1, 3), Fraction(2, 5)):
            sensor = PointwiseSensor((frac,))
            margin_ok = assemble_gramian(basis, [sensor], REGION).margin > 1e-10
            blind = forbidden_sets_1d(frac, 12).in_gradient_set
            assert margin_ok == (not blind)
