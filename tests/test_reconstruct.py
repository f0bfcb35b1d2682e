import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsense.errors import ComputationError, ValidationError
from gradsense.reconstruct import (
    REGULARIZATIONS,
    design_matrix,
    estimate_coefficients,
    gradient_field_on_region,
    reconstruction_error,
)
from gradsense.sensors import MeasurementSeries, PointwiseSensor, simulate_output
from gradsense.spectral import Domain, Subregion, build_basis, norm_on_region
from gradsense.strategic import basis_split

PI = math.pi
REGION = Subregion.interval(0.2, 0.5)


def geometric_times(M: int, T: float = 1.0) -> np.ndarray:
    ratio = (1.0 / M ** 2) ** (1.0 / (M - 1))
    return T * ratio ** np.arange(M - 1, -1, -1)


@pytest.fixture
def basis8():
    return build_basis(Domain.interval(1.0), 8)


class TestDesignMatrix:
    def test_row_order_matches_series_ravel(self, basis8):
        sensors = [PointwiseSensor((0.3,)), PointwiseSensor((0.7,))]
        times = np.linspace(0.1, 1.0, 4)
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=8)
        series = simulate_output(basis8, coeffs, sensors, times, 1.0)
        Phi = design_matrix(basis8, sensors, times, "state")
        np.testing.assert_allclose(Phi @ coeffs, series.values.ravel(), atol=1e-14)


class TestEstimateCoefficients:
    def test_noiseless_single_mode(self, basis8):
        times = np.arange(1, 33) / 32.0
        coeffs = np.zeros(8)
        coeffs[basis8.index_of(1)] = 1.0
        sensors = [PointwiseSensor((0.25,))]
        series = simulate_output(basis8, coeffs, sensors, times, 1.0)
        est = estimate_coefficients(series, basis8, sensors, "state", "none", 0.0)
        assert est.coefficients[basis8.index_of(1)] == pytest.approx(1.0, abs=1e-10)

    def test_state_blind_mode_flagged(self, basis8):
        sensors = [PointwiseSensor((Fraction(1, 3),))]
        coeffs = np.zeros(8)
        coeffs[basis8.index_of(1)] = 1.0
        coeffs[basis8.index_of(3)] = 1.0
        times = geometric_times(64)
        series = simulate_output(basis8, coeffs, sensors, times, 1.0)
        est = estimate_coefficients(series, basis8, sensors, "state", "none", 0.0)
        assert 3 in est.unidentifiable_modes
        assert 6 in est.unidentifiable_modes
        assert est.coefficients[basis8.index_of(3)] == 0.0
        assert est.coefficients[basis8.index_of(1)] == pytest.approx(1.0, abs=1e-8)

    def test_zero_measurements_with_penalty_give_zero(self, basis8):
        sensors = [PointwiseSensor((0.3,))]
        times = np.linspace(0.1, 1.0, 16)
        series = MeasurementSeries(times=times, values=np.zeros((1, 16)), horizon=1.0)
        est = estimate_coefficients(series, basis8, sensors, "state", "tikhonov", 1e-6)
        np.testing.assert_allclose(est.coefficients, np.zeros(8), atol=1e-14)

    def test_noiseless_random_recovery(self, basis8):
        # well-posed: every column healthy and enough samples
        sensors = [PointwiseSensor((0.3,))]
        times = geometric_times(64)
        rng = np.random.default_rng(77)
        for _ in range(8):
            coeffs = rng.uniform(-1.0, 1.0, size=8)
            series = simulate_output(basis8, coeffs, sensors, times, 1.0)
            est = estimate_coefficients(series, basis8, sensors, "state", "none", 0.0)
            assert est.column_norms.min() > 1e-8
            rel = np.linalg.norm(est.coefficients - coeffs) / np.linalg.norm(coeffs)
            assert rel <= 1e-8

    def test_tikhonov_shrinkage_ladder(self, basis8):
        sensors = [PointwiseSensor((0.3,))]
        times = np.linspace(1.0 / 64, 1.0, 64)
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=8)
        series = simulate_output(basis8, coeffs, sensors, times, 1.0,
                                 noise_std=1e-3, seed=9)
        norms = []
        for reg in (0.0, 1e-10, 1e-6, 1e-2):
            est = estimate_coefficients(series, basis8, sensors, "state",
                                        "tikhonov", reg)
            norms.append(np.linalg.norm(est.coefficients))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_gradient_mode_blind_set_matches_basis_split(self):
        basis = build_basis(Domain.interval(1.0), 6)
        sensors = [PointwiseSensor((Fraction(1, 2),))]
        times = geometric_times(32)
        series = simulate_output(basis, np.ones(6), sensors, times, 1.0)
        est = estimate_coefficients(series, basis, sensors, "gradient", "none", 0.0)
        split = basis_split(basis, sensors, kind="gradient")
        assert est.unidentifiable_modes == split.kernel_modes

    def test_discrepancy_reaches_noise_level(self, basis8):
        sensors = [PointwiseSensor((0.3,))]
        times = np.linspace(1.0 / 64, 1.0, 64)
        rng = np.random.default_rng(21)
        coeffs = rng.normal(size=8)
        noise = 1e-3
        series = simulate_output(basis8, coeffs, sensors, times, 1.0,
                                 noise_std=noise, seed=4)
        est = estimate_coefficients(series, basis8, sensors, "state",
                                    "discrepancy", noise)
        target = noise * math.sqrt(64)
        assert est.residual_norm <= 2.0 * target
        assert est.residual_norm >= 0.3 * target

    def test_empty_and_degenerate_errors(self, basis8):
        sensors = [PointwiseSensor((0.3,))]
        with pytest.raises(ValidationError):
            MeasurementSeries(times=np.array([]), values=np.zeros((1, 0)), horizon=1.0)
        # all columns dead: sensor at the blind point of every mode is impossible,
        # so force it with an absurd identifiability threshold
        times = np.linspace(0.1, 1.0, 8)
        series = simulate_output(basis8, np.ones(8), sensors, times, 1.0)
        with pytest.raises(ValidationError, match="degenerate"):
            estimate_coefficients(series, basis8, sensors, "state",
                                  identifiability_tol=1e9)

    def test_sensor_count_mismatch(self, basis8):
        times = np.linspace(0.1, 1.0, 4)
        series = MeasurementSeries(times=times, values=np.zeros((2, 4)), horizon=1.0)
        with pytest.raises(ValidationError):
            estimate_coefficients(series, basis8, [PointwiseSensor((0.3,))], "state")


def stacked_lstsq_reference(design: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """The regularized solve as an lstsq on the design with sqrt(lam) I stacked under it."""
    norms = np.linalg.norm(design, axis=0)
    equilibrated = design / norms
    if lam == 0.0:
        z, *_ = np.linalg.lstsq(equilibrated, y, rcond=None)
    else:
        n = design.shape[1]
        stacked = np.vstack([equilibrated, math.sqrt(lam) * np.eye(n)])
        z, *_ = np.linalg.lstsq(stacked, np.concatenate([y, np.zeros(n)]), rcond=None)
    return z / norms


class TestSingularValueSolve:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), extra=st.integers(0, 30),
           regularization=st.sampled_from(["none", "tikhonov"]),
           lam=st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-1, 10.0]))
    def test_filter_matches_stacked_lstsq(self, seed, n, extra, regularization, lam):
        # a random full-rank design with singular values in [0.5, 5] and
        # column scales over six decades, which equilibration has to undo
        rng = np.random.default_rng(seed)
        m = n + extra
        q1, _ = np.linalg.qr(rng.normal(size=(m, n)))
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
        design = (q1 * rng.uniform(0.5, 5.0, size=n)) @ q2.T
        design *= 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        y = rng.normal(size=m)
        basis = build_basis(Domain.interval(1.0), n)
        series = MeasurementSeries(times=np.linspace(0.1, 1.0, m), values=y[None, :],
                                   horizon=1.0)
        with mock.patch("gradsense.reconstruct.design_matrix", return_value=design):
            est = estimate_coefficients(series, basis, [PointwiseSensor((0.3,))], "state",
                                        regularization, lam)
        expected = stacked_lstsq_reference(design, y, lam if regularization == "tikhonov"
                                           else 0.0)
        err = np.linalg.norm(est.coefficients - expected) / np.linalg.norm(expected)
        assert err <= 1e-9

    @pytest.mark.parametrize("regularization", REGULARIZATIONS)
    def test_one_svd_and_no_lstsq_per_estimate(self, basis8, regularization):
        sensors = [PointwiseSensor((0.3,)), PointwiseSensor((0.71,))]
        times = geometric_times(64)
        noise = 1e-4
        series = simulate_output(basis8, np.random.default_rng(3).normal(size=8), sensors,
                                 times, 1.0, noise_std=noise, seed=5)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
                mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
            est = estimate_coefficients(series, basis8, sensors, "state", regularization,
                                        noise if regularization == "discrepancy" else 1e-8)
        assert svd.call_count == 1
        assert lstsq.call_count == 0
        if regularization == "discrepancy":
            # the bisection ran: the residual sits at the noise target
            assert est.residual_norm == pytest.approx(noise * math.sqrt(128), rel=1e-6)


class TestGradientField:
    def test_single_mode_closed_form(self):
        basis = build_basis(Domain.interval(1.0), 3)
        coeffs = np.array([1.0, 0.0, 0.0])
        field = gradient_field_on_region(basis, coeffs, REGION,
                                         grid=np.array([[0.25]]))
        assert field.values[0, 0] == pytest.approx(math.sqrt(2.0) * PI * math.cos(PI / 4),
                                                   rel=1e-13)
        assert field.values[0, 0] == pytest.approx(PI, rel=1e-13)

    def test_zero_coefficients(self):
        basis = build_basis(Domain.interval(1.0), 3)
        field = gradient_field_on_region(basis, np.zeros(3), REGION, grid=7)
        np.testing.assert_array_equal(field.values, np.zeros_like(field.values))

    def test_linearity(self):
        basis = build_basis(Domain.interval(1.0), 3)
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        pts = np.array([[0.25], [0.3], [0.45]])
        f1 = gradient_field_on_region(basis, e1, REGION, grid=pts)
        f2 = gradient_field_on_region(basis, e2, REGION, grid=pts)
        f12 = gradient_field_on_region(basis, e1 + e2, REGION, grid=pts)
        np.testing.assert_allclose(f12.values, f1.values + f2.values, rtol=1e-14)

    def test_point_outside_region_rejected(self):
        basis = build_basis(Domain.interval(1.0), 3)
        with pytest.raises(ValidationError, match="outside the region"):
            gradient_field_on_region(basis, np.zeros(3), REGION,
                                     grid=np.array([[0.7]]))

    def test_quadrature_grid_norm_matches_gram(self):
        basis = build_basis(Domain.interval(1.0), 4)
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=4)
        field = gradient_field_on_region(basis, coeffs, REGION, grid="quadrature")
        assert field.weights is not None
        sampled = norm_on_region(basis, field)
        modal = norm_on_region(basis, coeffs, REGION)
        assert sampled == pytest.approx(modal, rel=1e-12)

    def test_2d_field(self):
        basis = build_basis(Domain.rectangle(1.0, 1.0), 2)
        region = Subregion.rectangle(0.2, 0.8, 0.2, 0.8)
        coeffs = np.zeros(4)
        coeffs[basis.index_of((1, 1))] = 1.0
        field = gradient_field_on_region(basis, coeffs, region,
                                         grid=np.array([[0.25, 0.25]]))
        np.testing.assert_allclose(field.values[0], [PI, PI], rtol=1e-13)


class TestReconstructionError:
    def test_exact_estimate_gives_zero(self):
        basis = build_basis(Domain.interval(1.0), 4)
        coeffs = np.array([1.0, -0.5, 0.2, 0.1])
        record = reconstruction_error(coeffs, coeffs, basis, REGION)
        assert record.err_region == 0.0 and record.err_domain == 0.0

    def test_single_mode_error_norm(self):
        basis = build_basis(Domain.interval(1.0), 4)
        a = np.array([1.0, 0.0, 0.0, 0.0])
        record = reconstruction_error(a, np.zeros(4), basis,
                                      Subregion.interval(0.0, 1.0))
        assert record.err_domain == pytest.approx(PI, rel=1e-13)
        assert record.err_region == pytest.approx(PI, rel=1e-13)

    def test_restriction_inequality_random(self):
        basis = build_basis(Domain.interval(1.0), 6)
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            record = reconstruction_error(a, b, basis, REGION)
            assert record.err_region <= record.err_domain + 1e-12
            assert record.restriction_ok

    def test_basis_mismatch(self):
        basis = build_basis(Domain.interval(1.0), 4)
        with pytest.raises(ValidationError):
            reconstruction_error(np.zeros(3), np.zeros(4), basis, REGION)

    def test_equals_two_region_norms(self):
        basis = build_basis(Domain.rectangle(1.0, 1.5), 4)
        region = Subregion.rectangle(0.1, 0.6, 0.4, 1.2)
        rng = np.random.default_rng(21)
        a, b = rng.normal(size=basis.n_modes), rng.normal(size=basis.n_modes)
        record = reconstruction_error(a, b, basis, region)
        assert record.err_region == norm_on_region(basis, a - b, region)
        assert record.err_domain == norm_on_region(basis, a - b, None)

    def test_nan_estimate_raises(self):
        basis = build_basis(Domain.interval(1.0), 4)
        with pytest.raises(ComputationError, match="not a number"):
            reconstruction_error(np.ones(4), np.array([1.0, math.nan, 0.0, 0.0]),
                                 basis, REGION)
