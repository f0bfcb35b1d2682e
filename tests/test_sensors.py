import math
from fractions import Fraction

import numpy as np
import pytest

from gradsense.errors import ValidationError
from gradsense.sensors import (
    FilamentSensor,
    MeasurementSeries,
    PointwiseSensor,
    ZonalSensor,
    _filament_nodes,
    _zonal_weight_values,
    gradient_signature,
    pointwise_signatures,
    sensor_nodes,
    signature_matrix,
    simulate_output,
    state_signature,
    validate_sensor,
    zonal_around,
)
from gradsense.spectral import (
    Domain,
    box_rule,
    build_basis,
    eigenfunction_gradients,
    eigenfunction_values,
)

PI = math.pi
SQRT2 = math.sqrt(2.0)


@pytest.fixture
def basis():
    return build_basis(Domain.interval(1.0), 8)


@pytest.fixture
def square_basis():
    return build_basis(Domain.rectangle(1.0, 1.0), 2)


class TestValidation:
    def test_pointwise_inside_ok(self, basis):
        validate_sensor(PointwiseSensor((0.5,)), basis.domain)

    def test_pointwise_outside_rejected(self, basis):
        with pytest.raises(ValidationError, match="outside the domain"):
            validate_sensor(PointwiseSensor((1.5,)), basis.domain)
        with pytest.raises(ValidationError, match="outside the domain"):
            validate_sensor(PointwiseSensor((0.0,)), basis.domain)

    def test_zonal_ok_and_empty_zone(self, basis):
        validate_sensor(ZonalSensor(box=((0.4, 0.6),)), basis.domain)
        with pytest.raises(ValidationError, match="empty"):
            validate_sensor(ZonalSensor(box=((0.6, 0.4),)), basis.domain)

    def test_zonal_outside(self, basis):
        with pytest.raises(ValidationError, match="outside"):
            validate_sensor(ZonalSensor(box=((0.8, 1.2),)), basis.domain)

    def test_filament_needs_2d(self, basis, square_basis):
        sensor = FilamentSensor(points=((0.2, 0.5), (0.6, 0.5)))
        validate_sensor(sensor, square_basis.domain)
        with pytest.raises(ValidationError):
            validate_sensor(sensor, basis.domain)

    def test_filament_degenerate_curve(self, square_basis):
        with pytest.raises(ValidationError, match="degenerate"):
            validate_sensor(FilamentSensor(points=((0.3, 0.3), (0.3, 0.3))),
                            square_basis.domain)
        with pytest.raises(ValidationError):
            validate_sensor(FilamentSensor(points=((0.3, 0.3),)), square_basis.domain)

    def test_dimension_mismatch(self, basis):
        with pytest.raises(ValidationError):
            validate_sensor(PointwiseSensor((0.5, 0.5)), basis.domain)


class TestStateSignature:
    def test_pointwise_values(self, basis):
        sig = state_signature(basis, PointwiseSensor((0.25,)))
        assert sig[basis.index_of(2)] == pytest.approx(SQRT2, rel=1e-14)
        sig = state_signature(basis, PointwiseSensor((Fraction(1, 3),)))
        assert abs(sig[basis.index_of(3)]) < 1e-14

    def test_zonal_uniform_closed_form(self, basis):
        sig = state_signature(basis, ZonalSensor(box=((0.4, 0.6),)))
        exact = SQRT2 * (math.cos(0.4 * PI) - math.cos(0.6 * PI)) / PI
        assert sig[basis.index_of(1)] == pytest.approx(exact, rel=1e-13)
        assert sig[basis.index_of(1)] == pytest.approx(0.278213042006, abs=1e-10)

    def test_zonal_tabulated_wrong_length(self, basis):
        sensor = ZonalSensor(box=((0.4, 0.6),), weight="tabulated",
                             weight_values=(1.0, 2.0, 3.0))
        with pytest.raises(ValidationError, match="tabulated"):
            state_signature(basis, sensor)

    def test_zonal_tabulated_ones_matches_uniform(self, basis):
        uniform = state_signature(basis, ZonalSensor(box=((0.4, 0.6),)))
        # discover the node count from the mismatch error, then tabulate ones
        probe = ZonalSensor(box=((0.4, 0.6),), weight="tabulated", weight_values=(1.0,))
        with pytest.raises(ValidationError) as err:
            state_signature(basis, probe)
        n_nodes = int(str(err.value).split("has ")[-1].split(" nodes")[0])
        tab = ZonalSensor(box=((0.4, 0.6),), weight="tabulated",
                          weight_values=tuple([1.0] * n_nodes))
        np.testing.assert_allclose(state_signature(basis, tab), uniform, rtol=1e-14)

    def test_filament_horizontal_segment(self, square_basis):
        sensor = FilamentSensor(points=((0.2, 0.5), (0.6, 0.5)))
        sig = state_signature(square_basis, sensor)
        # mode (1,1): 2 sin(pi x) sin(pi/2) integrated over x in [0.2, 0.6]
        exact = 2.0 * (math.cos(0.2 * PI) - math.cos(0.6 * PI)) / PI
        assert sig[square_basis.index_of((1, 1))] == pytest.approx(exact, rel=1e-12)

    def test_filament_weight_scales(self, square_basis):
        base = FilamentSensor(points=((0.2, 0.5), (0.6, 0.5)))
        scaled = FilamentSensor(points=((0.2, 0.5), (0.6, 0.5)), weight=3.0)
        np.testing.assert_allclose(state_signature(square_basis, scaled),
                                   3.0 * state_signature(square_basis, base), rtol=1e-14)

    def test_zonal_to_pointwise_limit(self, basis):
        # unit-mass uniform average converges to the point value, monotonically
        b = 0.37
        point_sig = state_signature(basis, PointwiseSensor((b,)))
        errors = []
        for half in (0.08, 0.04, 0.02):
            sensor = zonal_around(b, half)
            avg = state_signature(basis, sensor) / (2 * half)
            errors.append(np.abs(avg - point_sig).max())
        assert errors[0] > errors[1] > errors[2]
        # curvature-limited averaging error, about (n pi h)^2/6 for the top mode
        assert errors[2] < 5e-2


class TestGradientSignature:
    def test_gradient_blind_at_half(self, basis):
        sig = gradient_signature(basis, PointwiseSensor((Fraction(1, 2),)))
        assert abs(sig[basis.index_of(1)]) < 1e-13

    def test_value_at_third(self, basis):
        sig = gradient_signature(basis, PointwiseSensor((Fraction(1, 3),)))
        assert sig[basis.index_of(3)] == pytest.approx(
            SQRT2 * 3 * PI * math.cos(PI), rel=1e-12)

    def test_2d_summed_partials(self, square_basis):
        sig = gradient_signature(square_basis, PointwiseSensor((0.25, 0.25)))
        assert sig[square_basis.index_of((1, 1))] == pytest.approx(2 * PI, rel=1e-13)

    def test_componentwise_sums_to_scalar(self, square_basis):
        sensor = PointwiseSensor((0.31, 0.47))
        comps = gradient_signature(square_basis, sensor, componentwise=True)
        scalar = gradient_signature(square_basis, sensor)
        assert comps.shape == (square_basis.n_modes, 2)
        np.testing.assert_allclose(comps.sum(axis=1), scalar, rtol=1e-14)

    def test_zonal_gradient_matches_quadrature_oracle(self, basis):
        sensor = ZonalSensor(box=((0.4, 0.6),))
        sig = gradient_signature(basis, sensor)
        # oracle: antiderivative of sqrt2 n pi cos(n pi x) is sqrt2 sin(n pi x)
        for k, n in enumerate(basis.modes):
            exact = SQRT2 * (math.sin(n * PI * 0.6) - math.sin(n * PI * 0.4))
            assert sig[k] == pytest.approx(exact, abs=1e-12)


def _per_kind_signatures(basis, sensor, quad=None):
    """Reference: the state and componentwise gradient signatures as each
    sensor kind used to compute them, before sensor_nodes."""
    if isinstance(sensor, PointwiseSensor):
        point = sensor.position[None, :]
        return (eigenfunction_values(basis, point).T[0],
                eigenfunction_gradients(basis, point)[:, :, 0])
    if isinstance(sensor, ZonalSensor):
        pts, w = box_rule(basis, sensor.box, quad)
        f = _zonal_weight_values(sensor, pts)
        return (eigenfunction_values(basis, pts) @ (f * w),
                eigenfunction_gradients(basis, pts) @ (f * w))
    pts, w = _filament_nodes(basis, sensor, quad)
    return (eigenfunction_values(basis, pts) @ w * sensor.weight,
            eigenfunction_gradients(basis, pts) @ w * sensor.weight)


RECT = build_basis(Domain.rectangle(1.0, 1.4), 6)
LINE = build_basis(Domain.interval(2.0), 12)
BOX_2D = ((0.2, 0.45), (0.3, 0.9))
WEIGHT_1 = [
    (LINE, PointwiseSensor((Fraction(2, 3),))),
    (LINE, PointwiseSensor((0.731,))),
    (RECT, PointwiseSensor((0.31, 0.62))),
    (LINE, ZonalSensor(box=((0.4, 1.1),))),
    (LINE, ZonalSensor(box=((0.4, 1.1),), weight="bump")),
    (RECT, ZonalSensor(box=BOX_2D)),
    (RECT, ZonalSensor(box=BOX_2D, weight="bump")),
    (RECT, ZonalSensor(box=BOX_2D, weight="tabulated",
                       weight_values=tuple(1.0 + 0.01 * k for k in range(len(
                           box_rule(RECT, BOX_2D)[1]))))),
    (RECT, FilamentSensor(points=((0.1, 0.2), (0.8, 0.7)))),
    (RECT, FilamentSensor(points=((0.1, 0.2), (0.8, 0.7), (0.3, 1.3)))),
]


class TestSensorNodes:
    @pytest.mark.parametrize("basis, sensor", WEIGHT_1,
                             ids=[f"{s.kind}-{k}" for k, (_, s) in enumerate(WEIGHT_1)])
    def test_matches_per_kind_formulas_bit_for_bit(self, basis, sensor):
        state, comps = _per_kind_signatures(basis, sensor)
        assert np.array_equal(state_signature(basis, sensor), state)
        assert np.array_equal(gradient_signature(basis, sensor, componentwise=True), comps)
        assert np.array_equal(gradient_signature(basis, sensor), comps.sum(axis=1))

    def test_filament_weight_folds_into_node_weights(self):
        # weight times the node weights instead of times the contracted sum:
        # equal up to rounding for weights other than 1
        sensor = FilamentSensor(points=((0.1, 0.2), (0.8, 0.7)), weight=2.5)
        state, comps = _per_kind_signatures(RECT, sensor)
        scale = np.abs(comps).max()
        np.testing.assert_allclose(state_signature(RECT, sensor), state,
                                   rtol=1e-15, atol=1e-15 * np.abs(state).max())
        np.testing.assert_allclose(gradient_signature(RECT, sensor, componentwise=True),
                                   comps, rtol=1e-15, atol=1e-15 * scale)

    def test_pointwise_node_is_the_location_with_weight_one(self):
        points, weights = sensor_nodes(RECT, PointwiseSensor((0.31, 0.62)))
        assert np.array_equal(points, [[0.31, 0.62]])
        assert np.array_equal(weights, [1.0])

    def test_weights_carry_the_zonal_and_filament_weights(self):
        uniform = sensor_nodes(RECT, ZonalSensor(box=BOX_2D))
        bump = sensor_nodes(RECT, ZonalSensor(box=BOX_2D, weight="bump"))
        assert np.array_equal(uniform[0], bump[0])
        assert uniform[1].sum() == pytest.approx(0.25 * 0.6, rel=1e-14)
        assert np.all(bump[1] <= uniform[1])
        plain = sensor_nodes(RECT, FilamentSensor(points=((0.1, 0.2), (0.8, 0.7))))
        heavy = sensor_nodes(RECT, FilamentSensor(points=((0.1, 0.2), (0.8, 0.7)), weight=3.0))
        assert plain[1].sum() == pytest.approx(math.hypot(0.7, 0.5), rel=1e-14)
        assert np.array_equal(heavy[1], 3.0 * plain[1])

    def test_sensor_is_validated(self):
        with pytest.raises(ValidationError, match="outside the domain"):
            sensor_nodes(RECT, PointwiseSensor((0.5, 1.5)))
        with pytest.raises(ValidationError, match="2D"):
            sensor_nodes(LINE, FilamentSensor(points=((0.1, 0.2), (0.8, 0.7))))


class TestSignatureMatrix:
    def test_rows_follow_sensor_order(self, basis):
        s1 = PointwiseSensor((0.25,))
        s2 = PointwiseSensor((0.75,))
        forward = signature_matrix(basis, [s1, s2], "state")
        swapped = signature_matrix(basis, [s2, s1], "state")
        np.testing.assert_array_equal(forward[0], swapped[1])
        np.testing.assert_array_equal(forward[1], swapped[0])

    def test_unknown_kind(self, basis):
        with pytest.raises(ValidationError):
            signature_matrix(basis, [PointwiseSensor((0.5,))], "mystery")


class TestPointwiseSignatures:
    @pytest.mark.parametrize("kind", ["state", "gradient"])
    def test_rows_equal_per_sensor_signatures(self, basis, square_basis, kind):
        for b, points in ((basis, [[0.1], [1 / 3], [0.5], [0.97]]),
                          (square_basis, [[0.2, 0.7], [0.5, 0.5], [0.9, 0.05]])):
            rows = pointwise_signatures(b, np.array(points), kind)
            sensors = [PointwiseSensor(tuple(p)) for p in points]
            np.testing.assert_array_equal(rows, signature_matrix(b, sensors, kind))

    def test_points_outside_the_open_domain_rejected(self, basis, square_basis):
        with pytest.raises(ValidationError, match="outside the domain"):
            pointwise_signatures(basis, np.array([[0.5], [1.0]]), "state")
        with pytest.raises(ValidationError, match="outside the domain"):
            pointwise_signatures(square_basis, np.array([[0.5, 0.0]]), "gradient")
        with pytest.raises(ValidationError, match="2-dimensional"):
            pointwise_signatures(square_basis, np.array([[0.5]]), "gradient")

    def test_unknown_kind(self, basis):
        with pytest.raises(ValidationError, match="unknown signature kind"):
            pointwise_signatures(basis, np.array([[0.5]]), "mystery")


class TestSimulateOutput:
    def test_single_mode_closed_form(self, basis):
        times = np.arange(1, 33) / 32.0
        coeffs = np.zeros(8)
        coeffs[basis.index_of(1)] = 1.0
        series = simulate_output(basis, coeffs, [PointwiseSensor((0.25,))], times, 1.0)
        np.testing.assert_allclose(series.values[0], np.exp(-PI ** 2 * times), rtol=1e-12)

    def test_zero_coefficients(self, basis):
        times = np.linspace(0.1, 1.0, 5)
        series = simulate_output(basis, np.zeros(8), [PointwiseSensor((0.4,))], times, 1.0)
        np.testing.assert_array_equal(series.values, np.zeros((1, 5)))

    def test_blind_mode_produces_zero_series(self, basis):
        times = np.linspace(0.05, 1.0, 8)
        coeffs = np.zeros(8)
        coeffs[basis.index_of(3)] = 1.0
        series = simulate_output(basis, coeffs, [PointwiseSensor((Fraction(1, 3),))],
                                 times, 1.0)
        assert np.abs(series.values).max() < 1e-14

    def test_linearity(self, basis):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=8), rng.normal(size=8)
        times = np.linspace(0.05, 1.0, 16)
        sensors = [PointwiseSensor((0.3,)), ZonalSensor(box=((0.5, 0.8),))]
        sum_series = simulate_output(basis, a + b, sensors, times, 1.0)
        parts = (simulate_output(basis, a, sensors, times, 1.0).values
                 + simulate_output(basis, b, sensors, times, 1.0).values)
        np.testing.assert_allclose(sum_series.values, parts, atol=1e-12)

    def test_noiseless_is_bit_identical(self, basis):
        times = np.linspace(0.1, 1.0, 8)
        coeffs = np.ones(8)
        sensors = [PointwiseSensor((0.3,))]
        one = simulate_output(basis, coeffs, sensors, times, 1.0)
        two = simulate_output(basis, coeffs, sensors, times, 1.0)
        np.testing.assert_array_equal(one.values, two.values)

    def test_noise_seeding(self, basis):
        times = np.linspace(0.1, 1.0, 8)
        coeffs = np.ones(8)
        sensors = [PointwiseSensor((0.3,))]
        a = simulate_output(basis, coeffs, sensors, times, 1.0, noise_std=0.1, seed=42)
        b = simulate_output(basis, coeffs, sensors, times, 1.0, noise_std=0.1, seed=42)
        c = simulate_output(basis, coeffs, sensors, times, 1.0, noise_std=0.1, seed=43)
        np.testing.assert_array_equal(a.values, b.values)
        assert np.abs(a.values - c.values).max() > 0

    def test_empty_grid_rejected(self, basis):
        with pytest.raises(ValidationError, match="empty"):
            simulate_output(basis, np.zeros(8), [PointwiseSensor((0.3,))],
                            np.array([]), 1.0)


class TestMeasurementSeries:
    def test_grid_must_increase(self):
        with pytest.raises(ValidationError, match="increasing"):
            MeasurementSeries(times=np.array([0.2, 0.1]), values=np.zeros((1, 2)),
                              horizon=1.0)

    def test_grid_within_horizon(self):
        with pytest.raises(ValidationError):
            MeasurementSeries(times=np.array([0.5, 1.5]), values=np.zeros((1, 2)),
                              horizon=1.0)

    def test_row_count_checked(self):
        with pytest.raises(ValidationError):
            MeasurementSeries(times=np.array([0.5, 0.6]), values=np.zeros((2, 3)),
                              horizon=1.0)
