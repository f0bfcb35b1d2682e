import math

import numpy as np
import pytest

from gradsense.errors import ComputationError, ValidationError
from gradsense.quadrature import QuadratureSpec
from gradsense.sensors import PointwiseSensor, signature_matrix, simulate_output
from gradsense.spectral import (
    Domain,
    Subregion,
    box_rule,
    build_basis,
    eigenfunction_gradients,
    eigenfunction_values,
    gradient_gram,
    norm_on_region,
)

PI = math.pi


@pytest.fixture
def unit_basis():
    return build_basis(Domain.interval(1.0), 5)


def _eigenfunction(basis, mode, point):
    """One eigenfunction at one point, read off the batched evaluator."""
    p = np.atleast_1d(np.asarray(point, dtype=float))[None, :]
    return float(eigenfunction_values(basis, p)[basis.index_of(mode), 0])


def _eigenfunction_gradient(basis, mode, point):
    """One eigenfunction's gradient at one point, one component per axis."""
    p = np.atleast_1d(np.asarray(point, dtype=float))[None, :]
    return eigenfunction_gradients(basis, p)[basis.index_of(mode), :, 0]


def _quadrature_gram(basis, region, order):
    """Gradient Gram by composite Gauss-Legendre: an oracle for the closed form."""
    x, w = box_rule(basis, region.float_bounds, QuadratureSpec(order=order))
    g = eigenfunction_gradients(basis, x)
    return np.einsum("mdp,ndp,p->mn", g, g, w)


# at x_k = k/6 the sensors see the first five sines with discrete
# orthogonality, sum_k phi_m(x_k) phi_n(x_k) = 6 delta_mn, so the output
# norm is sqrt(6) times the coefficient norm
GRID_SENSORS = [PointwiseSensor((k / 6,)) for k in range(1, 6)]


def _forward(basis, coeffs, t):
    """Noise-free outputs of GRID_SENSORS at time t: the semigroup as the
    program applies it."""
    return simulate_output(basis, coeffs, GRID_SENSORS, np.array([t])).values[:, 0]


def closed_form_gram_entry(m, n, a, b):
    """Exact antiderivative of 2 m n pi^2 cos(m pi x) cos(n pi x) on [a, b]."""
    if m == n:
        antider = lambda x: x / 2.0 + math.sin(2 * m * PI * x) / (4 * m * PI)
        return 2 * m * m * PI * PI * (antider(b) - antider(a))
    antider = lambda x: (math.sin((m - n) * PI * x) / (2 * (m - n) * PI)
                         + math.sin((m + n) * PI * x) / (2 * (m + n) * PI))
    return 2 * m * n * PI * PI * (antider(b) - antider(a))


class TestDomainGeometry:
    def test_lengths_must_be_positive(self):
        with pytest.raises(ValidationError):
            Domain.interval(0.0)
        with pytest.raises(ValidationError):
            Domain.rectangle(1.0, -2.0)

    def test_lengths_must_be_finite(self):
        # an infinite interval used to pass and give a wrong verdict
        with pytest.raises(ValidationError, match="finite"):
            Domain.interval(math.inf)
        with pytest.raises(ValidationError, match="finite"):
            Domain.rectangle(1.0, math.inf)
        with pytest.raises(ValidationError, match="finite"):
            Domain.interval(math.nan)

    def test_dimension(self):
        assert Domain.interval(2.0).dim == 1
        assert Domain.rectangle(1.0, 3.0).dim == 2

    def test_subregion_inside_domain(self):
        domain = Domain.interval(1.0)
        Subregion.interval(0.2, 0.5).validate_in(domain)
        with pytest.raises(ValidationError):
            Subregion.interval(0.2, 1.5).validate_in(domain)
        with pytest.raises(ValidationError):
            Subregion.interval(0.5, 0.2)
        with pytest.raises(ValidationError):
            Subregion.rectangle(0, 1, 0, 1).validate_in(domain)


class TestBuildBasis:
    def test_1d_eigenvalues_are_squared_mode_numbers(self):
        basis = build_basis(Domain.interval(1.0), 3)
        assert basis.modes == (1, 2, 3)
        np.testing.assert_allclose(basis.eigenvalues,
                                   [-PI ** 2, -4 * PI ** 2, -9 * PI ** 2], rtol=1e-15)

    def test_1d_eigenfunction_is_scaled_sine(self):
        basis = build_basis(Domain.interval(1.0), 2)
        xs = np.linspace(0.0, 1.0, 33)
        for n in (1, 2):
            for x in xs:
                assert _eigenfunction(basis, n, x) == pytest.approx(
                    math.sqrt(2.0) * math.sin(n * PI * x), abs=1e-14)

    def test_2d_square_eigenvalues(self):
        basis = build_basis(Domain.rectangle(1.0, 1.0), 2)
        lam = {m: e for m, e in zip(basis.modes, basis.eigenvalues)}
        assert lam[(1, 1)] == pytest.approx(-2 * PI ** 2, rel=1e-15)
        assert lam[(1, 2)] == pytest.approx(-5 * PI ** 2, rel=1e-15)
        assert lam[(2, 1)] == pytest.approx(-5 * PI ** 2, rel=1e-15)
        # sorted closest to zero first, ties broken by index
        assert basis.modes == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_eigenvalues_sorted_nonincreasing(self):
        basis = build_basis(Domain.rectangle(1.0, 0.7), 4)
        assert np.all(np.diff(basis.eigenvalues) <= 0)
        assert np.all(basis.eigenvalues < 0)

    def test_truncation_validation(self):
        with pytest.raises(ValidationError):
            build_basis(Domain.interval(1.0), 0)
        with pytest.raises(ValidationError):
            build_basis(Domain.interval(1.0), -3)

    def test_adaptation_region_must_be_inside(self):
        with pytest.raises(ValidationError):
            build_basis(Domain.interval(1.0), 3,
                        adapted_to=Subregion.interval(0.5, 1.2))

    def test_adapted_1d_specialization(self):
        # adapted to the whole interval reproduces the global basis
        full = build_basis(Domain.interval(1.0), 4,
                           adapted_to=Subregion.interval(0.0, 1.0))
        globl = build_basis(Domain.interval(1.0), 4)
        np.testing.assert_allclose(full.eigenvalues, globl.eigenvalues, rtol=1e-15)

    def test_adapted_1d_eigenvalues_scale_with_span(self):
        basis = build_basis(Domain.interval(1.0), 3,
                            adapted_to=Subregion.interval(0.25, 0.75))
        np.testing.assert_allclose(
            basis.eigenvalues,
            [-(n * PI / 0.5) ** 2 for n in (1, 2, 3)], rtol=1e-14)

    def test_adapted_2d_formula(self):
        region = Subregion.rectangle(0.1, 0.6, 0.2, 0.9)
        basis = build_basis(Domain.rectangle(1.0, 1.0), 2, adapted_to=region)
        lam = {m: e for m, e in zip(basis.modes, basis.eigenvalues)}
        for (i, j), value in lam.items():
            expected = -PI ** 2 * (i ** 2 / 0.5 ** 2 + j ** 2 / 0.7 ** 2)
            assert value == pytest.approx(expected, rel=1e-13)

    def test_adapted_eigenfunction_matches_shifted_sine(self):
        region = Subregion.rectangle(0.1, 0.6, 0.2, 0.9)
        basis = build_basis(Domain.rectangle(1.0, 1.0), 2, adapted_to=region)
        point = (0.35, 0.55)
        expected = (2.0 / math.sqrt(0.5 * 0.7)
                    * math.sin(2 * PI * (0.35 - 0.1) / 0.5)
                    * math.sin(1 * PI * (0.55 - 0.2) / 0.7))
        assert _eigenfunction(basis, (2, 1), point) == pytest.approx(expected, rel=1e-13)


class TestOrthonormality:
    @pytest.mark.parametrize("length", [1.0, 2.5])
    def test_1d_eigenfunctions_orthonormal(self, length):
        # quadrature oracle for the L2 inner products over the whole domain
        from gradsense.quadrature import interval_rule
        from gradsense.spectral import eigenfunction_values
        basis = build_basis(Domain.interval(length), 4)
        x, w = interval_rule(0.0, length, cycles=8.0)
        values = eigenfunction_values(basis, x[:, None])
        gram = (values * w) @ values.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-13)

    def test_2d_eigenfunctions_orthonormal(self):
        from gradsense.quadrature import interval_rule
        from gradsense.spectral import eigenfunction_values
        basis = build_basis(Domain.rectangle(1.0, 0.6), 2)
        x, wx = interval_rule(0.0, 1.0, cycles=4.0)
        y, wy = interval_rule(0.0, 0.6, cycles=4.0)
        pts = np.column_stack([np.repeat(x, len(y)), np.tile(y, len(x))])
        w = np.outer(wx, wy).ravel()
        values = eigenfunction_values(basis, pts)
        gram = (values * w) @ values.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-13)


class TestEvaluation:
    def test_values(self, unit_basis):
        assert _eigenfunction(unit_basis, 1, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert _eigenfunction(unit_basis, 2, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_2d_value(self):
        basis = build_basis(Domain.rectangle(1.0, 1.0), 2)
        assert _eigenfunction(basis, (1, 1), (0.5, 0.5)) == pytest.approx(2.0, rel=1e-14)

    def test_unknown_mode(self, unit_basis):
        with pytest.raises(ValidationError):
            unit_basis.index_of(9)

    def test_gradient_values(self, unit_basis):
        assert _eigenfunction_gradient(unit_basis, 1, 0.5)[0] == pytest.approx(0.0, abs=1e-13)
        g = _eigenfunction_gradient(unit_basis, 3, 1.0 / 3.0)[0]
        assert g == pytest.approx(math.sqrt(2.0) * 3 * PI * math.cos(PI), rel=1e-12)

    def test_2d_gradient(self):
        basis = build_basis(Domain.rectangle(1.0, 1.0), 2)
        g = _eigenfunction_gradient(basis, (1, 1), (0.25, 0.25))
        np.testing.assert_allclose(g, [PI, PI], rtol=1e-13)

    @pytest.mark.parametrize("mode,point", [(1, 0.37), (3, 0.62), (5, 0.11)])
    def test_gradient_matches_finite_differences_1d(self, unit_basis, mode, point):
        h = 1e-6
        fd = (_eigenfunction(unit_basis, mode, point + h)
              - _eigenfunction(unit_basis, mode, point - h)) / (2 * h)
        g = _eigenfunction_gradient(unit_basis, mode, point)[0]
        assert g == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("mode", [(1, 1), (2, 1), (2, 2)])
    def test_gradient_matches_finite_differences_2d(self, mode):
        basis = build_basis(Domain.rectangle(1.0, 1.0), 2)
        point = np.array([0.41, 0.23])
        h = 1e-6
        g = _eigenfunction_gradient(basis, mode, point)
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = h
            fd = (_eigenfunction(basis, mode, point + step)
                  - _eigenfunction(basis, mode, point - step)) / (2 * h)
            assert g[axis] == pytest.approx(fd, abs=1e-5)


class TestPropagate:
    def test_identity_at_zero(self, unit_basis):
        coeffs = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        sig = signature_matrix(unit_basis, GRID_SENSORS, "state")
        np.testing.assert_array_equal(_forward(unit_basis, coeffs, 0.0),
                                      (sig @ coeffs[:, None])[:, 0])

    def test_single_mode_scalar_oracle(self, unit_basis):
        coeffs = np.zeros(5)
        coeffs[0] = 1.0
        out = _forward(unit_basis, coeffs, 0.1)
        sig = signature_matrix(unit_basis, GRID_SENSORS, "state")
        np.testing.assert_allclose(out, math.exp(-0.1 * PI ** 2) * sig[:, 0], rtol=1e-15)

    @pytest.mark.parametrize("t1,t2", [(0.1, 0.2), (0.0, 0.7), (0.33, 0.05)])
    def test_semigroup_law(self, unit_basis, t1, t2):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=5)
        once = _forward(unit_basis, coeffs, t1 + t2)
        twice = _forward(unit_basis, coeffs * np.exp(unit_basis.eigenvalues * t1), t2)
        np.testing.assert_allclose(twice, once, rtol=1e-12)

    def test_norm_decay(self, unit_basis):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=5)
        norms = [np.linalg.norm(_forward(unit_basis, coeffs, t))
                 for t in np.linspace(0.0, 1.0, 11)]
        assert norms[0] == pytest.approx(math.sqrt(6) * np.linalg.norm(coeffs), rel=1e-14)
        assert np.all(np.diff(norms) <= 1e-15)

    def test_negative_time_rejected(self, unit_basis):
        with pytest.raises(ValidationError):
            _forward(unit_basis, np.zeros(5), -0.1)

    def test_length_mismatch(self, unit_basis):
        with pytest.raises(ValidationError):
            _forward(unit_basis, np.zeros(4), 0.1)


class TestGradientGram:
    def test_full_interval_closed_form(self):
        basis = build_basis(Domain.interval(1.0), 2)
        W = gradient_gram(basis, Subregion.interval(0.0, 1.0))
        np.testing.assert_allclose(np.diag(W), [PI ** 2, 4 * PI ** 2], rtol=1e-13)
        assert abs(W[0, 1]) < 1e-12

    def test_subinterval_matches_antiderivative_oracle(self):
        basis = build_basis(Domain.interval(1.0), 4)
        region = Subregion.interval(0.2, 0.5)
        W = gradient_gram(basis, region)
        for a in range(4):
            for b in range(4):
                exact = closed_form_gram_entry(a + 1, b + 1, 0.2, 0.5)
                assert W[a, b] == pytest.approx(exact, abs=1e-11)

    def test_2d_matches_trapezoid_oracle(self):
        basis = build_basis(Domain.rectangle(1.0, 1.0), 2)
        region = Subregion.rectangle(0.2, 0.6, 0.3, 0.8)
        W = gradient_gram(basis, region)
        # independent dense trapezoid integration
        xs = np.linspace(0.2, 0.6, 401)
        ys = np.linspace(0.3, 0.8, 501)
        X, Y = np.meshgrid(xs, ys, indexing="ij")

        def grad(i, j):
            gx = 2 * i * PI * np.cos(i * PI * X) * np.sin(j * PI * Y)
            gy = 2 * j * PI * np.sin(i * PI * X) * np.cos(j * PI * Y)
            return gx, gy

        for a, ma in enumerate(basis.modes):
            for b, mb in enumerate(basis.modes):
                ax, ay = grad(*ma)
                bx, by = grad(*mb)
                integrand = ax * bx + ay * by
                approx = np.trapezoid(np.trapezoid(integrand, ys, axis=1), xs)
                assert W[a, b] == pytest.approx(approx, abs=5e-4)

    def test_symmetry_and_psd(self):
        basis = build_basis(Domain.rectangle(1.0, 0.8), 3)
        W = gradient_gram(basis, Subregion.rectangle(0.1, 0.6, 0.1, 0.5))
        np.testing.assert_array_equal(W, W.T)
        eigs = np.linalg.eigvalsh(W)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)

    def test_quadrature_order_doubling(self):
        basis = build_basis(Domain.interval(1.0), 8)
        region = Subregion.interval(0.15, 0.55)
        W = gradient_gram(basis, region)
        W32 = _quadrature_gram(basis, region, 32)
        assert np.abs(W - W32).max() < 1e-10

    def test_degenerate_region_rejected(self):
        basis = build_basis(Domain.interval(1.0), 2)
        with pytest.raises(ValidationError):
            gradient_gram(basis, Subregion.interval(0.3, 0.3))


class TestNormOnRegion:
    def test_zero_field(self):
        basis = build_basis(Domain.interval(1.0), 3)
        assert norm_on_region(basis, np.zeros(3)) == 0.0

    def test_mode_one_on_full_interval(self):
        basis = build_basis(Domain.interval(1.0), 3)
        coeffs = np.array([1.0, 0.0, 0.0])
        assert norm_on_region(basis, coeffs, Subregion.interval(0.0, 1.0)) \
            == pytest.approx(PI, rel=1e-13)

    def test_restriction_inequality(self):
        basis = build_basis(Domain.interval(1.0), 6)
        rng = np.random.default_rng(11)
        for _ in range(10):
            coeffs = rng.normal(size=6)
            sub = norm_on_region(basis, coeffs, Subregion.interval(0.2, 0.5))
            full = norm_on_region(basis, coeffs, None)
            assert sub <= full + 1e-12

    def test_nan_quadratic_form_raises(self):
        # max(0.0, nan) is 0.0: a NaN must not pass as a zero norm
        basis = build_basis(Domain.interval(1.0), 3)
        with pytest.raises(ComputationError):
            norm_on_region(basis, np.array([1.0, math.nan, 0.0]))
