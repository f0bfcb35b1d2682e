import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsense.errors import ValidationError
from gradsense.sensors import FilamentSensor, PointwiseSensor, ZonalSensor, signature_matrix
from gradsense.spectral import Domain, Subregion, build_basis, gradient_gram
from gradsense.strategic import (
    basis_split,
    closed_form_condition,
    exact_pointwise_verdict_1d,
    forbidden_sets_1d,
    group_eigenvalues,
    rank_test,
    residual_independence_check,
)

PI = math.pi
SQRT2 = math.sqrt(2.0)


@pytest.fixture
def basis25():
    return build_basis(Domain.interval(1.0), 25)


class TestGrouping:
    def test_1d_all_simple(self):
        basis = build_basis(Domain.interval(1.0), 5)
        groups = group_eigenvalues(basis)
        assert len(groups) == 5
        assert all(g.multiplicity == 1 for g in groups)

    def test_square_pairs(self):
        basis = build_basis(Domain.rectangle(1.0, 1.0), 2)
        groups = group_eigenvalues(basis)
        by_eig = {round(g.eigenvalue / PI ** 2): g for g in groups}
        assert set(by_eig[-5].modes) == {(1, 2), (2, 1)}
        assert by_eig[-5].multiplicity == 2
        assert by_eig[-2].multiplicity == 1

    def test_adapted_rectangle_irrational_ratio_all_simple(self):
        # side ratio squared irrational: no eigenvalue coincidences
        region = Subregion.rectangle(0.0, 1.0 / math.sqrt(2.0), 0.15, 0.8)
        basis = build_basis(Domain.rectangle(1.0, 1.0), 4, adapted_to=region)
        groups = group_eigenvalues(basis)
        assert all(g.multiplicity == 1 for g in groups)

    def test_adapted_rectangle_rational_ratio_has_coincidences(self):
        # sides 0.5 and 0.25: rates 4 i^2 + 16 j^2 collide at (4,1) vs (2,2)
        region = Subregion.rectangle(0.25, 0.75, 0.5, 0.75)
        basis = build_basis(Domain.rectangle(1.0, 1.0), 4, adapted_to=region)
        groups = group_eigenvalues(basis)
        pair = next(g for g in groups
                    if g.eigenvalue == pytest.approx(-80 * PI ** 2, rel=1e-12))
        assert set(pair.modes) == {(4, 1), (2, 2)}

    def test_nonpositive_tolerance(self):
        basis = build_basis(Domain.interval(1.0), 2)
        with pytest.raises(ValidationError):
            group_eigenvalues(basis, 0.0)

    def test_groups_sorted_closest_to_zero_first(self):
        basis = build_basis(Domain.rectangle(1.0, 1.0), 3)
        groups = group_eigenvalues(basis)
        eigs = [g.eigenvalue for g in groups]
        assert eigs == sorted(eigs, reverse=True)


class TestGroupSignatureMatrix:
    def test_blind_entry_at_half(self, basis25):
        groups = group_eigenvalues(basis25)
        G = signature_matrix(basis25, [PointwiseSensor((Fraction(1, 2),))],
                             "gradient")[:, list(groups[0].indices)]
        assert G.shape == (1, 1)
        assert abs(G[0, 0]) < 1e-13

    def test_value_at_third(self, basis25):
        groups = group_eigenvalues(basis25)
        G = signature_matrix(basis25, [PointwiseSensor((Fraction(1, 3),))],
                             "gradient")[:, list(groups[2].indices)]
        assert G[0, 0] == pytest.approx(-3 * SQRT2 * PI, rel=1e-12)

    def test_2d_single_sensor_rank_bounded_by_rows(self):
        basis = build_basis(Domain.rectangle(1.0, 1.0), 2)
        groups = group_eigenvalues(basis)
        pair_group = next(g for g in groups if g.multiplicity == 2)
        G = signature_matrix(basis, [PointwiseSensor((0.3, 0.41))],
                             "gradient")[:, list(pair_group.indices)]
        assert G.shape == (1, 2)
        assert np.linalg.matrix_rank(G) <= 1


class TestRankTest:
    def test_third_is_gradient_but_not_state_strategic(self, basis25):
        verdict = rank_test(basis25, [PointwiseSensor((Fraction(1, 3),))])
        assert not verdict.state_strategic
        assert verdict.gradient_strategic
        assert verdict.first_failing_state.modes[0] == 3

    def test_half_fails_both(self, basis25):
        verdict = rank_test(basis25, [PointwiseSensor((Fraction(1, 2),))])
        assert not verdict.state_strategic
        assert not verdict.gradient_strategic
        assert verdict.first_failing_gradient.modes[0] == 1
        assert verdict.first_failing_state.modes[0] == 2

    def test_irrational_passes_both(self, basis25):
        verdict = rank_test(basis25, [PointwiseSensor((1.0 / math.sqrt(2.0),))],
                            rank_rtol=1e-9)
        assert verdict.state_strategic and verdict.gradient_strategic

    def test_square_single_sensor_fails_sensor_count(self):
        basis = build_basis(Domain.rectangle(1.0, 1.0), 2)
        verdict = rank_test(basis, [PointwiseSensor((0.3, 0.41))])
        assert not verdict.gradient_strategic
        assert verdict.max_multiplicity == 2
        assert verdict.sensor_count == 1
        assert "below the largest multiplicity" in verdict.gradient_reason

    def test_square_two_sensors_full_rank_pair_group(self):
        basis = build_basis(Domain.rectangle(1.0, 1.0), 2)
        sensors = [PointwiseSensor((0.9 / math.sqrt(2.0), 0.31)),
                   PointwiseSensor((0.13, 1.0 / math.sqrt(5.0)))]
        verdict = rank_test(basis, sensors)
        pair = next(r for r in verdict.gradient_records if r.multiplicity == 2)
        assert pair.rank == 2

    def test_rank_agrees_across_tolerances_on_clear_inputs(self, basis25):
        # non-borderline: every singular-value ratio is far from both thresholds
        for b in (1.0 / math.sqrt(2.0), 0.345678, Fraction(1, 3)):
            v8 = rank_test(basis25, [PointwiseSensor((b,))], rank_rtol=1e-8)
            v10 = rank_test(basis25, [PointwiseSensor((b,))], rank_rtol=1e-10)
            ranks8 = [r.rank for r in v8.gradient_records + v8.state_records]
            ranks10 = [r.rank for r in v10.gradient_records + v10.state_records]
            assert ranks8 == ranks10

    def test_brute_force_svd_oracle(self, basis25):
        # independent rank: full SVD of each group matrix against the global scale
        from gradsense.sensors import signature_matrix
        sensors = [PointwiseSensor((0.277,)), PointwiseSensor((0.613,))]
        verdict = rank_test(basis25, sensors)
        sig = signature_matrix(basis25, sensors, "gradient")
        groups = group_eigenvalues(basis25)
        svals = [np.linalg.svd(sig[:, list(g.indices)], compute_uv=False)
                 for g in groups]
        scale = max(s[0] for s in svals)
        for rec, s in zip(verdict.gradient_records, svals):
            assert rec.rank == int(np.sum(s > 1e-10 * scale))

    def test_pass_monotone_in_truncation(self):
        # a pass at N certifies every smaller truncation; a fail persists upward
        for N in (5, 10, 15, 20):
            v = rank_test(build_basis(Domain.interval(1.0), N),
                          [PointwiseSensor((1.0 / math.sqrt(2.0),))])
            assert v.gradient_strategic
            v = rank_test(build_basis(Domain.interval(1.0), N),
                          [PointwiseSensor((Fraction(1, 2),))])
            assert not v.gradient_strategic

    def test_failure_appears_exactly_at_blind_mode(self):
        # 1/6 is gradient-blind first at mode 3: truncations below pass, above fail
        sensor = PointwiseSensor((Fraction(1, 6),))
        for N in (1, 2):
            assert rank_test(build_basis(Domain.interval(1.0), N),
                             [sensor]).gradient_strategic
        for N in (3, 4, 9):
            verdict = rank_test(build_basis(Domain.interval(1.0), N), [sensor])
            assert not verdict.gradient_strategic
            assert verdict.first_failing_gradient.modes[0] == 3

    def test_weight_rescaling_leaves_verdict(self):
        basis = build_basis(Domain.rectangle(1.0, 1.0), 2)
        curve = ((0.2, 0.3), (0.7, 0.6))
        small = [FilamentSensor(points=curve, weight=1.0),
                 PointwiseSensor((0.33, 0.71))]
        big = [FilamentSensor(points=curve, weight=250.0),
               PointwiseSensor((0.33, 0.71))]
        v1 = rank_test(basis, small)
        v2 = rank_test(basis, big)
        assert v1.gradient_strategic == v2.gradient_strategic
        assert [r.rank for r in v1.gradient_records] == [r.rank for r in v2.gradient_records]

    def test_any_member_aggregation(self, basis25):
        # one good sensor, one gradient-blind sensor
        sensors = [PointwiseSensor((Fraction(1, 2),)), PointwiseSensor((Fraction(1, 3),))]
        verdict = rank_test(basis25, sensors)
        assert verdict.per_sensor_gradient_strategic == (False, True)
        assert verdict.any_member_gradient_strategic
        # any single member passing implies the any-member aggregate
        assert any(verdict.per_sensor_gradient_strategic) \
            == verdict.any_member_gradient_strategic
        # the joint verdict is at least as strong as any single member
        assert verdict.gradient_strategic

    def test_empty_sensor_list(self, basis25):
        with pytest.raises(ValidationError):
            rank_test(basis25, [])


class TestForbiddenSets:
    def test_half_membership(self):
        result = forbidden_sets_1d(Fraction(1, 2), 25)
        assert result.in_state_set and result.state_witness == (2, 1)
        assert result.in_gradient_set and result.gradient_witness == (1, 0)
        assert result.exact

    def test_third_membership(self):
        result = forbidden_sets_1d(Fraction(1, 3), 25)
        assert result.in_state_set and result.state_witness == (3, 1)
        assert not result.in_gradient_set
        # parity: 3(2k+1) = 2n has no integer solution, confirmed by enumeration
        for n in range(1, 200):
            assert (2 * n) % 6 != 3

    def test_irrational_in_neither(self):
        result = forbidden_sets_1d(1.0 / math.sqrt(2.0), 10_000, tol=1e-6)
        assert not result.in_state_set
        assert not result.in_gradient_set
        assert result.min_sine > 1e-6
        assert result.min_cosine > 1e-6

    @pytest.mark.parametrize("q", list(range(2, 51)))
    def test_exact_and_numeric_paths_agree(self, q):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            frac = Fraction(p, q)
            exact = forbidden_sets_1d(frac, max_index=max(50, q))
            numeric = forbidden_sets_1d(float(frac), max_index=max(50, q))
            assert exact.in_state_set == numeric.in_state_set
            assert exact.in_gradient_set == numeric.in_gradient_set
            assert exact.state_witness == numeric.state_witness
            if exact.in_gradient_set:
                assert exact.gradient_witness == numeric.gradient_witness

    def test_boundary_rejected(self):
        with pytest.raises(ValidationError):
            forbidden_sets_1d(0.0, 10)
        with pytest.raises(ValidationError):
            forbidden_sets_1d(Fraction(1), 10)


class TestExactJointVerdict:
    def test_single_locations(self):
        v = exact_pointwise_verdict_1d([Fraction(1, 3)])
        assert not v.state_strategic and v.gradient_strategic
        v = exact_pointwise_verdict_1d([Fraction(1, 2)])
        assert not v.gradient_strategic and v.gradient_witness == 1

    def test_pair_covering_each_other(self):
        # 1/2 is blind at odd n, 1/4 at n = 2 mod 4: no common blind index
        v = exact_pointwise_verdict_1d([Fraction(1, 2), Fraction(1, 4)])
        assert v.gradient_strategic
        # but 1/2 and 5/6 share blind indices at n = 3 mod 6
        v = exact_pointwise_verdict_1d([Fraction(1, 2), Fraction(5, 6)])
        assert not v.gradient_strategic
        assert v.gradient_witness == 3

    def test_rejects_floats(self):
        with pytest.raises(ValidationError):
            exact_pointwise_verdict_1d([0.5])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(2, 30).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q))),
        min_size=1, max_size=4))
    def test_closed_form_matches_period_search(self, locations):
        v = exact_pointwise_verdict_1d(locations)
        assert v.gradient_witness == brute_force_gradient_witness(locations)
        assert v.gradient_strategic == (v.gradient_witness is None)
        assert v.state_witness == math.lcm(*(f.denominator for f in locations))

    def test_odd_prime_denominators_have_no_gradient_witness(self):
        v = exact_pointwise_verdict_1d(
            [Fraction(1, p) for p in (3, 5, 7, 11, 13, 17, 19, 23)])
        assert v.gradient_strategic and v.gradient_witness is None
        assert v.period == 223_092_870

    def test_large_common_witness(self):
        v = exact_pointwise_verdict_1d([Fraction(1, 194), Fraction(1, 202), Fraction(1, 206)])
        assert not v.gradient_strategic
        assert v.gradient_witness == 1_009_091


def brute_force_gradient_witness(locations):
    """Smallest n with 2 n p_i = q_i (mod 2 q_i) for every location, searched over
    one period lcm(2 q_i); None when no n in the period works."""
    period = math.lcm(*(2 * f.denominator for f in locations))
    n = np.arange(1, period + 1, dtype=np.int64)
    hit = np.ones(period, dtype=bool)
    for f in locations:
        hit &= (2 * n * f.numerator) % (2 * f.denominator) == f.denominator
    found = np.flatnonzero(hit)
    return int(found[0]) + 1 if found.size else None


class TestClosedFormCondition:
    def test_rational_failure_pairs(self):
        region = Subregion.rectangle(0, 1, 0, 1)
        sensor = PointwiseSensor((Fraction(1, 2), Fraction(1, 3)))
        result = closed_form_condition(sensor, region, truncation=3)
        assert result.exact == (True, True)
        assert not result.all_pass
        failing = {c.pair for c in result.pairs if not c.passed}
        # axis 1 joins the integers at i = 2, axis 2 at j = 3
        assert failing == {(2, 1), (2, 2), (2, 3), (1, 3), (3, 3)}
        pair23 = next(c for c in result.pairs if c.pair == (2, 3))
        assert pair23.axis_integer == (True, True)

    def test_irrational_passes_up_to_fifty(self):
        region = Subregion.rectangle(0, 1, 0, 1)
        sensor = PointwiseSensor((1.0 / math.sqrt(2.0), 1.0 / PI))
        result = closed_form_condition(sensor, region, truncation=50)
        assert result.all_pass
        assert result.exact == (False, False)

    def test_zonal_symmetric_center_failure(self):
        region = Subregion.rectangle(0, 1, 0, 1)
        sensor = ZonalSensor(box=((Fraction(1, 4), Fraction(3, 4)),
                                  (Fraction(1, 10), Fraction(3, 10))), weight="bump")
        result = closed_form_condition(sensor, region, truncation=2)
        # center (1/2, 1/5): i = 2 hits an integer on axis 1
        assert not result.all_pass
        assert result.first_failure.pair == (2, 1)

    def test_zonal_tabulated_rejected(self):
        region = Subregion.rectangle(0, 1, 0, 1)
        sensor = ZonalSensor(box=((0.2, 0.4), (0.2, 0.4)), weight="tabulated",
                             weight_values=(1.0,))
        with pytest.raises(ValidationError, match="symmetric"):
            closed_form_condition(sensor, region, truncation=2)

    def test_filament_symmetry_center(self):
        region = Subregion.rectangle(0, 1, 0, 1)
        sensor = FilamentSensor(points=((0.2, 0.5), (0.6, 0.5)))
        result = closed_form_condition(sensor, region, truncation=2)
        assert result.reference_point == pytest.approx((0.4, 0.5))

    def test_filament_asymmetric_rejected(self):
        region = Subregion.rectangle(0, 1, 0, 1)
        sensor = FilamentSensor(points=((0.2, 0.5), (0.6, 0.7), (0.9, 0.1)))
        with pytest.raises(ValidationError, match="symmetric"):
            closed_form_condition(sensor, region, truncation=2)

    def test_1d_region_rejected(self):
        with pytest.raises(ValidationError):
            closed_form_condition(PointwiseSensor((0.5,)),
                                  Subregion.interval(0, 1), truncation=2)


class TestBasisSplit:
    def test_half_kernel_is_odd_modes(self):
        basis = build_basis(Domain.interval(1.0), 6)
        split = basis_split(basis, [PointwiseSensor((Fraction(1, 2),))])
        assert split.kernel_modes == (1, 3, 5)
        assert split.active_modes == (2, 4, 6)

    def test_third_kernel_empty(self):
        basis = build_basis(Domain.interval(1.0), 6)
        split = basis_split(basis, [PointwiseSensor((Fraction(1, 3),))])
        assert split.kernel_modes == ()

    def test_irrational_kernel_empty(self):
        basis = build_basis(Domain.interval(1.0), 6)
        split = basis_split(basis, [PointwiseSensor((1.0 / math.sqrt(2.0),))])
        assert split.kernel_modes == ()

    def test_state_kind(self):
        basis = build_basis(Domain.interval(1.0), 6)
        split = basis_split(basis, [PointwiseSensor((Fraction(1, 2),))], kind="state")
        assert split.kernel_modes == (2, 4, 6)


class TestResidualIndependence:
    def test_vacuous(self):
        basis = build_basis(Domain.interval(1.0), 6)
        result = residual_independence_check((), basis, Subregion.interval(0.2, 0.5))
        assert result.vacuous and bool(result)

    def test_single_mode(self):
        basis = build_basis(Domain.interval(1.0), 6)
        result = residual_independence_check((1,), basis, Subregion.interval(0.2, 0.5))
        assert bool(result)
        # oracle: norm of the mode-1 gradient outside (0.2, 0.5) by dense trapezoid
        xs = np.concatenate([np.linspace(0, 0.2, 20001), np.linspace(0.5, 1, 50001)])
        integrand = 2 * PI ** 2 * np.cos(PI * xs) ** 2
        outside = (np.trapezoid(integrand[:20001], xs[:20001])
                   + np.trapezoid(integrand[20001:], xs[20001:]))
        assert result.smallest_eigenvalue == pytest.approx(outside, rel=1e-6)

    def test_pair_positive_definite(self):
        basis = build_basis(Domain.interval(1.0), 6)
        result = residual_independence_check((1, 3), basis, Subregion.interval(0.2, 0.5))
        assert bool(result)
        assert result.smallest_eigenvalue > 1e-8

    def test_orthogonality_on_half_interval(self):
        # odd-mode gradients are mutually orthogonal over (0, 1/2)
        basis = build_basis(Domain.interval(1.0), 6)
        result = residual_independence_check((1, 3, 5), basis,
                                             Subregion.interval(0.0, 0.5))
        assert result.orthogonal_on_region
        assert bool(result)

    def test_region_covering_domain_rejected(self):
        basis = build_basis(Domain.interval(1.0), 6)
        with pytest.raises(ValidationError, match="zero measure"):
            residual_independence_check((1,), basis, Subregion.interval(0.0, 1.0))

    def test_gram_is_domain_minus_region(self):
        basis = build_basis(Domain.interval(1.0), 4)
        region = Subregion.interval(0.3, 0.6)
        W_out = gradient_gram(basis, None) - gradient_gram(basis, region)
        eigs = np.linalg.eigvalsh(W_out)
        result = residual_independence_check((1, 2, 3, 4), basis, region)
        assert result.smallest_eigenvalue == pytest.approx(eigs[0], rel=1e-10)
