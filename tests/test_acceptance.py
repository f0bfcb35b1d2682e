"""Acceptance criteria, one test per criterion.

Each test prints one ``ACCEPTANCE n: PASS`` line (visible with -s or -v)
and enforces the stated tolerance and runtime budget.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gradsense.commands import run_command
from gradsense.gramian import assemble_gramian, observability_constant
from gradsense.quadrature import QuadratureSpec
from gradsense.reconstruct import estimate_coefficients, reconstruction_error
from gradsense.report import emit_report
from gradsense.scenario import parse_scenario
from gradsense.sensors import PointwiseSensor, simulate_output
from gradsense.spectral import (
    Domain,
    Subregion,
    box_rule,
    build_basis,
    eigenfunction_gradients,
    eigenfunction_values,
    gradient_gram,
)
from gradsense.strategic import rank_test

PI = math.pi


def _point(point):
    return np.atleast_1d(np.asarray(point, dtype=float))[None, :]


def _eigenfunction(basis, mode, point):
    return float(eigenfunction_values(basis, _point(point))[basis.index_of(mode), 0])


def _eigenfunction_gradient(basis, mode, point):
    return eigenfunction_gradients(basis, _point(point))[basis.index_of(mode), :, 0]


def check_scenario(location: str, rank_tol: str = "1e-10") -> str:
    return f"""
domain.kind = interval
domain.length = 1
region.bounds = 0.2, 0.5
basis.truncation = 25
sensor.1.kind = pointwise
sensor.1.location = {location}
horizon = 1
tolerance.rank = {rank_tol}
tolerance.blind = 1e-9
"""


def test_criterion_1_counterexample_locations():
    cases = [
        ("1/2", False, False),
        ("1/3", False, True),
        (repr(1.0 / math.sqrt(2.0)), True, True),
    ]
    for location, state_expected, gradient_expected in cases:
        start = time.perf_counter()
        report = run_command(parse_scenario(check_scenario(location, "1e-9")), "check")
        elapsed = time.perf_counter() - start
        assert report.results["state_strategic"] == state_expected, location
        assert report.results["gradient_strategic"] == gradient_expected, location
        assert elapsed < 1.0, f"check at {location} took {elapsed:.2f}s"
    # the fractions went through the exact-rational engine
    report = run_command(parse_scenario(check_scenario("1/2")), "check")
    assert report.results["engine"] == "exact"
    print("\nACCEPTANCE 1 (counterexample locations 1/2, 1/3, 1/sqrt2): PASS")


def test_criterion_2_sensor_count_condition():
    start = time.perf_counter()
    basis = build_basis(Domain.rectangle(1.0, 1.0), 2)   # covers -5 pi^2
    single = rank_test(basis, [PointwiseSensor((0.4, 0.3))], rank_rtol=1e-10)
    assert not single.gradient_strategic
    assert single.sensor_count == 1 and single.max_multiplicity == 2
    assert "below the largest multiplicity" in single.gradient_reason

    pair = rank_test(basis, [PointwiseSensor((0.9 / math.sqrt(2.0), 0.31)),
                             PointwiseSensor((0.13, 1.0 / math.sqrt(5.0)))],
                     rank_rtol=1e-10)
    record = next(r for r in pair.gradient_records
                  if r.eigenvalue == pytest.approx(-5 * PI ** 2, rel=1e-12))
    assert record.multiplicity == 2
    assert record.rank == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print("\nACCEPTANCE 2 (repeated eigenvalue needs two sensors, rank 2 reached): PASS")


def test_criterion_3_margin_rank_cross_validation():
    start = time.perf_counter()
    basis = build_basis(Domain.interval(1.0), 12)
    region = Subregion.interval(0.2, 0.5)
    blind = np.array(sorted({float(Fraction(2 * k + 1, 2 * n))
                             for n in range(1, 13) for k in range(n)}))
    assert all(Fraction(2 * k + 1, 2 * n).denominator <= 25
               for n in range(1, 13) for k in range(n))
    rng = np.random.default_rng(2024)
    samples = []
    while len(samples) < 200:
        b = float(rng.uniform(0.01, 0.99))
        if np.abs(blind - b).min() > 1e-4:
            samples.append(b)
    agreements = 0
    for b in samples:
        sensor = PointwiseSensor((b,))
        margin = assemble_gramian(basis, [sensor], region, horizon=1.0,
                                  signature_mode="gradient").margin
        passes = rank_test(basis, [sensor]).gradient_strategic
        agreements += int((margin > 1e-10) == passes)
    elapsed = time.perf_counter() - start
    assert agreements == 200, f"only {agreements}/200 agree"
    assert elapsed < 30.0, f"cross-validation took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 (margin/rank agreement 200/200 in {elapsed:.1f}s): PASS")


def test_criterion_4_observability_constant():
    basis = build_basis(Domain.interval(1.0), 12)
    region = Subregion.interval(0.2, 0.5)
    good = assemble_gramian(basis, [PointwiseSensor((Fraction(1, 3),))], region,
                            horizon=1.0)
    constant = observability_constant(good)
    assert math.isfinite(constant)
    assert constant == pytest.approx(1.0 / math.sqrt(good.margin), rel=1e-12)
    blind = assemble_gramian(basis, [PointwiseSensor((Fraction(1, 2),))], region,
                             horizon=1.0)
    assert math.isinf(observability_constant(blind))
    print("\nACCEPTANCE 4 (finite constant equals 1/sqrt(margin); infinite when blind): PASS")


def test_criterion_5_restriction_inequality_suite():
    rng = np.random.default_rng(512)
    checked = 0
    for trial in range(50):
        n_modes = int(rng.integers(4, 9))
        basis = build_basis(Domain.interval(1.0), n_modes)
        b = float(rng.uniform(0.05, 0.95))
        lo = float(rng.uniform(0.0, 0.45))
        hi = float(rng.uniform(lo + 0.1, 1.0))
        region = Subregion.interval(lo, hi)
        coeffs = rng.normal(size=n_modes)
        times = np.linspace(1.0 / 32, 1.0, 32)
        noise = 0.0 if trial % 2 == 0 else 1e-3
        series = simulate_output(basis, coeffs, [PointwiseSensor((b,))], times, 1.0,
                                 noise_std=noise, seed=trial)
        est = estimate_coefficients(series, basis, [PointwiseSensor((b,))], "state",
                                    "tikhonov", 1e-10)
        record = reconstruction_error(coeffs, est.coefficients, basis, region)
        assert record.err_region <= record.err_domain + 1e-12
        checked += 1
    # equality when the region is the whole domain
    basis = build_basis(Domain.interval(1.0), 6)
    whole = Subregion.interval(0.0, 1.0)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=6), rng.normal(size=6)
        record = reconstruction_error(a, b, basis, whole)
        assert abs(record.err_region - record.err_domain) <= 1e-12 * (1 + record.err_domain)
        checked += 1
    assert checked >= 50
    print(f"\nACCEPTANCE 5 (restriction inequality on {checked} reconstructions): PASS")


def test_criterion_6_noiseless_reconstruction():
    start = time.perf_counter()
    basis = build_basis(Domain.interval(1.0), 8)
    M = 64
    ratio = (1.0 / M ** 2) ** (1.0 / (M - 1))
    times = ratio ** np.arange(M - 1, -1, -1)     # 64 samples in (0, 1]
    sensors = [PointwiseSensor((0.3,))]
    rng = np.random.default_rng(99)
    coeffs = rng.uniform(-1.0, 1.0, size=8)
    series = simulate_output(basis, coeffs, sensors, times, 1.0)
    est = estimate_coefficients(series, basis, sensors, "state", "none", 0.0)
    rel = np.linalg.norm(est.coefficients - coeffs) / np.linalg.norm(coeffs)
    assert rel <= 1e-8, f"relative error {rel:.2e}"

    blind_sensors = [PointwiseSensor((Fraction(1, 3),))]
    truth = np.zeros(8)
    truth[basis.index_of(1)] = 1.0
    truth[basis.index_of(3)] = 1.0
    series = simulate_output(basis, truth, blind_sensors, times, 1.0)
    est = estimate_coefficients(series, basis, blind_sensors, "state", "none", 0.0)
    assert 3 in est.unidentifiable_modes
    assert est.coefficients[basis.index_of(3)] == 0.0
    assert est.coefficients[basis.index_of(1)] == pytest.approx(1.0, abs=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 6 (noiseless recovery {rel:.1e}; blind mode flagged): PASS")


def test_criterion_7_numerical_hygiene():
    basis = build_basis(Domain.interval(1.0), 6)
    rng = np.random.default_rng(3)

    # semigroup law of the forward map at 1e-12 relative
    sensors = [PointwiseSensor((0.29,)), PointwiseSensor((0.66,))]
    for t1, t2 in ((0.1, 0.4), (0.05, 0.05), (0.0, 0.9)):
        coeffs = rng.normal(size=6)
        once = simulate_output(basis, coeffs, sensors, np.array([t1 + t2])).values
        twice = simulate_output(basis, coeffs * np.exp(basis.eigenvalues * t1), sensors,
                                np.array([t2])).values
        np.testing.assert_allclose(twice, once, rtol=1e-12)

    # analytic gradient vs central differences, absolute 1e-5 at h = 1e-6
    h = 1e-6
    square = build_basis(Domain.rectangle(1.0, 1.0), 2)
    for mode, point in ((2, 0.37), (5, 0.81)):
        fd = (_eigenfunction(basis, mode, point + h)
              - _eigenfunction(basis, mode, point - h)) / (2 * h)
        assert abs(_eigenfunction_gradient(basis, mode, point)[0] - fd) <= 1e-5
    for mode in ((1, 2), (2, 2)):
        point = np.array([0.43, 0.29])
        grad = _eigenfunction_gradient(square, mode, point)
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = h
            fd = (_eigenfunction(square, mode, point + step)
                  - _eigenfunction(square, mode, point - step)) / (2 * h)
            assert abs(grad[axis] - fd) <= 1e-5

    # closed-form trace Gram against order-32 Gauss-Legendre, below 1e-10
    region = Subregion.interval(0.15, 0.55)
    x, w = box_rule(basis, region.float_bounds, QuadratureSpec(order=32))
    g = eigenfunction_gradients(basis, x)
    W32 = np.einsum("mdp,ndp,p->mn", g, g, w)
    assert np.abs(gradient_gram(basis, region) - W32).max() < 1e-10

    # Gramian output matrix is PSD to 1e-12, trace Gram to 1e-10
    gram = assemble_gramian(basis, [PointwiseSensor((0.29,)), PointwiseSensor((0.66,))],
                            region, horizon=1.0)
    a_eigs = np.linalg.eigvalsh(gram.output_gram)
    assert a_eigs.min() >= -1e-12 * max(a_eigs.max(), 1.0)
    w_eigs = np.linalg.eigvalsh(gram.trace_gram)
    assert w_eigs.min() >= -1e-10 * max(w_eigs.max(), 1.0)
    print("\nACCEPTANCE 7 (semigroup, gradient-FD, quadrature-doubling, Gram-PSD): PASS")


def test_criterion_8_byte_identical_reports(tmp_path):
    scenario = """
domain.kind = interval
domain.length = 1
region.bounds = 0.2, 0.5
basis.truncation = 10
sensor.1.kind = pointwise
sensor.1.location = 0.3
horizon = 1
initial.coefficients = 1, -0.5, 0.25
noise.stddev = 0.05
noise.seed = 31
scan.grid = 0.1:0.9:9
"""
    for command, fmt in (("simulate", "json"), ("simulate", "csv"),
                         ("scan", "json"), ("scan", "csv"),
                         ("check", "json"), ("gramian", "json")):
        one = emit_report(run_command(parse_scenario(scenario), command), fmt)
        two = emit_report(run_command(parse_scenario(scenario), command), fmt)
        assert one.encode("utf-8") == two.encode("utf-8"), (command, fmt)
    payload = json.loads(emit_report(run_command(parse_scenario(scenario), "simulate"),
                                     "json"))
    assert payload["command"] == "simulate"
    print("\nACCEPTANCE 8 (byte-identical reports for fixed scenario and seed): PASS")
