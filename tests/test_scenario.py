from fractions import Fraction

import numpy as np
import pytest

from gradsense.errors import ScenarioError
from gradsense.scenario import load_scenario, parse_number, parse_scenario
from gradsense.sensors import FilamentSensor, PointwiseSensor, ZonalSensor

MINIMAL = """
domain.kind = interval
domain.length = 1
region.bounds = 0.2, 0.5
basis.truncation = 25
sensor.1.kind = pointwise
sensor.1.location = 1/3
horizon = 1
"""


class TestParseNumber:
    def test_kinds(self):
        assert parse_number("1/3") == Fraction(1, 3)
        assert parse_number("2") == 2
        assert isinstance(parse_number("2"), int)
        assert parse_number("0.25") == 0.25
        assert parse_number("1e-9") == 1e-9

    def test_bad_values(self):
        with pytest.raises(ScenarioError):
            parse_number("three")
        with pytest.raises(ScenarioError):
            parse_number("1/0")


class TestParseScenario:
    def test_minimal(self):
        sc = parse_scenario(MINIMAL)
        assert sc.domain.kind == "interval"
        assert sc.basis.truncation == 25
        assert isinstance(sc.sensors[0], PointwiseSensor)
        assert sc.sensors[0].location == (Fraction(1, 3),)
        assert sc.horizon == 1.0
        assert sc.signature_mode == "gradient"
        assert sc.times.shape == (64,)
        np.testing.assert_allclose(sc.times, np.arange(1, 65) / 64.0)

    def test_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.rank_rtol == 1e-10
        assert sc.grouping_rtol == 1e-9
        assert sc.margin_tol == 1e-10
        assert sc.blind_tol == 1e-9
        assert sc.noise_std == 0.0
        assert sc.regularization == "tikhonov"
        assert sc.initial_coeffs is None

    def test_missing_truncation_names_field(self):
        text = MINIMAL.replace("basis.truncation = 25\n", "")
        with pytest.raises(ScenarioError, match="truncation"):
            parse_scenario(text)

    def test_sensor_outside_domain(self):
        text = MINIMAL.replace("sensor.1.location = 1/3",
                               "sensor.1.location = 1.5")
        with pytest.raises(ScenarioError, match="outside the domain"):
            parse_scenario(text)

    def test_unknown_key_rejected_with_line(self):
        text = MINIMAL + "mystery.key = 3\n"
        with pytest.raises(ScenarioError, match='unknown key "mystery.key"'):
            parse_scenario(text)

    def test_duplicate_key_rejected(self):
        text = MINIMAL + "horizon = 2\n"
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(text)

    def test_missing_equals_sign(self):
        with pytest.raises(ScenarioError, match="key = value"):
            parse_scenario("domain.kind interval\n")

    def test_region_bounds_exact_fractions(self):
        text = MINIMAL.replace("region.bounds = 0.2, 0.5",
                               "region.bounds = 1/5, 1/2")
        sc = parse_scenario(text)
        assert sc.region.bounds[0] == (Fraction(1, 5), Fraction(1, 2))

    def test_geometric_spacing(self):
        text = MINIMAL + "time.samples = 16\ntime.spacing = geometric\n"
        sc = parse_scenario(text)
        assert sc.times.shape == (16,)
        assert sc.times[-1] == pytest.approx(1.0)
        assert sc.times[0] == pytest.approx(1.0 / 256.0)
        ratios = sc.times[1:] / sc.times[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_explicit_time_grid(self):
        text = MINIMAL + "time.grid = 0.25, 0.5, 1\n"
        sc = parse_scenario(text)
        np.testing.assert_allclose(sc.times, [0.25, 0.5, 1.0])

    def test_decreasing_time_grid_rejected(self):
        text = MINIMAL + "time.grid = 0.5, 0.25\n"
        with pytest.raises(ScenarioError, match="increasing"):
            parse_scenario(text)

    def test_infinite_horizon_builds_no_sample_times(self):
        text = MINIMAL.replace("horizon = 1", "horizon = inf")
        sc = parse_scenario(text + "time.samples = 3\ntime.spacing = geometric\n")
        assert sc.horizon == np.inf
        assert sc.times.size == 0
        with pytest.raises(ScenarioError, match="time.samples"):
            parse_scenario(text + "time.samples = 0\n")
        with pytest.raises(ScenarioError, match="time.spacing"):
            parse_scenario(text + "time.spacing = random\n")

    def test_infinite_horizon_keeps_explicit_time_grid(self):
        text = MINIMAL.replace("horizon = 1", "horizon = inf") + "time.grid = 0.5, 2, 40\n"
        np.testing.assert_allclose(parse_scenario(text).times, [0.5, 2.0, 40.0])

    def test_initial_coefficients_padding(self):
        text = MINIMAL + "initial.coefficients = 1, 0.5\n"
        sc = parse_scenario(text)
        assert sc.initial_coeffs is not None
        assert sc.initial_coeffs[0] == 1.0
        assert sc.initial_coeffs[1] == 0.5
        assert np.all(sc.initial_coeffs[2:] == 0.0)

    def test_too_many_coefficients(self):
        text = MINIMAL + "initial.coefficients = " + ", ".join(["1"] * 30) + "\n"
        with pytest.raises(ScenarioError, match="initial.coefficients"):
            parse_scenario(text)

    def test_bad_tolerance(self):
        text = MINIMAL + "tolerance.rank = 0\n"
        with pytest.raises(ScenarioError, match="tolerance.rank"):
            parse_scenario(text)

    def test_nonpositive_horizon(self):
        text = MINIMAL.replace("horizon = 1", "horizon = -1")
        with pytest.raises(ScenarioError, match="horizon"):
            parse_scenario(text)

    def test_adaptation_switch(self):
        text = MINIMAL + "basis.adaptation = subregion\n"
        sc = parse_scenario(text)
        assert sc.basis.adapted_to is not None

    def test_rectangle_with_sensors(self):
        text = """
domain.kind = rectangle
domain.lengths = 1, 1
region.bounds = 0.2, 0.8, 0.1, 0.6
basis.truncation = 2
sensor.1.kind = pointwise
sensor.1.location = 0.3, 0.4
sensor.2.kind = zonal
sensor.2.box = 0.5, 0.7, 0.2, 0.4
sensor.2.weight = bump
sensor.3.kind = filament
sensor.3.curve = 0.2, 0.5; 0.6, 0.5
sensor.3.weight = 2.5
"""
        sc = parse_scenario(text)
        assert sc.domain.dim == 2
        assert isinstance(sc.sensors[1], ZonalSensor)
        assert sc.sensors[1].weight == "bump"
        assert isinstance(sc.sensors[2], FilamentSensor)
        assert sc.sensors[2].weight == 2.5

    def test_noncontiguous_sensor_numbers(self):
        text = MINIMAL.replace("sensor.1.kind", "sensor.2.kind") \
                      .replace("sensor.1.location", "sensor.2.location")
        with pytest.raises(ScenarioError, match="contiguous"):
            parse_scenario(text)

    def test_wrong_region_arity(self):
        text = MINIMAL.replace("region.bounds = 0.2, 0.5",
                               "region.bounds = 0.2, 0.5, 0.7")
        with pytest.raises(ScenarioError, match="region.bounds"):
            parse_scenario(text)

    def test_echo_is_sorted_and_complete(self):
        sc = parse_scenario(MINIMAL)
        keys = [k for k, _ in sc.echo]
        assert keys == sorted(keys)
        assert ("sensor.1.location", "1/3") in sc.echo


class TestLoadScenario:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(MINIMAL, encoding="utf-8")
        sc = load_scenario(path)
        assert sc.basis.truncation == 25

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.cfg")
