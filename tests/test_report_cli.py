import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradsense.cli
from gradsense.cli import main
from gradsense.commands import _nearest_blind_1d, location_scan, parse_scan_grid, run_command
from gradsense.errors import ValidationError
from gradsense.gramian import assemble_gramian
from gradsense.report import Report, emit_report, format_float, report_to_json
from gradsense.scenario import parse_number, parse_scenario
from gradsense.sensors import PointwiseSensor
from gradsense.spectral import Domain, build_basis
from gradsense.strategic import rank_test

BASE = """
domain.kind = interval
domain.length = 1
region.bounds = 0.2, 0.5
basis.truncation = 12
sensor.1.kind = pointwise
sensor.1.location = 1/3
horizon = 1
"""

SIMULATE = BASE + """
initial.coefficients = 1, 0, 0.5
noise.stddev = 0.01
noise.seed = 7
"""


def make_report(**results) -> Report:
    return Report(command="check", version="0.0.0",
                  scenario=(("a", "1"),), results=results)


class TestSerialization:
    def test_float_formatting(self):
        assert format_float(0.1) == "0.1"
        assert format_float(math.pi) == "3.14159265358979"
        assert format_float(math.inf) == '"inf"'
        assert format_float(-math.inf) == '"-inf"'
        assert format_float(math.nan) == '"nan"'

    def test_json_roundtrip(self):
        report = make_report(margin=1.25e-12, flag=True, modes=[1, 2],
                             nested={"x": None, "frac": Fraction(1, 3)},
                             array=np.array([0.5, 1.5]))
        parsed = json.loads(report_to_json(report))
        assert parsed["results"]["margin"] == 1.25e-12
        assert parsed["results"]["flag"] is True
        assert parsed["results"]["nested"]["frac"] == "1/3"
        assert parsed["results"]["array"] == [0.5, 1.5]

    def test_infinite_constant_serializes_as_string(self):
        parsed = json.loads(report_to_json(make_report(constant=math.inf)))
        assert parsed["results"]["constant"] == "inf"

    def test_fifteen_significant_digits(self):
        parsed = json.loads(report_to_json(make_report(x=1.0 / 3.0)))
        assert parsed["results"]["x"] == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            report_to_json(make_report(bad=object()))


class TestCommands:
    def test_check_report(self):
        sc = parse_scenario(BASE)
        report = run_command(sc, "check")
        results = report.results
        assert results["state_strategic"] is False
        assert results["gradient_strategic"] is True
        assert results["engine"] == "exact"
        assert results["witness"]["state_mode"] == 3
        assert results["truncation"] == 12
        assert results["tolerances"]["rank"] == 1e-10
        assert results["engines_agree"] == {"state": True, "gradient": True}

    def test_check_2d_closed_form_block(self):
        text = """
domain.kind = rectangle
domain.lengths = 1, 1
region.bounds = 0, 1, 0, 1
basis.truncation = 2
sensor.1.kind = pointwise
sensor.1.location = 1/2, 1/3
"""
        report = run_command(parse_scenario(text), "check")
        block = report.results["closed_form"][0]
        assert block["available"] is True
        assert block["all_pass"] is False
        assert "engines_agree" in report.results

    def test_gramian_report(self):
        sc = parse_scenario(BASE)
        report = run_command(sc, "gramian")
        results = report.results
        assert results["positive_definite"] is True
        assert results["observability_constant"] == pytest.approx(
            1.0 / math.sqrt(results["margin"]), rel=1e-12)
        assert len(results["group_margins"]) == 12

    def test_gramian_report_blind_location(self):
        sc = parse_scenario(BASE.replace("1/3", "1/2"))
        report = run_command(sc, "gramian")
        assert report.results["margin"] <= 1e-10
        assert report.results["positive_definite"] is False
        parsed = json.loads(report_to_json(report))
        assert parsed["results"]["observability_constant"] == "inf"

    def test_simulate_series_closed_form(self):
        text = BASE.replace("1/3", "1/4") + "initial.coefficients = 1\n"
        report = run_command(parse_scenario(text), "simulate")
        times = np.asarray(report.results["times"])
        values = np.asarray(report.results["series"][0])
        np.testing.assert_allclose(values, np.exp(-math.pi ** 2 * times), rtol=1e-12)

    def test_simulate_requires_coefficients(self):
        sc = parse_scenario(BASE)
        with pytest.raises(ValidationError, match="initial.coefficients"):
            run_command(sc, "simulate")

    def test_simulate_and_reconstruct(self):
        sc = parse_scenario(SIMULATE)
        report = run_command(sc, "simulate")
        assert len(report.results["series"]) == 1
        assert len(report.results["series"][0]) == 64
        recon = run_command(parse_scenario(SIMULATE.replace(
            "noise.stddev = 0.01", "noise.stddev = 0")), "reconstruct")
        assert recon.results["err_region"] <= recon.results["err_domain"] + 1e-12
        field = recon.results["gradient_field"]
        assert len(field["points"]) == 9
        assert all(0.2 <= p[0] <= 0.5 for p in np.asarray(field["points"]))

    def test_unknown_command(self):
        with pytest.raises(ValidationError):
            run_command(parse_scenario(BASE), "explode")

    def test_split_report(self):
        sc = parse_scenario(BASE.replace("1/3", "1/2"))
        report = run_command(sc, "split")
        assert report.results["kernel_modes"] == [1, 3, 5, 7, 9, 11]
        assert report.results["independent_outside_region"] is True

    def test_check_mixed_rational_irrational_sensors(self):
        text = BASE + "sensor.2.kind = pointwise\nsensor.2.location = 0.7071067811865476\n"
        report = run_command(parse_scenario(text.replace("1/3", "1/2")), "check")
        # the irrational sensor keeps the joint suite strategic; exact joint
        # path is unavailable, so the rank engine is authoritative
        assert report.results["engine"] == "rank"
        assert report.results["gradient_strategic"] is True
        assert report.results["per_sensor_gradient_strategic"] == [False, True]

    def test_adapted_basis_scenario(self):
        text = BASE + "basis.adaptation = subregion\n"
        sc = parse_scenario(text)
        assert sc.basis.adapted_to is not None
        report = run_command(sc, "check")
        assert "gradient_strategic" in report.results
        gram = run_command(sc, "gramian")
        assert gram.results["margin"] >= 0.0

    def test_split_2d(self):
        text = """
domain.kind = rectangle
domain.lengths = 1, 1
region.bounds = 0.25, 0.75, 0.25, 0.75
basis.truncation = 2
sensor.1.kind = pointwise
sensor.1.location = 0.5, 0.5
"""
        report = run_command(parse_scenario(text), "split")
        # at the center the summed partials vanish exactly for (1,1) and (2,2)
        assert report.results["kernel_modes"] == [[1, 1], [2, 2]]
        assert report.results["independent_outside_region"] is True


class TestScan:
    def test_grid_parsing(self):
        interval = build_basis(Domain.interval(1.0), 1)
        square = build_basis(Domain.rectangle(1.0, 1.0), 1)
        assert parse_scan_grid("0.1:0.9:9", interval)[0] == (0.1,)
        assert len(parse_scan_grid("0.1:0.9:9", interval)) == 9
        assert parse_scan_grid("1/4, 0.6", interval) == [(Fraction(1, 4),), (0.6,)]
        assert len(parse_scan_grid("8x8", square)) == 64
        assert len(parse_scan_grid("0.1:0.9:3,0.2:0.8:4", square)) == 12
        assert parse_scan_grid("0.3, 0.4; 0.5, 0.6", square) == [(0.3, 0.4), (0.5, 0.6)]
        with pytest.raises(ValidationError):
            parse_scan_grid("", interval)

    def test_scan_rows(self):
        sc = parse_scenario(BASE)
        rows = location_scan(sc, "0.1:0.9:9")
        assert len(rows) == 9
        half = next(r for r in rows if abs(r["b1"] - 0.5) < 1e-12)
        assert half["state_strategic"] is False
        assert half["gradient_strategic"] is False
        assert half["margin"] <= 1e-10
        third_grid = location_scan(sc, "1/3, 0.5")
        assert third_grid[0]["gradient_strategic"] is True
        assert third_grid[0]["state_strategic"] is False

    def test_scan_2d_margins_nonnegative(self):
        text = """
domain.kind = rectangle
domain.lengths = 1, 1
region.bounds = 0.25, 0.75, 0.25, 0.75
basis.truncation = 2
sensor.1.kind = pointwise
sensor.1.location = 0.3, 0.4
"""
        rows = location_scan(parse_scenario(text), "8x8")
        assert len(rows) == 64
        assert all(r["margin"] >= 0.0 for r in rows)

    def test_subgrid_rows_match_full_grid(self):
        sc = parse_scenario(BASE)
        full = location_scan(sc, "0.1:0.9:9")
        sub = location_scan(sc, "0.2:0.4:3")
        by_b = {round(r["b1"], 12): r for r in full}
        for row in sub:
            match = dict(by_b[round(row["b1"], 12)])
            row = dict(row)
            match.pop("nearest_state_blind", None)
            match.pop("nearest_gradient_blind", None)
            row.pop("nearest_state_blind", None)
            row.pop("nearest_gradient_blind", None)
            assert row == match

    def test_nearest_blind_members(self):
        sc = parse_scenario(BASE)
        rows = location_scan(sc, "0.49, 0.5")
        half = next(r for r in rows if r["b1"] == 0.5)
        assert half["nearest_gradient_blind"]["location"] == Fraction(1, 2)
        assert half["nearest_gradient_blind"]["distance"] == 0.0

    def test_truncation_one_has_no_state_blind_members(self, tmp_path, capsys):
        # the state blind set {k/n : 2 <= n <= T} is empty at T = 1
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(BASE.replace("basis.truncation = 12", "basis.truncation = 1"),
                       encoding="utf-8")
        assert main(["scan", "--config", str(cfg), "--grid", "0.1:0.9:9"]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        assert all("nearest_state_blind" not in r for r in rows)
        half = next(r for r in rows if r["b1"] == 0.5)
        assert half["nearest_gradient_blind"] == {"location": "1/2", "distance": 0.0}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 40), st.booleans(), st.data())
    def test_nearest_member_matches_enumeration(self, truncation, gradient, data):
        members = enumerated_blind_members(truncation, gradient)
        floats = [float(m) for m in members]
        bs = data.draw(st.lists(st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.sampled_from(floats or [0.5]),
            st.sampled_from([0.5 * (x + y) for x, y in zip(floats, floats[1:])] or [0.5])),
            min_size=1, max_size=6))
        nearest = _nearest_blind_1d(np.array(bs), truncation, gradient)
        if not members:
            assert nearest is None
            return
        values = np.array(floats)
        for b, p, q, dist in zip(bs, *nearest):
            k = int(np.argmin(np.abs(values - b)))
            assert Fraction(int(p), int(q)) == members[k]
            assert repr(float(dist)) == repr(float(abs(values[k] - b)))

    def test_nearest_distance_in_domain_units(self, tmp_path, capsys):
        # on (0, 2) the candidate 0.9 is the unit point 0.45; the nearest
        # blind members sit at 1/2 of the unit interval, the domain point 1.0
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(BASE.replace("domain.length = 1", "domain.length = 2")
                       .replace("basis.truncation = 12", "basis.truncation = 4"),
                       encoding="utf-8")
        assert main(["scan", "--config", str(cfg), "--grid", "0.9, 1.0"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["resolution"] == pytest.approx(0.1)
        row = next(r for r in results["rows"] if r["b1"] == 0.9)
        for key in ("nearest_state_blind", "nearest_gradient_blind"):
            assert row[key]["location"] == "1/2"
            assert row[key]["distance"] == pytest.approx(0.1, rel=1e-12)

    def test_nearest_members_beyond_resolution_in_domain_units_are_dropped(self):
        # unit distance 0.03 is within the resolution 0.05, domain distance 0.06 is not
        sc = parse_scenario(BASE.replace("domain.length = 1", "domain.length = 2")
                            .replace("basis.truncation = 12", "basis.truncation = 2")
                            .replace("0.2, 0.5", "0.4, 1.0"))
        rows = location_scan(sc, "0.94, 0.99")
        assert "nearest_gradient_blind" not in rows[0]
        assert rows[1]["nearest_gradient_blind"]["location"] == Fraction(1, 2)
        assert rows[1]["nearest_gradient_blind"]["distance"] == pytest.approx(0.01)

    @pytest.mark.parametrize("spec", ["100000x100000", "0.1:0.9:100000,0.1:0.9:100000"])
    def test_huge_2d_grid_exits_at_once(self, tmp_path, capsys, spec):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(SQUARE, encoding="utf-8")
        assert main(["scan", "--config", str(cfg), "--grid", spec]) == 1
        assert "limit" in capsys.readouterr().err

    def test_huge_1d_grid_rejected(self):
        with pytest.raises(ValidationError, match="limit"):
            location_scan(parse_scenario(BASE), "0.1:0.9:1000000000")
        # the limit counts candidates times modes: 12 modes x 200000 candidates
        with pytest.raises(ValidationError, match="limit"):
            location_scan(parse_scenario(BASE), "0.1:0.9:200000")
        interval = build_basis(Domain.interval(1.0), 1)
        assert len(parse_scan_grid("0.1:0.9:200000", interval)) == 200000

    def test_scan_call_count_does_not_grow_with_candidates(self, monkeypatch):
        counts = {"svd": 0, "eigvalsh": 0}

        def counting(name):
            original = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(np.linalg, name, counting(name))
        sc = parse_scenario(BASE)
        seen = []
        for spec in ("0.05:0.95:9", "0.005:0.995:90"):
            counts.update(svd=0, eigvalsh=0)
            assert len(location_scan(sc, spec)) == int(spec.rsplit(":", 1)[1])
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert seen[0]["svd"] > 0 and seen[0]["eigvalsh"] > 0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_rows_match_per_candidate_suites(self, data):
        sc, points = data.draw(scan_scenarios())
        spec = "".join(", ".join(p) + ";" for p in points) if sc.domain.dim == 2 \
            else ", ".join(p[0] for p in points)
        rows = location_scan(sc, spec)
        for row, point in zip(rows, points):
            sensor = PointwiseSensor(tuple(parse_number(c) for c in point))
            verdict = rank_test(sc.basis, [sensor], sc.rank_rtol, sc.grouping_rtol, sc.quad)
            gram = assemble_gramian(sc.basis, [sensor], sc.region, sc.horizon,
                                    sc.signature_mode, sc.quad, sc.grouping_rtol,
                                    sc.margin_tol)
            assert row["state_strategic"] is verdict.state_strategic
            assert row["gradient_strategic"] is verdict.gradient_strategic
            assert row["margin"] == gram.margin

    def test_scan_needs_grid(self):
        with pytest.raises(ValidationError, match="grid"):
            run_command(parse_scenario(BASE), "scan")

    def test_point_outside_domain(self):
        # the domain is open: its end points are outside too
        for grid in ("0.5, 1.5", "0.5, 1.0", "0:0.5:3"):
            with pytest.raises(ValidationError, match="outside"):
                location_scan(parse_scenario(BASE), grid)


SQUARE = """
domain.kind = rectangle
domain.lengths = 1, 1
region.bounds = 0.25, 0.75, 0.25, 0.75
basis.truncation = 4
sensor.1.kind = pointwise
sensor.1.location = 0.3, 0.4
"""


@st.composite
def scan_scenarios(draw):
    """A random pointwise scan scenario and its candidates as coordinate strings."""
    dim = draw(st.sampled_from([1, 2]))
    lengths = [draw(st.sampled_from(["1", "2", "0.7", "3/2"])) for _ in range(dim)]
    bounds, coords = [], []
    for text in lengths:
        length = float(parse_number(text))
        lo = draw(st.floats(0.0, 0.6)) * length
        bounds += [lo, lo + draw(st.floats(0.1, 0.4)) * length]
        coords.append(st.one_of(
            st.floats(0.001, 0.999).map(lambda u, L=length: repr(u * L)),
            st.sampled_from(["1/3", "1/4", "1/2", "2/5"]).filter(
                lambda c, L=length: float(parse_number(c)) < L)))
    points = draw(st.lists(st.tuples(*coords), min_size=1, max_size=6))
    lines = [
        f"domain.kind = {'interval' if dim == 1 else 'rectangle'}",
        f"domain.{'length' if dim == 1 else 'lengths'} = {', '.join(lengths)}",
        f"region.bounds = {', '.join(repr(b) for b in bounds)}",
        f"basis.truncation = {draw(st.integers(1, 12))}",
        "sensor.1.kind = pointwise",
        f"sensor.1.location = {', '.join(points[0])}",
        f"horizon = {draw(st.sampled_from(['1', '0.2', '2.5', 'inf']))}",
        f"signature_mode = {draw(st.sampled_from(['gradient', 'state']))}",
    ]
    return parse_scenario("\n".join(lines) + "\n"), points


def enumerated_blind_members(truncation: int, gradient: bool) -> list[Fraction]:
    """Sorted blind set up to the truncation: (2k+1)/(2n) for gradient, else k/n."""
    if gradient:
        members = {Fraction(2 * k + 1, 2 * n) for n in range(1, truncation + 1)
                   for k in range(n)}
    else:
        members = {Fraction(k, n) for n in range(2, truncation + 1) for k in range(1, n)}
    return sorted(members)


class TestEmission:
    def test_scan_csv_header(self):
        sc = parse_scenario(BASE)
        report = run_command(sc, "scan", grid_spec="0.1:0.9:9")
        text = emit_report(report, "csv")
        lines = text.split("\n")
        assert lines[0] == "b1,b2,state_strategic,gradient_strategic,margin"
        assert lines[1].startswith("0.1,,")
        assert text.endswith("\n")
        assert "\r" not in text

    def test_simulate_csv(self):
        report = run_command(parse_scenario(SIMULATE), "simulate")
        lines = emit_report(report, "csv").strip().split("\n")
        assert lines[0] == "t,y1"
        assert len(lines) == 65

    def test_determinism_same_seed(self):
        one = emit_report(run_command(parse_scenario(SIMULATE), "simulate"), "json")
        two = emit_report(run_command(parse_scenario(SIMULATE), "simulate"), "json")
        assert one == two
        csv_one = emit_report(run_command(parse_scenario(SIMULATE), "simulate"), "csv")
        csv_two = emit_report(run_command(parse_scenario(SIMULATE), "simulate"), "csv")
        assert csv_one == csv_two

    def test_seed_override_changes_noise(self):
        base = emit_report(run_command(parse_scenario(SIMULATE), "simulate"), "json")
        other = emit_report(run_command(parse_scenario(SIMULATE), "simulate", seed=8),
                            "json")
        assert base != other

    def test_written_file(self, tmp_path):
        report = run_command(parse_scenario(BASE), "check")
        path = tmp_path / "report.json"
        text = emit_report(report, "json", path)
        assert path.read_text(encoding="utf-8") == text
        json.loads(text)

    def test_unwritable_path(self, tmp_path):
        report = run_command(parse_scenario(BASE), "check")
        with pytest.raises(ValidationError, match="cannot write"):
            emit_report(report, "json", tmp_path / "missing_dir" / "report.json")

    def test_unknown_format(self):
        report = run_command(parse_scenario(BASE), "check")
        with pytest.raises(ValidationError):
            emit_report(report, "yaml")

    def test_json_schema_stable_for_every_command(self):
        scenario = SIMULATE + "scan.grid = 0.2:0.8:4\n"
        for command in ("check", "gramian", "simulate", "reconstruct", "scan", "split"):
            payload = json.loads(emit_report(run_command(parse_scenario(scenario),
                                                         command), "json"))
            assert set(payload) == {"command", "version", "scenario", "results"}
            assert payload["command"] == command
            assert payload["version"]
            assert isinstance(payload["scenario"], dict)
            results = payload["results"]
            assert results["truncation"] == 12
            assert set(results["tolerances"]) == {
                "rank", "grouping", "margin", "blind", "identifiability"}

    def test_csv_for_every_tabular_command(self):
        scenario = SIMULATE + "scan.grid = 0.2:0.8:4\n"
        headers = {
            "check": "eigenvalue,modes,multiplicity,rank_gradient,rank_state,"
                     "pass_gradient,pass_state",
            "gramian": "eigenvalue,multiplicity,margin,rank_deficient",
            "simulate": "t,y1",
            "reconstruct": "mode,estimate,true,identifiable",
            "scan": "b1,b2,state_strategic,gradient_strategic,margin",
            "split": "mode,in_kernel,signature_strength",
        }
        for command, header in headers.items():
            text = emit_report(run_command(parse_scenario(scenario), command), "csv")
            lines = text.strip().split("\n")
            assert lines[0] == header, command
            assert len(lines) > 1, command


class TestCli:
    def write(self, tmp_path, text):
        path = tmp_path / "scenario.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_check_to_stdout(self, tmp_path, capsys):
        code = main(["check", "--config", self.write(tmp_path, BASE)])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["command"] == "check"
        assert payload["results"]["gradient_strategic"] is True

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        code = main(["scan", "--config", self.write(tmp_path, BASE),
                     "--grid", "0.2:0.8:4", "--format", "csv",
                     "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text(encoding="utf-8").startswith("b1,b2,")
        assert capsys.readouterr().out == ""

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = BASE.replace("sensor.1.location = 1/3", "sensor.1.location = 1.5")
        code = main(["check", "--config", self.write(tmp_path, bad)])
        assert code == 1
        assert "validation error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        code = main(["check", "--config", str(tmp_path / "none.cfg")])
        assert code == 1

    def test_computation_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("numerical meltdown")
        monkeypatch.setattr(gradsense.cli, "run_command", boom)
        code = main(["check", "--config", self.write(tmp_path, BASE)])
        assert code == 2
        assert "computation failed" in capsys.readouterr().err

    def test_cli_determinism_bytes(self, tmp_path):
        cfg = self.write(tmp_path, SIMULATE)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cli_grid_overrides_scenario(self, tmp_path, capsys):
        cfg = self.write(tmp_path, BASE + "scan.grid = 0.1:0.9:9\n")
        assert main(["scan", "--config", cfg, "--grid", "0.3:0.4:2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]["rows"]) == 2
        assert payload["results"]["grid"] == "0.3:0.4:2"

    @pytest.mark.parametrize("command", ["simulate", "reconstruct"])
    def test_infinite_horizon_needs_time_grid(self, tmp_path, capsys, command):
        text = SIMULATE.replace("horizon = 1", "horizon = inf") + "time.samples = 3\n"
        code = main([command, "--config", self.write(tmp_path, text)])
        assert code == 1
        assert '"time.grid"' in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "reconstruct"])
    def test_infinite_horizon_with_time_grid_runs(self, tmp_path, capsys, command):
        text = (SIMULATE.replace("horizon = 1", "horizon = inf")
                + "time.grid = 0.01, 0.05, 0.2, 0.5\n")
        assert main([command, "--config", self.write(tmp_path, text)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        if command == "simulate":
            assert results["times"] == [0.01, 0.05, 0.2, 0.5]

    @pytest.mark.parametrize("command", ["scan", "gramian"])
    def test_infinite_horizon_scan_and_gramian_run(self, tmp_path, capsys, command):
        text = (BASE.replace("horizon = 1", "horizon = inf")
                + "time.samples = 3\nscan.grid = 0.2:0.8:4\n")
        assert main([command, "--config", self.write(tmp_path, text)]) == 0
        json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("command, key, text", [
        ("gramian", "horizon",
         BASE.replace("horizon = 1", "horizon = nan") + "time.samples = 1\n"),
        ("simulate", "noise.stddev",
         SIMULATE.replace("noise.stddev = 0.01", "noise.stddev = nan")),
        ("simulate", "noise.stddev",
         SIMULATE.replace("noise.stddev = 0.01", "noise.stddev = inf")),
        ("reconstruct", "regularization.value",
         SIMULATE + "regularization.kind = tikhonov\nregularization.value = nan\n"),
        ("reconstruct", "initial.coefficients",
         SIMULATE.replace("initial.coefficients = 1, 0, 0.5", "initial.coefficients = 1, nan")),
        ("reconstruct", "initial.coefficients",
         SIMULATE.replace("initial.coefficients = 1, 0, 0.5", "initial.coefficients = 1, inf")),
        ("check", "domain.lengths",
         "domain.kind = rectangle\ndomain.lengths = 1, inf\nregion.bounds = 0.2, 0.5, 0.2, 0.5\n"
         "basis.truncation = 3\nsensor.1.kind = pointwise\nsensor.1.location = 0.3, 0.4\n"),
        ("check", "domain.length", BASE.replace("domain.length = 1", "domain.length = inf")),
        ("check", "tolerance.rank", BASE + "tolerance.rank = inf\n"),
        # integers and fractions beyond the float range are as unusable as inf
        ("check", "tolerance.rank", BASE + "tolerance.rank = 1" + "0" * 400 + "\n"),
        ("reconstruct", "initial.coefficients",
         SIMULATE.replace("initial.coefficients = 1, 0, 0.5",
                          "initial.coefficients = 1, 1" + "0" * 400)),
        ("check", "sensor.1.location", BASE.replace("1/3", "1" + "0" * 400 + "/3")),
    ], ids=["horizon-nan", "noise-nan", "noise-inf", "regularization-nan", "coefficient-nan",
            "coefficient-inf", "lengths-inf", "length-inf", "rank-tolerance-inf",
            "rank-tolerance-huge-int", "coefficient-huge-int", "location-huge-fraction"])
    def test_non_finite_input_exits_1_naming_its_key(self, tmp_path, capsys, command, key, text):
        code = main([command, "--config", self.write(tmp_path, text)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f'key "{key}"' in captured.err
        assert "not finite" in captured.err

    def test_control_characters_are_escaped(self, tmp_path, capsys):
        text = BASE + "scan.grid = 0.1,\t0.5\n"
        assert main(["scan", "--config", self.write(tmp_path, text)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["scan.grid"] == "0.1,\t0.5"
        assert payload["results"]["grid"] == "0.1,\t0.5"
        assert len(payload["results"]["rows"]) == 2

    def test_trace_rank_deficiency_fires_on_a_thin_edge_region(self, tmp_path, capsys):
        # a 0.001-wide region against the x = 0 edge: the trace Gram blocks W_g
        # of two eigenvalue groups lose numerical rank although, in exact
        # arithmetic, every W_g of an open region is positive definite
        text = ("domain.kind = rectangle\ndomain.lengths = 1, 1\n"
                "region.bounds = 0.001, 0.002, 0.5, 0.51\nbasis.truncation = 12\n"
                "horizon = 12\nsensor.1.kind = pointwise\nsensor.1.location = 0.31, 0.62\n")
        assert main(["gramian", "--config", self.write(tmp_path, text)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["trace_rank_deficient"] is True
        deficient = [(round(g["eigenvalue"], 2), g["multiplicity"], g["trace_rank"])
                     for g in results["group_margins"] if g["rank_deficient"]]
        assert deficient == [(-493.48, 3, 2), (-1283.05, 4, 3)]


class TestCheckVariants:
    def test_zonal_1d_has_no_blind_set_block(self):
        text = """
domain.kind = interval
domain.length = 1
region.bounds = 0.2, 0.5
basis.truncation = 8
sensor.1.kind = zonal
sensor.1.box = 0.4, 0.6
"""
        report = run_command(parse_scenario(text), "check")
        block = report.results["blind_sets"][0]
        assert block["available"] is False
        assert report.results["engine"] == "rank"

    def test_filament_2d_closed_form_block(self):
        text = """
domain.kind = rectangle
domain.lengths = 1, 1
region.bounds = 0, 1, 0, 1
basis.truncation = 2
sensor.1.kind = filament
sensor.1.curve = 0.2, 0.5; 0.6, 0.5
"""
        report = run_command(parse_scenario(text), "check")
        block = report.results["closed_form"][0]
        assert block["available"] is True
        assert block["reference_point"] == [0.4, 0.5]

    def test_quadrature_panels_override(self):
        text = BASE + "quadrature.order = 24\nquadrature.panels = 40\n"
        sc = parse_scenario(text)
        assert sc.quad.order == 24 and sc.quad.panels == 40
        report = run_command(sc, "gramian")
        assert report.results["positive_definite"] is True
