"""Command dispatch: turn a scenario plus a command name into a Report.

Commands:
  check        rank test plus the closed-form engines, with agreement flags
  gramian      finite-rank Gramian margin and observability constant
  simulate     forward measurement series from the initial coefficients
  reconstruct  simulate, invert, and report coefficient and gradient errors
  scan         sweep candidate pointwise locations over a grid
  split        sensor-kernel mode split and the independence check

Every result block echoes the truncation and tolerances it was computed
with, so emitted verdicts are reproducible claims.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from ._version import __version__
from .errors import ValidationError
from .gramian import assemble_gramian, pointwise_margins
from .reconstruct import (
    estimate_coefficients,
    gradient_field_on_region,
    reconstruction_error,
)
from .report import Report
from .scenario import Scenario, parse_number
from .sensors import MeasurementSeries, PointwiseSensor, pointwise_signatures, simulate_output
from .spectral import ModalBasis
from .strategic import (
    basis_split,
    closed_form_condition,
    exact_pointwise_verdict_1d,
    forbidden_sets_1d,
    group_eigenvalues,
    rank_test,
    rank_verdicts,
    residual_independence_check,
)

COMMANDS = ("check", "gramian", "simulate", "reconstruct", "scan", "split")


def _mode_json(mode):
    return list(mode) if isinstance(mode, tuple) else mode


def _tolerances(sc: Scenario) -> dict:
    return {
        "rank": sc.rank_rtol,
        "grouping": sc.grouping_rtol,
        "margin": sc.margin_tol,
        "blind": sc.blind_tol,
        "identifiability": sc.identifiability_tol,
    }


def run_command(sc: Scenario, command: str, seed: int | None = None,
                grid_spec: str | None = None) -> Report:
    """Execute one command against a validated scenario."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}; choose from {COMMANDS}")
    start = time.perf_counter()
    effective_seed = sc.noise_seed if seed is None else seed
    if command == "check":
        results = _check_results(sc)
    elif command == "gramian":
        results = _gramian_results(sc)
    elif command == "simulate":
        results = _simulate_results(sc, effective_seed)
    elif command == "reconstruct":
        results = _reconstruct_results(sc, effective_seed)
    elif command == "scan":
        results = _scan_results(sc, grid_spec)
    else:
        results = _split_results(sc)
    results["truncation"] = sc.basis.truncation
    results["tolerances"] = _tolerances(sc)
    if seed is not None:
        results["seed"] = seed
    return Report(command=command, version=__version__, scenario=sc.echo,
                  results=results, wall_time_seconds=time.perf_counter() - start)


def _group_rows(verdict) -> list[dict]:
    rows = []
    for grad, state in zip(verdict.gradient_records, verdict.state_records):
        rows.append({
            "eigenvalue": grad.eigenvalue,
            "modes": [_mode_json(m) for m in grad.modes],
            "multiplicity": grad.multiplicity,
            "rank_gradient": grad.rank,
            "rank_state": state.rank,
            "pass_gradient": grad.passed,
            "pass_state": state.passed,
            "marginal": grad.marginal or state.marginal,
        })
    return rows


def _normalized_1d_location(sensor: PointwiseSensor, length: float):
    """Location rescaled to the unit interval; exactness kept when length is 1."""
    b = sensor.location[0]
    if isinstance(b, (Fraction, int)) and length == 1.0:
        return Fraction(b)
    return float(b) / length


def _check_results(sc: Scenario) -> dict:
    verdict = rank_test(sc.basis, list(sc.sensors), sc.rank_rtol,
                        sc.grouping_rtol, sc.quad)
    results: dict = {
        "state_strategic": verdict.state_strategic,
        "gradient_strategic": verdict.gradient_strategic,
        "engine": "rank",
        "sensor_count": verdict.sensor_count,
        "max_multiplicity": verdict.max_multiplicity,
        "gradient_reason": verdict.gradient_reason,
        "state_reason": verdict.state_reason,
        "any_member_gradient_strategic": verdict.any_member_gradient_strategic,
        "per_sensor_gradient_strategic": list(verdict.per_sensor_gradient_strategic),
        "marginal": verdict.marginal,
        "groups": _group_rows(verdict),
        "witness": _witnesses(verdict),
    }
    if sc.domain.dim == 1:
        _attach_1d_closed_form(sc, verdict, results)
    else:
        _attach_2d_closed_form(sc, verdict, results)
    return results


def _witnesses(verdict) -> dict:
    out: dict = {}
    if verdict.first_failing_gradient is not None:
        out["gradient_mode"] = _mode_json(verdict.first_failing_gradient.modes[0])
    if verdict.first_failing_state is not None:
        out["state_mode"] = _mode_json(verdict.first_failing_state.modes[0])
    return out


def _attach_1d_closed_form(sc: Scenario, verdict, results: dict) -> None:
    length = sc.domain.lengths[0]
    sensor_blocks = []
    normalized: list = []
    blind_sets = []
    all_pointwise = all(isinstance(s, PointwiseSensor) for s in sc.sensors)
    for k, sensor in enumerate(sc.sensors):
        if not isinstance(sensor, PointwiseSensor):
            sensor_blocks.append({"sensor": k + 1, "available": False,
                                  "reason": f"{sensor.kind} sensors have no 1D blind-set test"})
            continue
        b = _normalized_1d_location(sensor, length)
        normalized.append(b)
        fs = forbidden_sets_1d(b, sc.basis.truncation, sc.blind_tol)
        blind_sets.append(fs)
        block = {
            "sensor": k + 1,
            "available": True,
            "exact": fs.exact,
            "in_state_blind_set": fs.in_state_set,
            "in_gradient_blind_set": fs.in_gradient_set,
        }
        if fs.state_witness is not None:
            block["state_witness"] = {"n": fs.state_witness[0], "k": fs.state_witness[1]}
        if fs.gradient_witness is not None:
            block["gradient_witness"] = {"n": fs.gradient_witness[0],
                                         "k": fs.gradient_witness[1]}
        if fs.min_sine is not None:
            block["min_sine"] = fs.min_sine
            block["min_cosine"] = fs.min_cosine
        sensor_blocks.append(block)
    results["blind_sets"] = sensor_blocks

    exact_locs = [b for b in normalized if isinstance(b, Fraction)]
    if all_pointwise and len(exact_locs) == len(sc.sensors):
        joint = exact_pointwise_verdict_1d(exact_locs)
        results["engine"] = "exact"
        results["state_strategic"] = joint.state_strategic
        results["gradient_strategic"] = joint.gradient_strategic
        results["exact_joint"] = {
            "state_strategic": joint.state_strategic,
            "gradient_strategic": joint.gradient_strategic,
            "state_witness": joint.state_witness,
            "gradient_witness": joint.gradient_witness,
            "period": joint.period,
        }
        if joint.state_witness is not None and joint.state_witness <= sc.basis.truncation:
            results["witness"].setdefault("state_mode", joint.state_witness)
        if joint.gradient_witness is not None:
            results["witness"].setdefault("gradient_mode", joint.gradient_witness)
        results["engines_agree"] = {
            "state": joint.state_strategic == verdict.state_strategic,
            "gradient": joint.gradient_strategic == verdict.gradient_strategic,
        }
    elif all_pointwise and normalized:
        # numeric locations: the rank verdict stays authoritative, the
        # per-sensor blind-set blocks above carry the closed-form data
        results["engines_agree"] = _numeric_agreement(verdict, blind_sets)


def _numeric_agreement(verdict, blind_sets: list) -> dict:
    # single-sensor shortcut: blind-set membership must mirror the rank verdict
    if len(blind_sets) == 1:
        fs = blind_sets[0]
        return {
            "state": (not fs.in_state_set) == verdict.state_strategic,
            "gradient": (not fs.in_gradient_set) == verdict.gradient_strategic,
        }
    return {}


def _attach_2d_closed_form(sc: Scenario, verdict, results: dict) -> None:
    blocks = []
    for k, sensor in enumerate(sc.sensors):
        try:
            cf = closed_form_condition(sensor, sc.region, sc.basis.truncation,
                                       sc.blind_tol)
        except ValidationError as exc:
            blocks.append({"sensor": k + 1, "available": False, "reason": str(exc)})
            continue
        block = {
            "sensor": k + 1,
            "available": True,
            "all_pass": cf.all_pass,
            "reference_point": list(cf.reference_point),
            "exact": list(cf.exact),
        }
        if cf.first_failure is not None:
            block["first_failure"] = {
                "pair": list(cf.first_failure.pair),
                "axis_values": list(cf.first_failure.axis_values),
                "axis_integer": list(cf.first_failure.axis_integer),
            }
        blocks.append(block)
    results["closed_form"] = blocks
    available = [b for b in blocks if b["available"]]
    if available:
        aggregate = any(b["all_pass"] for b in available)
        # the printed conditions test sine-type zeros, which is the state
        # vanishing pattern; flag agreement against both verdicts
        results["engines_agree"] = {
            "closed_form_vs_state": aggregate == verdict.state_strategic,
            "closed_form_vs_gradient": aggregate == verdict.gradient_strategic,
        }


def _gramian_results(sc: Scenario) -> dict:
    result = assemble_gramian(sc.basis, list(sc.sensors), sc.region, sc.horizon,
                              sc.signature_mode, sc.quad, sc.grouping_rtol,
                              sc.margin_tol)
    return {
        "signature_mode": result.signature_mode,
        "horizon": result.horizon,
        "margin": result.margin,
        "positive_definite": result.positive_definite,
        "observability_constant": result.constant,
        "all_zero_signatures": result.all_zero_signatures,
        "trace_rank_deficient": result.rank_deficient,
        "group_margins": [{
            "eigenvalue": g.eigenvalue,
            "multiplicity": g.multiplicity,
            "margin": g.margin,
            "trace_rank": g.trace_rank,
            "rank_deficient": g.rank_deficient,
        } for g in result.group_margins],
    }


def _simulate(sc: Scenario, seed: int) -> tuple[np.ndarray, MeasurementSeries]:
    """The initial coefficients and the series they produce at the sample times."""
    if sc.initial_coeffs is None:
        raise ValidationError(
            'this command needs "initial.coefficients" in the scenario')
    if sc.times.size == 0:
        raise ValidationError(
            'this command needs "time.grid" in the scenario when the horizon is infinite')
    series = simulate_output(sc.basis, sc.initial_coeffs, list(sc.sensors), sc.times,
                             sc.horizon, sc.noise_std, seed, sc.quad)
    return sc.initial_coeffs, series


def _simulate_results(sc: Scenario, seed: int) -> dict:
    _, series = _simulate(sc, seed)
    return {
        "noise_stddev": sc.noise_std,
        "noise_seed": seed,
        "times": series.times,
        "series": [series.values[i] for i in range(series.n_sensors)],
    }


def _reconstruct_results(sc: Scenario, seed: int) -> dict:
    coeffs, series = _simulate(sc, seed)
    estimate = estimate_coefficients(series, sc.basis, list(sc.sensors),
                                     sc.signature_mode, sc.regularization,
                                     sc.reg_value, sc.identifiability_tol, sc.quad)
    errors = reconstruction_error(coeffs, estimate.coefficients, sc.basis, sc.region)
    field = gradient_field_on_region(sc.basis, estimate.coefficients, sc.region, grid=9)
    flagged = set(estimate.unidentifiable_modes)
    identifiable = [m not in flagged for m in sc.basis.modes]
    denom = float(np.linalg.norm(coeffs))
    rel = float(np.linalg.norm(estimate.coefficients - coeffs)) / denom if denom else 0.0
    return {
        "signature_mode": estimate.signature_mode,
        "regularization": estimate.regularization,
        "regularization_value": estimate.reg_value,
        "noise_stddev": sc.noise_std,
        "noise_seed": seed,
        "modes": [_mode_json(m) for m in sc.basis.modes],
        "true_coefficients": coeffs,
        "estimated_coefficients": estimate.coefficients,
        "identifiable": identifiable,
        "unidentifiable_modes": [_mode_json(m) for m in estimate.unidentifiable_modes],
        "residual_norm": estimate.residual_norm,
        "condition_number": estimate.condition_number,
        "relative_coefficient_error": rel,
        "err_region": errors.err_region,
        "err_domain": errors.err_domain,
        "gradient_field": {
            "points": field.points,
            "values": field.values,
        },
    }


# Largest candidate count x mode count a scan accepts.  The scan holds a
# few (candidates, modes) float arrays at once, 16 MB each at this size.
MAX_SCAN_ENTRIES = 2_000_000


def parse_scan_grid(spec: str, basis: ModalBasis) -> list[tuple]:
    """Parse a candidate-location grid.

    1D: "a:b:n" (n points from a to b inclusive) or "v1,v2,...".
    2D: "NxM" (interior lattice of the domain), "a:b:n,a:b:n" (per-axis
    ranges, tensor product), or "x,y; x,y; ..." explicit points.
    The grid lies in the basis' domain.  A grid whose candidate count
    times the basis' mode count exceeds MAX_SCAN_ENTRIES is rejected
    before any candidate is built.
    """
    domain, n_modes = basis.domain, basis.n_modes
    spec = spec.strip()
    if not spec:
        raise ValidationError("empty scan grid")
    if domain.dim == 1:
        if ":" in spec:
            a, b, n = _parse_range(spec)
            _check_grid_size(spec, n, n_modes)
            return [(v,) for v in np.linspace(a, b, n)]
        chunks = [chunk for chunk in spec.split(",") if chunk.strip()]
        _check_grid_size(spec, len(chunks), n_modes)
        return [(parse_number(chunk),) for chunk in chunks]
    if ";" in spec:
        chunks = [chunk.strip() for chunk in spec.split(";") if chunk.strip()]
        _check_grid_size(spec, len(chunks), n_modes)
        points = []
        for chunk in chunks:
            coords = [parse_number(c) for c in chunk.split(",")]
            if len(coords) != 2:
                raise ValidationError(f"scan grid point {chunk!r} needs 2 coordinates")
            points.append(tuple(coords))
        return points
    if "x" in spec and ":" not in spec:
        try:
            n1, n2 = (int(v) for v in spec.split("x"))
        except ValueError:
            raise ValidationError(f"bad lattice spec {spec!r}; expected like 8x8") from None
        if n1 < 1 or n2 < 1:
            raise ValidationError(f"lattice spec {spec!r} needs positive counts")
        _check_grid_size(spec, n1 * n2, n_modes)
        xs = [domain.lengths[0] * i / (n1 + 1) for i in range(1, n1 + 1)]
        ys = [domain.lengths[1] * j / (n2 + 1) for j in range(1, n2 + 1)]
        return [(x, y) for x in xs for y in ys]
    parts = spec.split(",")
    if len(parts) != 2:
        raise ValidationError(f"bad 2D scan grid {spec!r}")
    a1, b1, n1 = _parse_range(parts[0])
    a2, b2, n2 = _parse_range(parts[1])
    _check_grid_size(spec, n1 * n2, n_modes)
    return [(x, y) for x in np.linspace(a1, b1, n1) for y in np.linspace(a2, b2, n2)]


def _check_grid_size(spec: str, count: int, n_modes: int) -> None:
    if count * n_modes > MAX_SCAN_ENTRIES:
        raise ValidationError(
            f"scan grid {spec!r} has {count} candidates; times {n_modes} modes that "
            f"exceeds the limit of {MAX_SCAN_ENTRIES} candidate-mode entries")


def _parse_range(spec: str) -> tuple[float, float, int]:
    parts = spec.strip().split(":")
    if len(parts) != 3:
        raise ValidationError(f"bad range spec {spec!r}; expected a:b:n")
    a, b = float(parse_number(parts[0])), float(parse_number(parts[1]))
    n = int(parts[2])
    if n < 1:
        raise ValidationError(f"range spec {spec!r} needs at least one point")
    return a, b, n


def _nearest_blind_1d(b: np.ndarray, truncation: int, gradient: bool
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Blind-set member nearest to each location b among indices n <= truncation.

    The state set holds k/n (2 <= n, 1 <= k < n), the gradient set
    (2k+1)/(2n) (1 <= n, 0 <= k < n), both on the unit interval.  For each
    n only the two numerators bracketing n*b (after the half shift) can be
    nearest.  Distances are taken between floats; a tie goes to the
    smaller member.  Returns, per location, the member as an unreduced
    numerator and denominator and its distance; None when the set is empty.
    """
    shift = 0.5 if gradient else 0.0
    n = np.arange(1 if gradient else 2, truncation + 1)
    if not n.size:
        return None
    b = np.asarray(b, dtype=float)[:, None]
    k = np.floor(n * b - shift)
    n = np.concatenate([n, n])
    k = np.clip(np.concatenate([k, k + 1], axis=1), 0 if gradient else 1, n - 1)
    values = (k + shift) / n
    dist = np.abs(values - b)
    nearest = dist.min(axis=1, keepdims=True)
    best = np.where(dist == nearest, values, np.inf).argmin(axis=1)
    k = np.take_along_axis(k, best[:, None], axis=1)[:, 0].astype(int)
    n = n[best]
    if gradient:
        return 2 * k + 1, 2 * n, nearest[:, 0]
    return k, n, nearest[:, 0]


def location_scan(sc: Scenario, grid_spec: str | None = None) -> list[dict]:
    """Sweep candidate pointwise locations; one independent row per candidate.

    Each row carries the location, both strategic verdicts at the
    scenario's truncation, the Gramian margin, and in 1D the nearest blind
    set member when it lies within the grid resolution.

    The scan is batched: one evaluation gives every candidate's state and
    gradient signatures, the eigenvalue groups, time correlations, trace
    Gram and its per-group whitening are computed once, and each group's
    rank and pencil problems are solved for all candidates in one stacked
    call.  Each candidate keeps its own rank threshold, so rows depend only
    on their own candidate and any sub-grid reproduces the matching rows.
    """
    spec = grid_spec if grid_spec is not None else sc.scan_grid
    if spec is None:
        raise ValidationError('scan needs a grid: pass --grid or set "scan.grid"')
    candidates = parse_scan_grid(spec, sc.basis)
    if not candidates:
        raise ValidationError("empty scan grid")
    points = np.array([[float(c) for c in point] for point in candidates])
    grad_sig = pointwise_signatures(sc.basis, points, "gradient")
    state_sig = pointwise_signatures(sc.basis, points, "state")
    margin_sig = {"gradient": grad_sig, "state": state_sig}.get(sc.signature_mode)
    if margin_sig is None:
        raise ValidationError(f"unknown signature mode {sc.signature_mode!r}")

    groups = group_eigenvalues(sc.basis, sc.grouping_rtol)
    margins = pointwise_margins(sc.basis, groups, margin_sig, sc.region, sc.horizon)
    grad_ok = rank_verdicts(groups, grad_sig[:, None, :], sc.rank_rtol)
    state_ok = rank_verdicts(groups, state_sig[:, None, :], sc.rank_rtol)
    rows = [{
        "b1": float(p[0]),
        "b2": float(p[1]) if sc.domain.dim == 2 else None,
        "state_strategic": bool(state),
        "gradient_strategic": bool(grad),
        "margin": float(margin),
    } for p, state, grad, margin in zip(points, state_ok, grad_ok, margins)]
    if sc.domain.dim == 1:
        _attach_nearest_blind(rows, points[:, 0], sc.domain.lengths[0],
                              sc.basis.truncation)
    return rows


def _attach_nearest_blind(rows: list[dict], b: np.ndarray, length: float,
                          truncation: int) -> None:
    """Add the nearest blind members that lie within the grid resolution.

    The member's location is on the unit interval; its distance to the
    candidate is in domain units, like the resolution it is compared with.
    """
    resolution = _grid_resolution(b)
    for key, gradient in (("nearest_state_blind", False),
                          ("nearest_gradient_blind", True)):
        nearest = _nearest_blind_1d(b / length, truncation, gradient)
        if nearest is None:
            continue
        for row, p, q, dist in zip(rows, *nearest[:2], length * nearest[2]):
            if dist <= resolution:
                row[key] = {"location": Fraction(int(p), int(q)), "distance": float(dist)}


def _scan_results(sc: Scenario, grid_spec: str | None) -> dict:
    spec = grid_spec if grid_spec is not None else sc.scan_grid
    rows = location_scan(sc, spec)
    resolution = _grid_resolution([row["b1"] for row in rows])
    return {"grid": spec, "resolution": resolution,
            "signature_mode": sc.signature_mode, "horizon": sc.horizon, "rows": rows}


def _grid_resolution(coords) -> float:
    values = np.unique(coords)
    if len(values) < 2:
        return float("inf")
    diffs = np.diff(values)
    positive = diffs[diffs > 0]
    return float(positive.min()) if positive.size else float("inf")


def _split_results(sc: Scenario) -> dict:
    split = basis_split(sc.basis, list(sc.sensors), "gradient", sc.blind_tol, sc.quad)
    independence = residual_independence_check(split.kernel_modes, sc.basis, sc.region)
    kernel = set(split.kernel_modes)
    return {
        "signature_kind": split.signature_kind,
        "modes": [_mode_json(m) for m in sc.basis.modes],
        "in_kernel": [m in kernel for m in sc.basis.modes],
        "mode_strengths": list(split.mode_strengths),
        "kernel_modes": [_mode_json(m) for m in split.kernel_modes],
        "active_modes": [_mode_json(m) for m in split.active_modes],
        "scale": split.scale,
        "independent_outside_region": independence.independent,
        "vacuous": independence.vacuous,
        "smallest_eigenvalue": independence.smallest_eigenvalue,
    }
