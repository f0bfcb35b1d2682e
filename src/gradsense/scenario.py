"""Scenario files: flat key-value text with dotted section names.

One ``key = value`` pair per line, ``#`` comments, no nesting.  Locations
and region bounds written as fractions ("1/3") stay exact and switch the
rational membership and closed-form checks onto exact arithmetic.  Every
number must be finite, except that "horizon" may be inf.  Unknown
keys are rejected so typos cannot silently change a run.  The full schema
is documented in docs/scenario_format.md.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ScenarioError
from .gramian import DEFAULT_MARGIN_TOL
from .quadrature import DEFAULT_ORDER, QuadratureSpec
from .reconstruct import DEFAULT_IDENTIFIABILITY_TOL
from .sensors import FilamentSensor, PointwiseSensor, Sensor, ZonalSensor, validate_sensor
from .spectral import Domain, ModalBasis, Subregion, build_basis
from .strategic import DEFAULT_BLIND_TOL, DEFAULT_GROUPING_RTOL, DEFAULT_RANK_RTOL

_SENSOR_KEY = re.compile(r"^sensor\.(\d+)\.([a-z_]+)$")


def parse_number(text: str):
    """Parse a finite scalar: fraction strings stay Fractions, plain integers ints.

    nan and +-inf are rejected; parse_scenario lets only "horizon" be +inf.
    """
    text = text.strip()
    if "/" in text:
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"bad fraction {text!r}: {exc}") from None
    else:
        try:
            value = int(text)
        except ValueError:
            try:
                value = float(text)
            except ValueError:
                raise ScenarioError(f"bad number {text!r}") from None
    # every number is used as a float somewhere, so an int or Fraction
    # beyond the float range is as unusable as inf
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ScenarioError(f"number {text!r} is not finite")
    return value


def parse_number_list(text: str) -> list:
    items = [s for s in (piece.strip() for piece in text.split(",")) if s]
    if not items:
        raise ScenarioError("empty number list")
    return [parse_number(s) for s in items]


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fully validated run configuration."""

    domain: Domain
    region: Subregion
    basis: ModalBasis
    sensors: tuple[Sensor, ...]
    horizon: float
    times: np.ndarray
    signature_mode: str
    rank_rtol: float
    grouping_rtol: float
    margin_tol: float
    blind_tol: float
    identifiability_tol: float
    quad: QuadratureSpec
    noise_std: float
    noise_seed: int
    initial_coeffs: np.ndarray | None
    regularization: str
    reg_value: float
    scan_grid: str | None
    echo: tuple[tuple[str, str], ...]


def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ScenarioError(f"line {lineno}: empty key")
        if key in entries:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)
    return entries


class _Reader:
    """Tracks which keys were consumed so leftovers can be reported."""

    def __init__(self, entries: dict[str, tuple[str, int]]):
        self.entries = entries
        self.used: set[str] = set()

    def get(self, key: str, default=None) -> str | None:
        if key in self.entries:
            self.used.add(key)
            return self.entries[key][0]
        return default

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise ScenarioError(f'missing required key "{key}"')
        return value

    def line(self, key: str) -> int:
        return self.entries[key][1]

    def leftover(self) -> list[str]:
        return [k for k in self.entries if k not in self.used]


@contextmanager
def _naming(reader: _Reader, key: str):
    """Prefix a parse error inside the block with the key and its line."""
    try:
        yield
    except ScenarioError as exc:
        raise ScenarioError(f'line {reader.line(key)}: key "{key}": {exc}') from None


def _numbers(reader: _Reader, key: str, required: bool = False) -> list | None:
    raw = reader.require(key) if required else reader.get(key)
    if raw is None:
        return None
    with _naming(reader, key):
        return parse_number_list(raw)


def _scalar(reader: _Reader, key: str, default=None, kind: str = "float",
            minimum=None):
    raw = reader.get(key)
    if raw is None:
        return default
    with _naming(reader, key):
        value = parse_number(raw)
    if kind == "int":
        if not isinstance(value, int):
            raise ScenarioError(f'line {reader.line(key)}: key "{key}" must be an integer')
    else:
        value = float(value)
    if minimum is not None and not value >= minimum:
        raise ScenarioError(
            f'line {reader.line(key)}: key "{key}" must be >= {minimum}, got {value}')
    return value


def _choice(reader: _Reader, key: str, options: tuple[str, ...], default: str) -> str:
    raw = reader.get(key, default)
    if raw not in options:
        raise ScenarioError(
            f'key "{key}" must be one of {options}, got {raw!r}')
    return raw


def _parse_sensors(reader: _Reader, domain: Domain) -> list[Sensor]:
    numbers = sorted({int(m.group(1)) for k in reader.entries
                      if (m := _SENSOR_KEY.match(k))})
    if not numbers:
        raise ScenarioError("scenario defines no sensors (expected sensor.1.kind ...)")
    if numbers != list(range(1, len(numbers) + 1)):
        raise ScenarioError(f"sensor numbers must be 1..{len(numbers)} contiguous, got {numbers}")
    sensors: list[Sensor] = []
    for k in numbers:
        prefix = f"sensor.{k}."
        kind = reader.require(prefix + "kind")
        if kind == "pointwise":
            location = _numbers(reader, prefix + "location", required=True)
            sensor: Sensor = PointwiseSensor(location=tuple(location))
        elif kind == "zonal":
            box_values = _numbers(reader, prefix + "box", required=True)
            if len(box_values) != 2 * domain.dim:
                raise ScenarioError(
                    f'key "{prefix}box" needs {2 * domain.dim} numbers for a '
                    f"{domain.dim}D domain, got {len(box_values)}")
            box = tuple((box_values[2 * a], box_values[2 * a + 1])
                        for a in range(domain.dim))
            weight = reader.get(prefix + "weight", "uniform")
            values = _numbers(reader, prefix + "weight_values")
            if values is not None:
                values = tuple(float(v) for v in values)
            sensor = ZonalSensor(box=box, weight=weight, weight_values=values)
        elif kind == "filament":
            chunks = (c.strip() for c in reader.require(prefix + "curve").split(";"))
            points = []
            for chunk in filter(None, chunks):
                with _naming(reader, prefix + "curve"):
                    coords = parse_number_list(chunk)
                if len(coords) != 2:
                    raise ScenarioError(
                        f'key "{prefix}curve": each point needs 2 coordinates, got {chunk!r}')
                points.append((float(coords[0]), float(coords[1])))
            sensor = FilamentSensor(points=tuple(points),
                                    weight=_scalar(reader, prefix + "weight", 1.0))
        else:
            raise ScenarioError(
                f'key "{prefix}kind" must be pointwise, zonal, or filament, got {kind!r}')
        try:
            sensors.append(validate_sensor(sensor, domain))
        except ScenarioError:
            raise
        except Exception as exc:
            raise ScenarioError(f"sensor.{k}: {exc}") from None
    return sensors


def _build_times(reader: _Reader, horizon: float) -> np.ndarray:
    grid = _numbers(reader, "time.grid")
    if grid is not None:
        times = np.array([float(v) for v in grid])
    else:
        samples = _scalar(reader, "time.samples", 64, kind="int", minimum=1)
        spacing = _choice(reader, "time.spacing", ("uniform", "geometric"), "uniform")
        if horizon == np.inf:
            # no finite grid spans it; simulate and reconstruct ask for time.grid
            return np.empty(0)
        if spacing == "uniform":
            times = horizon * np.arange(1, samples + 1) / samples
        elif samples == 1:
            times = np.array([horizon])
        else:
            # geometric spacing clusters samples early, where the fast modes live
            ratio = (1.0 / samples ** 2) ** (1.0 / (samples - 1))
            times = horizon * ratio ** np.arange(samples - 1, -1, -1)
    if not np.all(np.diff(times) > 0) or times[0] < 0 or times[-1] > horizon * (1 + 1e-12):
        raise ScenarioError(
            'key "time.grid" must be strictly increasing within [0, horizon]')
    return times


def parse_scenario(text: str) -> Scenario:
    entries = _parse_lines(text)
    reader = _Reader(entries)

    kind = reader.require("domain.kind")
    if kind not in ("interval", "rectangle"):
        raise ScenarioError(
            f'key "domain.kind" must be interval or rectangle, got {kind!r}')
    if kind == "interval":
        length = _scalar(reader, "domain.length", 1.0)
        if "domain.lengths" in entries:
            raise ScenarioError('key "domain.lengths" is for rectangle domains; '
                                'use "domain.length"')
        domain = Domain.interval(length)
    else:
        lengths = [float(v) for v in _numbers(reader, "domain.lengths") or (1, 1)]
        if len(lengths) != 2:
            raise ScenarioError('key "domain.lengths" needs exactly 2 numbers')
        if "domain.length" in entries:
            raise ScenarioError('key "domain.length" is for interval domains; '
                                'use "domain.lengths"')
        domain = Domain.rectangle(*lengths)

    bounds_values = _numbers(reader, "region.bounds", required=True)
    if len(bounds_values) != 2 * domain.dim:
        raise ScenarioError(
            f'key "region.bounds" needs {2 * domain.dim} numbers for a '
            f"{domain.dim}D domain, got {len(bounds_values)}")
    region = Subregion(tuple((bounds_values[2 * a], bounds_values[2 * a + 1])
                             for a in range(domain.dim))).validate_in(domain)

    truncation = _scalar(reader, "basis.truncation", kind="int", minimum=1)
    if truncation is None:
        raise ScenarioError('missing required key "basis.truncation" (truncation)')
    adaptation = _choice(reader, "basis.adaptation", ("global", "subregion"), "global")
    basis = build_basis(domain, truncation,
                        adapted_to=region if adaptation == "subregion" else None)

    sensors = _parse_sensors(reader, domain)

    # the one key that may be infinite: an unbounded measurement window
    infinite = reader.get("horizon", "").lower().removeprefix("+") in ("inf", "infinity")
    horizon = math.inf if infinite else _scalar(reader, "horizon", 1.0)
    if not horizon > 0:
        raise ScenarioError('key "horizon" must be positive')
    times = _build_times(reader, horizon)

    signature_mode = _choice(reader, "signature_mode", ("gradient", "state"), "gradient")

    tolerances = {
        "rank": _scalar(reader, "tolerance.rank", DEFAULT_RANK_RTOL),
        "grouping": _scalar(reader, "tolerance.grouping", DEFAULT_GROUPING_RTOL),
        "margin": _scalar(reader, "tolerance.margin", DEFAULT_MARGIN_TOL),
        "blind": _scalar(reader, "tolerance.blind", DEFAULT_BLIND_TOL),
        "identifiability": _scalar(reader, "tolerance.identifiability",
                                   DEFAULT_IDENTIFIABILITY_TOL),
    }
    for name, value in tolerances.items():
        if not value > 0:
            raise ScenarioError(f'key "tolerance.{name}" must be strictly positive')

    order = _scalar(reader, "quadrature.order", DEFAULT_ORDER, kind="int", minimum=2)
    panels = _scalar(reader, "quadrature.panels", kind="int", minimum=1)
    quad = QuadratureSpec(order=order, panels=panels)

    noise_std = _scalar(reader, "noise.stddev", 0.0, minimum=0.0)
    noise_seed = _scalar(reader, "noise.seed", 0, kind="int")

    coeffs = _numbers(reader, "initial.coefficients")
    initial = None
    if coeffs is not None:
        values = [float(v) for v in coeffs]
        if len(values) > basis.n_modes:
            raise ScenarioError(
                f'key "initial.coefficients" has {len(values)} entries, basis has '
                f"{basis.n_modes} modes")
        initial = np.zeros(basis.n_modes)
        initial[:len(values)] = values

    regularization = _choice(reader, "regularization.kind",
                             ("none", "tikhonov", "discrepancy"), "tikhonov")
    reg_value = _scalar(reader, "regularization.value", 1e-10, minimum=0.0)

    scan_grid = reader.get("scan.grid")

    unknown = reader.leftover()
    if unknown:
        key = unknown[0]
        raise ScenarioError(f'line {entries[key][1]}: unknown key "{key}"')

    echo = tuple(sorted((k, v) for k, (v, _) in entries.items()))
    return Scenario(
        domain=domain, region=region, basis=basis, sensors=tuple(sensors),
        horizon=horizon, times=times, signature_mode=signature_mode,
        rank_rtol=tolerances["rank"], grouping_rtol=tolerances["grouping"],
        margin_tol=tolerances["margin"], blind_tol=tolerances["blind"],
        identifiability_tol=tolerances["identifiability"], quad=quad,
        noise_std=noise_std, noise_seed=noise_seed, initial_coeffs=initial,
        regularization=regularization, reg_value=reg_value,
        scan_grid=scan_grid, echo=echo)


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc}") from None
    return parse_scenario(text)
