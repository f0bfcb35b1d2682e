"""Sensor geometries, output signatures, and forward simulation.

A sensor pairs a spatial support with a measurement weight.  Its state
signature against a modal basis is the coefficient the sensor reads off
each eigenfunction; its gradient signature is the corresponding read-off
of the summed eigenfunction partial derivatives.  Simulated outputs are
modal sums weighted by the semigroup decay factors and state signatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .quadrature import QuadratureSpec, interval_rule
from .spectral import (
    Domain,
    ModalBasis,
    _as_float,
    box_rule,
    coefficient_vector,
    eigenfunction_gradients,
    eigenfunction_values,
)

ZONAL_WEIGHTS = ("uniform", "bump", "tabulated")


@dataclass(frozen=True)
class PointwiseSensor:
    """Dirac measurement at a single interior location.

    Coordinates may be Fractions; exact values are preserved for the
    rational membership tests and converted to float for numerics.
    """

    location: tuple[float | Fraction, ...]

    kind = "pointwise"

    @property
    def position(self) -> np.ndarray:
        return np.array([_as_float(c) for c in self.location])


@dataclass(frozen=True)
class ZonalSensor:
    """Weighted integral over an axis-aligned box.

    weight: "uniform" (f = 1 on the box), "bump" (separable raised-cosine,
    symmetric about the box center, vanishing on the box edges), or
    "tabulated" (values supplied on this sensor's quadrature node grid in
    C order, first axis slowest).
    """

    box: tuple[tuple[float, float], ...]
    weight: str = "uniform"
    weight_values: tuple[float, ...] | None = None

    kind = "zonal"


@dataclass(frozen=True)
class FilamentSensor:
    """Line integral along a polyline, with a scalar weight."""

    points: tuple[tuple[float, float], ...]
    weight: float = 1.0

    kind = "filament"

    def segments(self) -> list[tuple[np.ndarray, np.ndarray]]:
        pts = [np.asarray(p, dtype=float) for p in self.points]
        return [(pts[k], pts[k + 1]) for k in range(len(pts) - 1)]


Sensor = PointwiseSensor | ZonalSensor | FilamentSensor


def validate_sensor(sensor: Sensor, domain: Domain) -> Sensor:
    """Check a sensor's geometry against the domain, returning it unchanged."""
    if isinstance(sensor, PointwiseSensor):
        if len(sensor.location) != domain.dim:
            raise ValidationError(
                f"pointwise sensor has {len(sensor.location)} coordinates, "
                f"domain is {domain.dim}-dimensional")
        if not domain.contains(sensor.position, strict=True):
            raise ValidationError(
                f"pointwise sensor at {sensor.location} is outside the domain")
        return sensor
    if isinstance(sensor, ZonalSensor):
        if len(sensor.box) != domain.dim:
            raise ValidationError(
                f"zonal sensor box has {len(sensor.box)} sides, "
                f"domain is {domain.dim}-dimensional")
        for (lo, hi), L in zip(sensor.box, domain.lengths):
            if not lo < hi:
                raise ValidationError(f"zonal sensor has an empty side ({lo}, {hi})")
            if lo < 0 or hi > L:
                raise ValidationError(
                    f"zonal sensor side ({lo}, {hi}) is outside the domain side (0, {L})")
        if sensor.weight not in ZONAL_WEIGHTS:
            raise ValidationError(
                f"unknown zonal weight {sensor.weight!r}; choose from {ZONAL_WEIGHTS}")
        if sensor.weight == "tabulated" and not sensor.weight_values:
            raise ValidationError("tabulated zonal weight needs weight_values")
        return sensor
    if isinstance(sensor, FilamentSensor):
        if domain.dim != 2:
            raise ValidationError("filament sensors require a 2D domain")
        pts = [np.asarray(p, dtype=float) for p in sensor.points]
        if len(pts) < 2:
            raise ValidationError("filament sensor needs at least two curve points")
        if any(p.shape != (2,) for p in pts):
            raise ValidationError("filament curve points must be 2D coordinates")
        if all(np.allclose(pts[0], p) for p in pts[1:]):
            raise ValidationError("filament curve is degenerate (all points coincide)")
        for p in pts:
            if not domain.contains(p):
                raise ValidationError(f"filament curve point {tuple(p)} is outside the domain")
        return sensor
    raise ValidationError(f"unknown sensor type {type(sensor).__name__}")


def _zonal_weight_values(sensor: ZonalSensor, pts: np.ndarray) -> np.ndarray:
    if sensor.weight == "uniform":
        return np.ones(len(pts))
    if sensor.weight == "bump":
        out = np.ones(len(pts))
        for axis, (lo, hi) in enumerate(sensor.box):
            c = 0.5 * (lo + hi)
            out *= 0.5 * (1.0 + np.cos(2.0 * math.pi * (pts[:, axis] - c) / (hi - lo)))
        return out
    values = np.asarray(sensor.weight_values, dtype=float)
    if values.shape != (len(pts),):
        raise ValidationError(
            f"tabulated weight has {values.size} values but the quadrature "
            f"grid for this sensor has {len(pts)} nodes")
    return values


def _filament_nodes(basis: ModalBasis, sensor: FilamentSensor,
                    quad: QuadratureSpec | None) -> tuple[np.ndarray, np.ndarray]:
    """Arclength quadrature along the polyline: points (n, 2), weights (n,)."""
    min_span = min(basis.axis_interval(k)[1] for k in range(basis.dim))
    pts_list, w_list = [], []
    for a, b in sensor.segments():
        seg_len = float(np.linalg.norm(b - a))
        if seg_len == 0.0:
            continue
        cycles = basis.truncation * seg_len / min_span
        s, w = interval_rule(0.0, 1.0, cycles, quad)
        pts_list.append(a[None, :] + s[:, None] * (b - a)[None, :])
        w_list.append(w * seg_len)
    return np.vstack(pts_list), np.concatenate(w_list)


def sensor_nodes(basis: ModalBasis, sensor: Sensor,
                 quad: QuadratureSpec | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The sensor as a weighted node set: points (n, dim) and weights (n,).

    A sensor reads a field f as sum_k weights[k] f(points[k]).  Pointwise:
    the location with weight 1.  Zonal: the box's tensor rule times the
    zonal weight.  Filament: the arclength rule times the scalar weight.
    """
    validate_sensor(sensor, basis.domain)
    if isinstance(sensor, PointwiseSensor):
        return sensor.position[None, :], np.ones(1)
    if isinstance(sensor, ZonalSensor):
        pts, w = box_rule(basis, sensor.box, quad)
        return pts, w * _zonal_weight_values(sensor, pts)
    pts, w = _filament_nodes(basis, sensor, quad)
    return pts, w * sensor.weight


def state_signature(basis: ModalBasis, sensor: Sensor,
                    quad: QuadratureSpec | None = None) -> np.ndarray:
    """Per-mode reading of the eigenfunctions by the sensor.

    Pointwise: phi_m at the location.  Zonal: the L2(D) pairing of phi_m
    with the weight.  Filament: the arclength integral of phi_m times the
    scalar weight.
    """
    pts, w = sensor_nodes(basis, sensor, quad)
    return eigenfunction_values(basis, pts) @ w


def gradient_signature(basis: ModalBasis, sensor: Sensor,
                       quad: QuadratureSpec | None = None) -> np.ndarray:
    """Per-mode reading of the summed eigenfunction partial derivatives."""
    pts, w = sensor_nodes(basis, sensor, quad)
    return (eigenfunction_gradients(basis, pts) @ w).sum(axis=1)


def signature_matrix(basis: ModalBasis, sensors: list[Sensor], kind: str,
                     quad: QuadratureSpec | None = None) -> np.ndarray:
    """Stack signatures row per sensor: shape (n_sensors, n_modes)."""
    if kind not in ("state", "gradient"):
        raise ValidationError(f"unknown signature kind {kind!r}")
    signature = state_signature if kind == "state" else gradient_signature
    rows = [signature(basis, s, quad) for s in sensors]
    return np.vstack(rows) if rows else np.empty((0, basis.n_modes))


def pointwise_signatures(basis: ModalBasis, points: np.ndarray, kind: str) -> np.ndarray:
    """Signatures of pointwise sensors at the rows of ``points`` (C, dim).

    Returns (C, n_modes); row c equals the ``kind`` signature of a
    pointwise sensor at points[c], from one eigenfunction evaluation for
    all rows.  Every point must lie in the open domain.
    """
    if kind not in ("state", "gradient"):
        raise ValidationError(f"unknown signature kind {kind!r}")
    if points.ndim != 2 or points.shape[1] != basis.dim:
        raise ValidationError(
            f"expected an array of {basis.dim}-dimensional points, got shape {points.shape}")
    inside = basis.domain.contains_points(points, strict=True)
    if not inside.all():
        point = tuple(points[int(np.argmin(inside))].tolist())
        raise ValidationError(f"pointwise sensor at {point} is outside the domain")
    if kind == "state":
        return eigenfunction_values(basis, points).T
    return eigenfunction_gradients(basis, points).sum(axis=1).T


@dataclass(frozen=True, eq=False)
class MeasurementSeries:
    """Sensor outputs on a time grid: values has one row per sensor."""

    times: np.ndarray
    values: np.ndarray
    horizon: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size == 0:
            raise ValidationError("measurement series has an empty time grid")
        if not np.all(np.diff(t) > 0):
            raise ValidationError("time grid must be strictly increasing")
        if t[0] < 0 or t[-1] > self.horizon + 1e-12:
            raise ValidationError(
                f"time grid must lie within [0, {self.horizon}]")
        if self.values.ndim != 2 or self.values.shape[1] != t.size:
            raise ValidationError(
                f"values shape {self.values.shape} does not match {t.size} sample times")

    @property
    def n_sensors(self) -> int:
        return self.values.shape[0]


def simulate_output(basis: ModalBasis, coeffs: np.ndarray, sensors: list[Sensor],
                    times: np.ndarray, horizon: float | None = None,
                    noise_std: float = 0.0, seed: int = 0,
                    quad: QuadratureSpec | None = None) -> MeasurementSeries:
    """Forward-simulate sensor outputs from initial modal coefficients.

    y[i, j] = sum_m a_m exp(lambda_m t_j) s_m(i)  with state signatures s.
    Optional i.i.d. Gaussian noise is seeded explicitly so repeated runs
    are bit-identical.
    """
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        raise ValidationError("empty time grid")
    if not sensors:
        raise ValidationError("empty sensor list")
    a = coefficient_vector(basis, coeffs)
    T = float(horizon) if horizon is not None else float(t.max())
    sig = signature_matrix(basis, sensors, "state", quad)
    decay = np.exp(np.outer(basis.eigenvalues, t))       # (n_modes, M)
    values = sig @ (a[:, None] * decay)                  # (q, M)
    if noise_std > 0.0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_std, size=values.shape)
    return MeasurementSeries(times=t, values=values, horizon=T)

