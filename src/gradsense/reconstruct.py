"""Initial-gradient recovery from measurement series.

Modal least squares on the truncated basis: the design matrix pairs each
(sensor, sample time) with exp(lambda_m t) times the chosen signature of
mode m.  Columns whose norm falls below the identifiability threshold are
dropped and their coefficients pinned to zero, so blind modes degrade the
answer instead of failing it.  One thin SVD of the equilibrated design
drives every solve: Tikhonov is the filter s / (s^2 + lam) on its singular
values, and the discrepancy principle is a scalar search for lam on the
closed-form filtered residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ValidationError
from .quadrature import QuadratureSpec
from .sensors import MeasurementSeries, Sensor, signature_matrix
from .spectral import (
    GradientField,
    Mode,
    ModalBasis,
    Subregion,
    box_rule,
    coefficient_vector,
    eigenfunction_gradients,
    norm_on_region,
    tensor_points,
)

DEFAULT_IDENTIFIABILITY_TOL = 1e-8
REGULARIZATIONS = ("none", "tikhonov", "discrepancy")


def design_matrix(basis: ModalBasis, sensors: list[Sensor], times: np.ndarray,
                  signature_mode: str, quad: QuadratureSpec | None = None) -> np.ndarray:
    """Rows ordered sensor-major to match MeasurementSeries.values.ravel()."""
    sig = signature_matrix(basis, sensors, signature_mode, quad)  # (q, N)
    decay = np.exp(np.outer(np.asarray(times, dtype=float), basis.eigenvalues))  # (M, N)
    return (sig[:, None, :] * decay[None, :, :]).reshape(-1, basis.n_modes)


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Estimated modal coefficients plus solve diagnostics."""

    coefficients: np.ndarray
    unidentifiable_modes: tuple[Mode, ...]
    column_norms: np.ndarray
    residual_norm: float
    condition_number: float
    regularization: str
    reg_value: float
    signature_mode: str


def estimate_coefficients(measurements: MeasurementSeries, basis: ModalBasis,
                          sensors: list[Sensor], signature_mode: str = "state",
                          regularization: str = "tikhonov", reg_value: float = 1e-10,
                          identifiability_tol: float = DEFAULT_IDENTIFIABILITY_TOL,
                          quad: QuadratureSpec | None = None) -> ReconstructionResult:
    """Least-squares estimate of the initial modal coefficients.

    signature_mode "state" inverts the physical output pairing; "gradient"
    inverts the adjoint-gradient pairing instead, in which case modes blind
    to every sensor's gradient reading come back flagged and zeroed.

    regularization: "none", "tikhonov" (reg_value is the penalty weight),
    or "discrepancy" (reg_value is the per-sample noise level; the penalty
    is grown until the residual matches it).
    """
    if regularization not in REGULARIZATIONS:
        raise ValidationError(
            f"unknown regularization {regularization!r}; choose from {REGULARIZATIONS}")
    if not sensors:
        raise ValidationError("empty sensor list")
    if measurements.n_sensors != len(sensors):
        raise ValidationError(
            f"measurement series has {measurements.n_sensors} rows "
            f"but {len(sensors)} sensors were given")
    y = measurements.values.ravel()
    if y.size == 0:
        raise ValidationError("empty measurements")

    Phi = design_matrix(basis, sensors, measurements.times, signature_mode, quad)
    norms = np.linalg.norm(Phi, axis=0)
    identifiable = norms > identifiability_tol
    if not np.any(identifiable):
        raise ValidationError(
            "all design-matrix columns are degenerate; no mode is identifiable")

    # column equilibration keeps the solve accurate despite the decay spread
    scale = norms[identifiable]
    equilibrated = Phi[:, identifiable] / scale

    # one thin SVD gives the condition number and every solve
    U, s, Vt = np.linalg.svd(equilibrated, full_matrices=False)
    condition = float(s[0] / s[-1]) if s[-1] > 0 else math.inf
    cut = np.finfo(float).eps * max(equilibrated.shape) * s[0]
    c = U.T @ y
    if regularization == "discrepancy":
        penalty = _discrepancy_penalty(y, U, s, cut, c, reg_value)
    else:
        penalty = reg_value if regularization == "tikhonov" else 0.0
    z = Vt.T @ (_filter_factors(s, cut, penalty) * c)

    coeffs = np.zeros(basis.n_modes)
    coeffs[identifiable] = z / scale
    residual = float(np.linalg.norm(Phi @ coeffs - y))
    flagged = tuple(m for m, ok in zip(basis.modes, identifiable) if not ok)
    return ReconstructionResult(
        coefficients=coeffs,
        unidentifiable_modes=flagged,
        column_norms=norms,
        residual_norm=residual,
        condition_number=condition,
        regularization=regularization,
        reg_value=reg_value,
        signature_mode=signature_mode)


def _filter_factors(s: np.ndarray, cut: float, lam: float) -> np.ndarray:
    """Tikhonov filter s / (s^2 + lam) on the singular values s.

    At lam = 0 it is the pseudo-inverse 1 / s with the cut lstsq(rcond=None)
    makes: singular values at or below ``cut`` count as zero.  A positive
    lam already damps small s to about s / lam, so nothing is cut.
    """
    return np.divide(s, s * s + lam, out=np.zeros_like(s), where=s > (cut if lam == 0 else 0))


def _discrepancy_penalty(y: np.ndarray, U: np.ndarray, s: np.ndarray, cut: float,
                         c: np.ndarray, noise_level: float) -> float:
    """Morozov principle: grow the penalty until the residual hits the noise.

    The residual is closed form: component i of c = U^T y keeps 1 - s_i f_i
    of itself, and the part of y outside the range of U is always left.
    """
    if noise_level < 0:
        raise ValidationError(f"noise level must be nonnegative, got {noise_level}")
    target = noise_level * math.sqrt(y.size)
    outside = float(np.sum((y - U @ c) ** 2))

    def residual(lam: float) -> float:
        kept = (1.0 - s * _filter_factors(s, cut, lam)) * c
        return math.sqrt(outside + float(np.sum(kept ** 2)))

    if target == 0.0 or residual(0.0) >= target:
        return 0.0
    lo, hi = -16.0, 6.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if residual(10.0 ** mid) < target:
            lo = mid
        else:
            hi = mid
    return 10.0 ** lo


def gradient_field_on_region(basis: ModalBasis, coeffs: np.ndarray, region: Subregion,
                             grid: int | np.ndarray | str = "quadrature",
                             quad: QuadratureSpec | None = None) -> GradientField:
    """Sample the coefficient combination of basis gradients over a region.

    grid: "quadrature" uses the region's composite Gauss-Legendre nodes and
    carries their weights, so the field can be normed; an integer requests
    that many uniformly spaced interior points per axis; an explicit array
    of points is used as given.  Points outside the region are rejected.
    """
    region.validate_in(basis.domain)
    a = coefficient_vector(basis, coeffs)
    weights = None
    if isinstance(grid, str):
        if grid != "quadrature":
            raise ValidationError(f"unknown grid spec {grid!r}")
        points, weights = box_rule(basis, region.float_bounds, quad)
    elif isinstance(grid, int):
        if grid < 1:
            raise ValidationError(f"grid point count must be >= 1, got {grid}")
        points = tensor_points([np.linspace(lo, hi, grid + 2)[1:-1]
                                for lo, hi in region.float_bounds])
    else:
        points = np.atleast_2d(np.asarray(grid, dtype=float))
        if points.shape[1] != basis.dim:
            raise ValidationError(
                f"grid points have {points.shape[1]} coordinates, basis dimension is {basis.dim}")
        for p in points:
            if not region.contains(p, tol=1e-12):
                raise ValidationError(f"grid point {tuple(p)} lies outside the region")

    grads = eigenfunction_gradients(basis, points)        # (N, dim, n_pts)
    values = np.einsum("m,mdp->pd", a, grads)
    return GradientField(points=points, values=values, weights=weights)


@dataclass(frozen=True)
class ErrorRecord:
    """Gradient reconstruction error over the region and the whole domain."""

    err_region: float
    err_domain: float

    @property
    def restriction_ok(self) -> bool:
        return self.err_region <= self.err_domain + 1e-12


def reconstruction_error(true_coeffs: np.ndarray, est_coeffs: np.ndarray,
                         basis: ModalBasis, region: Subregion,
                         quad: QuadratureSpec | None = None) -> ErrorRecord:
    """L2 gradient error of the estimate, restricted and unrestricted."""
    e = coefficient_vector(basis, true_coeffs) - coefficient_vector(basis, est_coeffs)
    region.validate_in(basis.domain)
    err_region = norm_on_region(basis, e, region, quad)
    err_domain = norm_on_region(basis, e, None, quad)
    record = ErrorRecord(err_region=err_region, err_domain=err_domain)
    if not record.restriction_ok:
        raise ComputationError(
            f"restriction inequality violated: {err_region} > {err_domain}; "
            "quadrature resolution is insufficient")
    return record
