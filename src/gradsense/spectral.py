"""Dirichlet Laplacian eigenbases on intervals and rectangles.

Provides the truncated sine eigenbasis (globally on the domain, or adapted
to a subregion), diffusion semigroup propagation of modal coefficients,
analytic gradients, and quadrature-backed Gram matrices of gradient traces
over subregions.  Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ComputationError, ValidationError
from .quadrature import QuadratureSpec, interval_rule

Mode = int | tuple[int, int]


def _as_float(x) -> float:
    # Fractions are carried around for exact membership tests; numerics use float.
    if isinstance(x, numbers.Real):
        return float(x)
    raise ValidationError(f"expected a real number, got {x!r}")


@dataclass(frozen=True)
class Domain:
    """Open interval (0, L) or open rectangle (0, L1) x (0, L2)."""

    kind: str
    lengths: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("interval", "rectangle"):
            raise ValidationError(f"unknown domain kind {self.kind!r}")
        expected = 1 if self.kind == "interval" else 2
        if len(self.lengths) != expected:
            raise ValidationError(
                f"{self.kind} domain needs {expected} length(s), got {len(self.lengths)}")
        if any(not (L > 0) for L in self.lengths):
            raise ValidationError(f"domain lengths must be positive, got {self.lengths}")

    @staticmethod
    def interval(length: float = 1.0) -> "Domain":
        return Domain("interval", (float(length),))

    @staticmethod
    def rectangle(length1: float = 1.0, length2: float = 1.0) -> "Domain":
        return Domain("rectangle", (float(length1), float(length2)))

    @property
    def dim(self) -> int:
        return len(self.lengths)

    def contains(self, point, strict: bool = False) -> bool:
        return bool(self.contains_points(point_array(point, self.dim)[None, :], strict)[0])

    def contains_points(self, points: np.ndarray, strict: bool = False) -> np.ndarray:
        """Row-wise ``contains`` for an (n, dim) array of points."""
        lengths = np.asarray(self.lengths, dtype=float)
        if strict:
            return np.all((points > 0.0) & (points < lengths), axis=1)
        return np.all((points >= 0.0) & (points <= lengths), axis=1)


@dataclass(frozen=True)
class Subregion:
    """Axis-aligned open sub-box of a domain, one (lo, hi) pair per axis.

    Bounds given as Fractions are kept exact; the closed-form placement
    checks use them, all numerics go through ``float_bounds``.
    """

    bounds: tuple[tuple[float | Fraction, float | Fraction], ...]

    def __post_init__(self):
        if len(self.bounds) not in (1, 2):
            raise ValidationError(f"subregion needs 1 or 2 bound pairs, got {len(self.bounds)}")
        for lo, hi in self.float_bounds:
            if not lo < hi:
                raise ValidationError(f"empty subregion side ({lo}, {hi})")

    @staticmethod
    def interval(lo, hi) -> "Subregion":
        return Subregion(((lo, hi),))

    @staticmethod
    def rectangle(lo1, hi1, lo2, hi2) -> "Subregion":
        return Subregion(((lo1, hi1), (lo2, hi2)))

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def float_bounds(self) -> tuple[tuple[float, float], ...]:
        return tuple((_as_float(lo), _as_float(hi)) for lo, hi in self.bounds)

    def validate_in(self, domain: Domain) -> "Subregion":
        if self.dim != domain.dim:
            raise ValidationError(
                f"subregion dimension {self.dim} does not match domain dimension {domain.dim}")
        for (lo, hi), L in zip(self.float_bounds, domain.lengths):
            if lo < 0.0 or hi > L:
                raise ValidationError(
                    f"subregion side ({lo}, {hi}) not inside domain side (0, {L})")
        return self

    def measure(self) -> float:
        out = 1.0
        for lo, hi in self.float_bounds:
            out *= hi - lo
        return out

    def covers(self, domain: Domain, tol: float = 1e-12) -> bool:
        return all(lo <= tol and hi >= L - tol
                   for (lo, hi), L in zip(self.float_bounds, domain.lengths))

    def contains(self, point, tol: float = 0.0) -> bool:
        p = point_array(point, self.dim)
        return all(lo - tol <= x <= hi + tol
                   for x, (lo, hi) in zip(p, self.float_bounds))


def point_array(point, dim: int) -> np.ndarray:
    if dim == 1 and isinstance(point, numbers.Real):
        return np.array([_as_float(point)])
    p = np.asarray([_as_float(c) for c in np.atleast_1d(np.asarray(point, dtype=object))])
    if p.shape != (dim,):
        raise ValidationError(f"expected a {dim}-dimensional point, got {point!r}")
    return p


@dataclass(frozen=True, eq=False)
class ModalBasis:
    """Truncated Dirichlet sine eigenbasis.

    ``modes`` holds 1-based indices (ints in 1D, (i, j) pairs in 2D) sorted
    by eigenvalue, closest to zero first.  When ``adapted_to`` is set the
    sine factors are referenced to that subregion's sides instead of the
    whole domain, and the formulas are evaluated as written anywhere in the
    closed domain.
    """

    domain: Domain
    truncation: int
    modes: tuple[Mode, ...]
    eigenvalues: np.ndarray
    adapted_to: Subregion | None = None

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def axis_interval(self, axis: int) -> tuple[float, float]:
        """Reference interval (offset, span) of the sine factor on an axis."""
        if self.adapted_to is not None:
            lo, hi = self.adapted_to.float_bounds[axis]
            return lo, hi - lo
        return 0.0, self.domain.lengths[axis]

    def mode_axis_indices(self, axis: int) -> np.ndarray:
        if self.dim == 1:
            return np.asarray(self.modes, dtype=int)
        return np.asarray([m[axis] for m in self.modes], dtype=int)

    @functools.cached_property
    def _positions(self) -> dict[Mode, int]:
        return {m: k for k, m in enumerate(self.modes)}

    def index_of(self, mode: Mode) -> int:
        key = tuple(mode) if self.dim == 2 and not isinstance(mode, int) else mode
        try:
            return self._positions[key]
        except (KeyError, TypeError):
            raise ValidationError(f"unknown mode {mode!r} for this basis") from None


def build_basis(domain: Domain, truncation: int,
                adapted_to: Subregion | None = None) -> ModalBasis:
    """Construct the truncated eigenbasis.

    In 1D the modes are n = 1..truncation; in 2D the full tensor grid
    1 <= i, j <= truncation.  Eigenvalues are -pi^2 * sum_k (index_k / span_k)^2
    with span_k the domain side (global) or the adapted subregion side.
    """
    if not isinstance(truncation, int) or truncation < 1:
        raise ValidationError(f"truncation must be a positive integer, got {truncation!r}")
    if adapted_to is not None:
        adapted_to.validate_in(domain)

    spans = ([hi - lo for lo, hi in adapted_to.float_bounds] if adapted_to is not None
             else list(domain.lengths))
    if domain.dim == 1:
        modes: list[Mode] = list(range(1, truncation + 1))
        eigenvalues = np.array([-(n * math.pi / spans[0]) ** 2 for n in modes])
    else:
        modes = [(i, j) for i in range(1, truncation + 1) for j in range(1, truncation + 1)]
        eigenvalues = np.array([
            -math.pi ** 2 * ((i / spans[0]) ** 2 + (j / spans[1]) ** 2) for i, j in modes])

    # descending eigenvalue (closest to zero first), mode index as tie-break
    order = sorted(range(len(modes)), key=lambda k: (-eigenvalues[k], modes[k]))
    modes = [modes[k] for k in order]
    eigenvalues = eigenvalues[order]
    return ModalBasis(domain=domain, truncation=truncation,
                      modes=tuple(modes), eigenvalues=eigenvalues,
                      adapted_to=adapted_to)


def _axis_sines(basis: ModalBasis, axis: int, x: np.ndarray,
                indices: np.ndarray) -> np.ndarray:
    """Matrix of sqrt(2/span) * sin(i pi (x - offset)/span), shape (len(indices), len(x))."""
    offset, span = basis.axis_interval(axis)
    phase = np.outer(indices, (x - offset) * (math.pi / span))
    return math.sqrt(2.0 / span) * np.sin(phase)


def _axis_cosines(basis: ModalBasis, axis: int, x: np.ndarray,
                  indices: np.ndarray) -> np.ndarray:
    """Derivatives of the axis sine factors at the same points."""
    offset, span = basis.axis_interval(axis)
    phase = np.outer(indices, (x - offset) * (math.pi / span))
    scale = math.sqrt(2.0 / span) * (indices * (math.pi / span))
    return scale[:, None] * np.cos(phase)


def eigenfunction_values(basis: ModalBasis, points: np.ndarray) -> np.ndarray:
    """Evaluate every basis function at points of shape (n_pts, dim)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if basis.dim == 1:
        return _axis_sines(basis, 0, pts[:, 0], basis.mode_axis_indices(0))
    sx = _axis_sines(basis, 0, pts[:, 0], basis.mode_axis_indices(0))
    sy = _axis_sines(basis, 1, pts[:, 1], basis.mode_axis_indices(1))
    return sx * sy


def eigenfunction_gradients(basis: ModalBasis, points: np.ndarray) -> np.ndarray:
    """Partial derivatives of every basis function, shape (n_modes, dim, n_pts)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if basis.dim == 1:
        d = _axis_cosines(basis, 0, pts[:, 0], basis.mode_axis_indices(0))
        return d[:, None, :]
    ix = basis.mode_axis_indices(0)
    iy = basis.mode_axis_indices(1)
    sx = _axis_sines(basis, 0, pts[:, 0], ix)
    sy = _axis_sines(basis, 1, pts[:, 1], iy)
    dx = _axis_cosines(basis, 0, pts[:, 0], ix)
    dy = _axis_cosines(basis, 1, pts[:, 1], iy)
    return np.stack([dx * sy, sx * dy], axis=1)


def coefficient_vector(basis: ModalBasis, coeffs) -> np.ndarray:
    """``coeffs`` as a float array, checked to hold one entry per basis mode."""
    a = np.asarray(coeffs, dtype=float)
    if a.shape != (basis.n_modes,):
        raise ValidationError(
            f"coefficient vector has length {a.shape}, basis has {basis.n_modes} modes")
    return a


def tensor_points(axes: list[np.ndarray]) -> np.ndarray:
    """Cartesian product of per-axis nodes as (n, dim) points, last axis fastest."""
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def box_rule(basis: ModalBasis, bounds, quad: QuadratureSpec | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule over a box, panels sized per side for the basis."""
    rules = [interval_rule(lo, hi, basis.truncation * (hi - lo) / basis.axis_interval(axis)[1],
                           quad) for axis, (lo, hi) in enumerate(bounds)]
    weights = tensor_points([w for _, w in rules]).prod(axis=1)
    return tensor_points([x for x, _ in rules]), weights


def _closed_point(basis: ModalBasis, point) -> np.ndarray:
    """``point`` as a (1, dim) array, checked to lie in the closed domain."""
    p = point_array(point, basis.dim)
    if not basis.domain.contains(p):
        raise ValidationError(f"point {point!r} lies outside the closed domain")
    return p[None, :]


def eval_eigenfunction(basis: ModalBasis, mode: Mode, point) -> float:
    """Analytic value of one eigenfunction at a point of the closed domain."""
    p = _closed_point(basis, point)
    return float(eigenfunction_values(basis, p)[basis.index_of(mode), 0])


def eval_eigenfunction_gradient(basis: ModalBasis, mode: Mode, point) -> np.ndarray:
    """Analytic gradient of one eigenfunction, one component per axis."""
    p = _closed_point(basis, point)
    return eigenfunction_gradients(basis, p)[basis.index_of(mode), :, 0].copy()


def propagate(basis: ModalBasis, coeffs: np.ndarray, t: float) -> np.ndarray:
    """Diffusion semigroup in modal coordinates: a_m -> exp(lambda_m t) a_m."""
    if t < 0:
        raise ValidationError(f"propagation time must be nonnegative, got {t}")
    return coefficient_vector(basis, coeffs) * np.exp(basis.eigenvalues * t)


def _axis_region(basis: ModalBasis, region: Subregion | None, axis: int
                 ) -> tuple[float, float]:
    if region is None:
        return 0.0, basis.domain.lengths[axis]
    return region.float_bounds[axis]


def _axis_grams(basis: ModalBasis, region: Subregion | None, axis: int,
                quad: QuadratureSpec | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis Gram matrices of the sine factors and of their derivatives.

    Returns (indices, value_gram, derivative_gram) over the region's side on
    this axis, for the distinct axis indices appearing in the basis.
    """
    lo, hi = _axis_region(basis, region, axis)
    _, span = basis.axis_interval(axis)
    indices = np.unique(basis.mode_axis_indices(axis))
    cycles = 2.0 * indices.max() * (hi - lo) / span
    x, w = interval_rule(lo, hi, cycles, quad)
    s = _axis_sines(basis, axis, x, indices)
    d = _axis_cosines(basis, axis, x, indices)
    return indices, (s * w) @ s.T, (d * w) @ d.T


def gradient_gram(basis: ModalBasis, region: Subregion | None = None,
                  quad: QuadratureSpec | None = None) -> np.ndarray:
    """Gram matrix of the gradient traces on a subregion.

    W[m, m'] = sum_k  integral over the region of  d(phi_m)/dx_k * d(phi_m')/dx_k.
    ``region=None`` integrates over the whole domain.  The result is symmetric
    positive semidefinite by construction; symmetry is enforced exactly.
    """
    if region is not None:
        region.validate_in(basis.domain)
        if region.measure() <= 0:
            raise ValidationError("subregion has zero measure")
    if basis.dim == 1:
        idx, _, dgram = _axis_grams(basis, region, 0, quad)
        pos = np.searchsorted(idx, basis.mode_axis_indices(0))
        W = dgram[np.ix_(pos, pos)]
    else:
        ix1, v1, d1 = _axis_grams(basis, region, 0, quad)
        ix2, v2, d2 = _axis_grams(basis, region, 1, quad)
        p1 = np.searchsorted(ix1, basis.mode_axis_indices(0))
        p2 = np.searchsorted(ix2, basis.mode_axis_indices(1))
        W = (d1[np.ix_(p1, p1)] * v2[np.ix_(p2, p2)]
             + v1[np.ix_(p1, p1)] * d2[np.ix_(p2, p2)])
    return 0.5 * (W + W.T)


@dataclass(frozen=True, eq=False)
class GradientField:
    """Sampled vector field: points (n_pts, dim), values (n_pts, dim).

    ``weights`` are quadrature weights when the sample grid supports
    integration; without them the field cannot be normed.
    """

    points: np.ndarray
    values: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.values.shape != self.points.shape:
            raise ValidationError(
                f"field values shape {self.values.shape} does not match "
                f"points shape {self.points.shape}")


def norm_on_region(basis: ModalBasis, field, region: Subregion | None = None,
                   quad: QuadratureSpec | None = None) -> float:
    """L2 norm of a gradient-type vector field over a region.

    ``field`` is either a modal coefficient vector (the field is the
    coefficient combination of basis gradients, normed through the gradient
    Gram matrix) or a GradientField carrying its own quadrature weights.
    """
    if isinstance(field, GradientField):
        if field.weights is None:
            raise ValidationError("GradientField has no quadrature weights to integrate with")
        square = float(np.sum(field.weights * np.sum(field.values ** 2, axis=1)))
    else:
        a = coefficient_vector(basis, field)
        square = float(a @ gradient_gram(basis, region, quad) @ a)
    if math.isnan(square):
        raise ComputationError("gradient norm is not a number; the field is not finite")
    return math.sqrt(max(0.0, square))
