"""Strategic-sensor tests: eigenvalue grouping, rank conditions, blind sets.

A sensor suite makes the gradient of the initial state recoverable on a
subregion exactly when, for every eigenvalue group, the matrix of sensor
gradient signatures over the group's modes has full column rank, and the
sensor count is at least the largest group multiplicity.  Up to the basis
truncation this module decides that rank condition numerically, decides
the 1D rational blind sets exactly, and evaluates the closed-form 2D
placement conditions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .quadrature import QuadratureSpec
from .sensors import (
    FilamentSensor,
    PointwiseSensor,
    Sensor,
    ZonalSensor,
    signature_matrix,
)
from .spectral import Mode, ModalBasis, Subregion, _as_float, gradient_gram

DEFAULT_RANK_RTOL = 1e-10
DEFAULT_GROUPING_RTOL = 1e-9
DEFAULT_BLIND_TOL = 1e-9


@dataclass(frozen=True)
class EigenGroup:
    """Modes sharing an eigenvalue within the grouping tolerance."""

    eigenvalue: float
    modes: tuple[Mode, ...]
    indices: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.modes)


def group_eigenvalues(basis: ModalBasis,
                      rel_tol: float = DEFAULT_GROUPING_RTOL) -> list[EigenGroup]:
    """Partition basis modes into eigenvalue groups.

    Modes join the current group while |lambda - lambda_rep| <= rel_tol *
    |lambda_rep|; groups come out sorted with eigenvalues closest to zero
    first, matching the basis ordering.
    """
    if not rel_tol > 0:
        raise ValidationError(f"grouping tolerance must be positive, got {rel_tol}")
    groups: list[EigenGroup] = []
    current: list[int] = []
    rep = None
    for k, lam in enumerate(basis.eigenvalues):
        if rep is not None and abs(lam - rep) <= rel_tol * abs(rep):
            current.append(k)
            continue
        if current:
            groups.append(_finish_group(basis, current))
        current = [k]
        rep = lam
    if current:
        groups.append(_finish_group(basis, current))
    return groups


def _finish_group(basis: ModalBasis, indices: list[int]) -> EigenGroup:
    return EigenGroup(
        eigenvalue=float(basis.eigenvalues[indices[0]]),
        modes=tuple(basis.modes[k] for k in indices),
        indices=tuple(indices))


@dataclass(frozen=True)
class GroupRecord:
    """Rank result for one eigenvalue group."""

    eigenvalue: float
    modes: tuple[Mode, ...]
    multiplicity: int
    rank: int
    passed: bool
    largest_singular_value: float
    smallest_kept_singular_value: float
    marginal: bool


@dataclass(frozen=True)
class StrategicVerdict:
    """Joint rank-test outcome for a sensor suite, both signature kinds.

    The numerical rank of each group's signature matrix counts singular
    values above rank_rtol times the largest singular value seen across
    all groups of the same kind; exact zeros contaminated only by float
    roundoff therefore do not count.  Verdicts hold up to the truncation.
    """

    sensor_count: int
    max_multiplicity: int
    truncation: int
    rank_rtol: float
    grouping_rtol: float
    gradient_records: tuple[GroupRecord, ...]
    state_records: tuple[GroupRecord, ...]
    gradient_strategic: bool
    state_strategic: bool
    gradient_reason: str
    state_reason: str
    first_failing_gradient: GroupRecord | None
    first_failing_state: GroupRecord | None
    per_sensor_gradient_strategic: tuple[bool, ...]
    any_member_gradient_strategic: bool
    marginal: bool


def _rank_records(groups: list[EigenGroup], sig: np.ndarray,
                  rank_rtol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Numerical rank of every group's signature block, for a batch of suites.

    ``sig`` has shape (B, q, n_modes): B suites of q sensors each.  One
    stacked SVD per group covers the whole batch.  Each suite's threshold
    is rank_rtol times the largest singular value over its own groups, so
    no suite's ranks depend on the rest of the batch.  Returns the ranks,
    largest and smallest kept singular values, each (B, n_groups), and the
    (B,) thresholds.
    """
    svals = [np.linalg.svd(sig[:, :, list(g.indices)], compute_uv=False) for g in groups]
    # each group's singular values, descending, side by side from column starts[j]
    starts = np.cumsum([0] + [s.shape[1] for s in svals[:-1]])
    svals = np.concatenate(svals, axis=1)
    largest = svals[:, starts]
    threshold = rank_rtol * largest.max(axis=1)
    rank = np.add.reduceat(svals > threshold[:, None], starts, axis=1, dtype=int)
    smallest = np.take_along_axis(svals, starts + np.maximum(rank - 1, 0), axis=1)
    return rank, largest, np.where(rank > 0, smallest, 0.0), threshold


def _suite_passes(groups: list[EigenGroup], rank: np.ndarray, q: int) -> np.ndarray:
    """A suite passes when q reaches the largest multiplicity and every
    group's block has full column rank; ``rank`` is (B, n_groups)."""
    multiplicity = np.array([g.multiplicity for g in groups])
    return np.all(rank == multiplicity, axis=1) & (q >= multiplicity.max())


def rank_verdicts(groups: list[EigenGroup], sig: np.ndarray,
                  rank_rtol: float) -> np.ndarray:
    """Rank-condition verdict of each suite in a (B, q, n_modes) signature batch."""
    return _suite_passes(groups, _rank_records(groups, sig, rank_rtol)[0], sig.shape[1])


def _group_records(groups: list[EigenGroup], sig: np.ndarray,
                   rank_rtol: float) -> tuple[list[GroupRecord], bool]:
    """Per-group rank records and the verdict of one suite with signature
    matrix (q, n_modes)."""
    rank, largest, smallest, threshold = _rank_records(groups, sig[None], rank_rtol)
    passed = bool(_suite_passes(groups, rank, sig.shape[0])[0])
    threshold = float(threshold[0])
    records = [GroupRecord(
        eigenvalue=g.eigenvalue,
        modes=g.modes,
        multiplicity=g.multiplicity,
        rank=r,
        passed=r == g.multiplicity,
        largest_singular_value=top,
        smallest_kept_singular_value=low,
        marginal=bool(r and low <= 10.0 * threshold),
    ) for g, r, top, low in zip(groups, rank[0].tolist(), largest[0].tolist(),
                                smallest[0].tolist())]
    return records, passed


def _verdict_side(records: list[GroupRecord], passed: bool, q: int,
                  r: int) -> tuple[str, GroupRecord | None]:
    """Reason for a suite's verdict and its first failing group, if any."""
    if passed:
        return "all groups reach full rank", None
    if q < r:
        return f"sensor count {q} is below the largest multiplicity {r}", None
    rec = next(rec for rec in records if not rec.passed)
    return (f"group at eigenvalue {rec.eigenvalue:.6g} has rank "
            f"{rec.rank} < multiplicity {rec.multiplicity}", rec)


def rank_test(basis: ModalBasis, sensors: list[Sensor],
              rank_rtol: float = DEFAULT_RANK_RTOL,
              grouping_rtol: float = DEFAULT_GROUPING_RTOL,
              quad: QuadratureSpec | None = None) -> StrategicVerdict:
    """Decide strategicness of a sensor suite up to the basis truncation.

    Runs the gradient-signature rank condition (the regional gradient
    test) and the state-signature analogue side by side.  Also evaluates
    each sensor alone in gradient mode, giving the one-strategic-member
    aggregation next to the joint verdict.
    """
    if not sensors:
        raise ValidationError("empty sensor list")
    groups = group_eigenvalues(basis, grouping_rtol)
    if not groups:
        raise ValidationError("basis produced no eigenvalue groups")
    q = len(sensors)
    r = max(g.multiplicity for g in groups)

    grad_sig = signature_matrix(basis, sensors, "gradient", quad)
    state_sig = signature_matrix(basis, sensors, "state", quad)
    grad_records, grad_ok = _group_records(groups, grad_sig, rank_rtol)
    state_records, state_ok = _group_records(groups, state_sig, rank_rtol)
    grad_reason, grad_fail = _verdict_side(grad_records, grad_ok, q, r)
    state_reason, state_fail = _verdict_side(state_records, state_ok, q, r)
    per_sensor = [bool(v) for v in rank_verdicts(groups, grad_sig[:, None, :], rank_rtol)]

    return StrategicVerdict(
        sensor_count=q,
        max_multiplicity=r,
        truncation=basis.truncation,
        rank_rtol=rank_rtol,
        grouping_rtol=grouping_rtol,
        gradient_records=tuple(grad_records),
        state_records=tuple(state_records),
        gradient_strategic=grad_ok,
        state_strategic=state_ok,
        gradient_reason=grad_reason,
        state_reason=state_reason,
        first_failing_gradient=grad_fail,
        first_failing_state=state_fail,
        per_sensor_gradient_strategic=tuple(per_sensor),
        any_member_gradient_strategic=any(per_sensor),
        marginal=any(rec.marginal for rec in grad_records + state_records),
    )


@dataclass(frozen=True)
class ForbiddenSetResult:
    """Membership of a 1D location in the blind-location sets.

    in_state_set: some mode's value vanishes at the location (the set of
    rationals k/n).  in_gradient_set: some mode's derivative vanishes (the
    odd-numerator half-rationals (2k+1)/(2n)).  Witnesses give (n, k).
    ``exact`` tells whether rational arithmetic decided the answer for all
    n; the numerical path only certifies n up to ``max_index``.
    """

    in_state_set: bool
    in_gradient_set: bool
    state_witness: tuple[int, int] | None
    gradient_witness: tuple[int, int] | None
    exact: bool
    max_index: int
    tol: float
    min_sine: float | None = None
    min_cosine: float | None = None


def _as_fraction(b) -> Fraction | None:
    if isinstance(b, Fraction):
        return b
    if isinstance(b, numbers.Integral):
        return Fraction(int(b))
    return None


def forbidden_sets_1d(b, max_index: int,
                      tol: float = DEFAULT_BLIND_TOL) -> ForbiddenSetResult:
    """Blind-set membership for a pointwise location on the unit interval.

    Locations given as Fractions are decided exactly: every rational is in
    the state set, and gradient-set membership holds exactly when the
    reduced denominator is even.  Floats are tested numerically through
    min over n <= max_index of |sin(n pi b)| and |cos(n pi b)|.
    """
    frac = _as_fraction(b)
    bf = float(frac) if frac is not None else float(b)
    if not 0.0 < bf < 1.0:
        raise ValidationError(f"location must lie strictly inside (0, 1), got {b!r}")
    if max_index < 1:
        raise ValidationError(f"max_index must be >= 1, got {max_index}")
    if frac is not None:
        # b = p/q is the state member k/n with n=q, k=p; for even q, p is
        # odd since p/q is reduced, so b is the gradient member (2k+1)/(2n)
        p, q = frac.numerator, frac.denominator
        even = q % 2 == 0
        return ForbiddenSetResult(
            in_state_set=True, in_gradient_set=even, state_witness=(q, p),
            gradient_witness=(q // 2, (p - 1) // 2) if even else None,
            exact=True, max_index=max_index, tol=tol)

    n = np.arange(1, max_index + 1)
    sines = np.abs(np.sin(n * math.pi * bf))
    cosines = np.abs(np.cos(n * math.pi * bf))
    state_hits = np.nonzero(sines <= tol)[0]
    grad_hits = np.nonzero(cosines <= tol)[0]
    state_witness = None
    gradient_witness = None
    if state_hits.size:
        nw = int(n[state_hits[0]])
        state_witness = (nw, int(round(nw * bf)))
    if grad_hits.size:
        nw = int(n[grad_hits[0]])
        gradient_witness = (nw, int(round(nw * bf - 0.5)))
    return ForbiddenSetResult(
        in_state_set=bool(state_hits.size),
        in_gradient_set=bool(grad_hits.size),
        state_witness=state_witness,
        gradient_witness=gradient_witness,
        exact=False, max_index=max_index, tol=tol,
        min_sine=float(sines.min()), min_cosine=float(cosines.min()))


@dataclass(frozen=True)
class ExactJointVerdict:
    """Exact strategic verdict for rational pointwise locations in 1D.

    Certified for every mode index, not just up to a truncation.  With
    b_i = p_i/q_i reduced, sin(n pi b_i) = 0 exactly when q_i | n, and
    cos(n pi b_i) = 0 exactly when q_i is even and n is an odd multiple of
    q_i/2.  The smallest common blind mode is therefore lcm(q_i) for the
    state test, and lcm(q_i/2) for the gradient test when every q_i is
    even with the same power of 2; otherwise no gradient-blind mode exists.
    ``period`` = lcm(2 q_i) is the period of the joint vanishing pattern.
    """

    state_strategic: bool
    gradient_strategic: bool
    state_witness: int | None
    gradient_witness: int | None
    period: int


def exact_pointwise_verdict_1d(locations: list[Fraction]) -> ExactJointVerdict:
    """Joint exact test for a suite of rational pointwise sensors on (0, 1).

    No rational suite is state strategic: every sine vanishes at
    n = lcm(q_i).  The suite fails the gradient test exactly when all
    reduced denominators q_i are even with equal powers of 2, and its first
    gradient-blind mode is then lcm(q_i/2) (see ExactJointVerdict).
    """
    if not locations:
        raise ValidationError("empty location list")
    fracs = []
    for b in locations:
        f = _as_fraction(b)
        if f is None or not 0 < f < 1:
            raise ValidationError(f"exact joint verdict needs rational locations in (0, 1), got {b!r}")
        fracs.append(f)
    denominators = [f.denominator for f in fracs]
    state_witness = math.lcm(*denominators)
    period = math.lcm(*(2 * q for q in denominators))
    # q & -q is the largest power of 2 dividing q; it is 1 for odd q
    two_powers = {q & -q for q in denominators}
    gradient_witness = None
    if len(two_powers) == 1 and two_powers != {1}:
        gradient_witness = math.lcm(*(q // 2 for q in denominators))
    return ExactJointVerdict(
        state_strategic=False,
        gradient_strategic=gradient_witness is None,
        state_witness=state_witness,
        gradient_witness=gradient_witness,
        period=period)


@dataclass(frozen=True)
class PairCondition:
    """Closed-form check at one index pair."""

    pair: tuple[int, int]
    axis_values: tuple[float, float]
    axis_integer: tuple[bool, bool]
    passed: bool


@dataclass(frozen=True)
class ClosedFormResult:
    """Outcome of the separable non-integrality placement conditions."""

    sensor_kind: str
    reference_point: tuple[float, float]
    truncation: int
    pairs: tuple[PairCondition, ...]
    all_pass: bool
    first_failure: PairCondition | None
    exact: tuple[bool, bool]
    tol: float


def _axis_ratio(index: int, coord, lo, hi, tol: float) -> tuple[float, bool, bool]:
    """index * (coord - lo) / (hi - lo); returns (value, is_integer, exact)."""
    cf, lof, hif = _as_fraction(coord), _as_fraction(lo), _as_fraction(hi)
    if cf is not None and lof is not None and hif is not None:
        v = index * (cf - lof) / (hif - lof)
        return float(v), (v.denominator == 1 and v >= 0), True
    v = index * (_as_float(coord) - _as_float(lo)) / (_as_float(hi) - _as_float(lo))
    return v, bool(v >= -tol and abs(v - round(v)) <= tol), False


def _filament_symmetry_center(sensor: FilamentSensor) -> tuple[float, float]:
    """Center of a polyline symmetric about an axis-parallel line.

    The reversed point sequence must equal the sequence reflected about
    the candidate line; the reference point is the arclength midpoint.
    """
    pts = np.asarray(sensor.points, dtype=float)
    spans = pts.max(axis=0) + pts.min(axis=0)
    for axis in range(2):
        reflected = pts.copy()
        reflected[:, axis] = spans[axis] - reflected[:, axis]
        if np.allclose(reflected[::-1], pts, atol=1e-9):
            return _arclength_midpoint(pts)
    raise ValidationError(
        "filament curve is not symmetric about an axis-parallel line; "
        "the closed-form condition does not apply")


def _arclength_midpoint(pts: np.ndarray) -> tuple[float, float]:
    seg = np.diff(pts, axis=0)
    lengths = np.linalg.norm(seg, axis=1)
    total = lengths.sum()
    target = 0.5 * total
    acc = 0.0
    for k, L in enumerate(lengths):
        if acc + L >= target:
            s = (target - acc) / L if L > 0 else 0.0
            p = pts[k] + s * seg[k]
            return float(p[0]), float(p[1])
        acc += L
    return float(pts[-1][0]), float(pts[-1][1])


def closed_form_condition(sensor: Sensor, region: Subregion, truncation: int,
                          tol: float = DEFAULT_BLIND_TOL) -> ClosedFormResult:
    """Evaluate the printed separable placement conditions on a rectangle.

    For each index pair (i, j) up to the truncation the condition passes
    when neither i*(c1 - a1)/(b1 - a1) nor j*(c2 - a2)/(b2 - a2) is a
    natural number, with c the sensor's reference point: the location for
    a pointwise sensor, the box center for a zonal sensor with a symmetric
    weight, the symmetry midpoint for a filament sensor.  Rational inputs
    are decided with exact arithmetic.

    Note these are the sine-type (state) vanishing conditions as printed;
    the numerical gradient rank test uses cosine-type zeros, and reports
    may flag disagreement rather than hide it.
    """
    if region.dim != 2:
        raise ValidationError("closed-form placement conditions require a 2D region")
    if truncation < 1:
        raise ValidationError(f"truncation must be >= 1, got {truncation}")
    if isinstance(sensor, PointwiseSensor):
        if len(sensor.location) != 2:
            raise ValidationError("closed-form condition needs a 2D pointwise sensor")
        ref: tuple = tuple(sensor.location)
    elif isinstance(sensor, ZonalSensor):
        if len(sensor.box) != 2:
            raise ValidationError("closed-form condition needs a 2D zonal sensor")
        if sensor.weight == "tabulated":
            raise ValidationError(
                "closed-form condition requires a weight symmetric about the box "
                "center; tabulated weights are not guaranteed symmetric")
        ref = tuple(_half_sum(lo, hi) for lo, hi in sensor.box)
    elif isinstance(sensor, FilamentSensor):
        ref = _filament_symmetry_center(sensor)
    else:
        raise ValidationError(f"unknown sensor type {type(sensor).__name__}")

    axis_checks = []
    exact_axes = []
    for axis in range(2):
        lo, hi = region.bounds[axis]
        checks = [_axis_ratio(k, ref[axis], lo, hi, tol)
                  for k in range(1, truncation + 1)]
        axis_checks.append(checks)
        exact_axes.append(all(exact for _, _, exact in checks))

    pairs = []
    first_failure = None
    for i, (v1, int1, _) in enumerate(axis_checks[0], start=1):
        for j, (v2, int2, _) in enumerate(axis_checks[1], start=1):
            cond = PairCondition(
                pair=(i, j), axis_values=(v1, v2),
                axis_integer=(int1, int2), passed=not int1 and not int2)
            pairs.append(cond)
            if first_failure is None and not cond.passed:
                first_failure = cond
    return ClosedFormResult(
        sensor_kind=sensor.kind,
        reference_point=(float(ref[0]), float(ref[1])),
        truncation=truncation,
        pairs=tuple(pairs),
        all_pass=first_failure is None,
        first_failure=first_failure,
        exact=(exact_axes[0], exact_axes[1]),
        tol=tol)


def _half_sum(lo, hi):
    lof, hif = _as_fraction(lo), _as_fraction(hi)
    if lof is not None and hif is not None:
        return (lof + hif) / 2
    return 0.5 * (float(lo) + float(hi))


@dataclass(frozen=True)
class BasisSplit:
    """Modes split by whether every sensor's signature vanishes there."""

    kernel_modes: tuple[Mode, ...]
    active_modes: tuple[Mode, ...]
    mode_strengths: tuple[float, ...]
    scale: float
    tol: float
    signature_kind: str


def basis_split(basis: ModalBasis, sensors: list[Sensor],
                kind: str = "gradient", tol: float = DEFAULT_BLIND_TOL,
                quad: QuadratureSpec | None = None) -> BasisSplit:
    """Split modes into the sensors' kernel and its complement.

    A mode lands in the kernel when its signature magnitude is at most
    tol times the largest signature magnitude, for every sensor.
    """
    if not sensors:
        raise ValidationError("empty sensor list")
    sig = signature_matrix(basis, sensors, kind, quad)
    strengths = np.abs(sig).max(axis=0)
    scale = float(strengths.max()) if strengths.size else 0.0
    in_kernel = strengths <= tol * scale
    kernel = tuple(m for m, flag in zip(basis.modes, in_kernel) if flag)
    active = tuple(m for m, flag in zip(basis.modes, in_kernel) if not flag)
    return BasisSplit(kernel_modes=kernel, active_modes=active,
                      mode_strengths=tuple(float(s) for s in strengths),
                      scale=scale, tol=tol, signature_kind=kind)


@dataclass(frozen=True)
class IndependenceResult:
    """Result of the kernel-mode independence check outside the region.

    ``independent`` holds when the Gram matrix of the kernel modes'
    gradient fields over the complement of the region is positive definite
    above tolerance, so no nonzero kernel combination vanishes there.
    ``orthogonal_on_region`` reports whether those same gradient fields
    are mutually orthogonal over the region itself.
    """

    independent: bool
    vacuous: bool
    smallest_eigenvalue: float | None
    orthogonal_on_region: bool | None
    max_offdiagonal: float | None
    tol: float

    def __bool__(self) -> bool:
        return self.independent


def residual_independence_check(kernel_modes: tuple[Mode, ...], basis: ModalBasis,
                                region: Subregion, quad: QuadratureSpec | None = None,
                                tol: float = 1e-8) -> IndependenceResult:
    """Check kernel modes for linear independence on the region complement."""
    if not kernel_modes:
        return IndependenceResult(independent=True, vacuous=True,
                                  smallest_eigenvalue=None,
                                  orthogonal_on_region=None,
                                  max_offdiagonal=None, tol=tol)
    region.validate_in(basis.domain)
    if region.covers(basis.domain):
        raise ValidationError("region covers the whole domain; its complement has zero measure")
    idx = [basis.index_of(m) for m in kernel_modes]
    W_domain = gradient_gram(basis, None, quad)
    W_region = gradient_gram(basis, region, quad)
    complement = (W_domain - W_region)[np.ix_(idx, idx)]
    eigs = np.linalg.eigvalsh(0.5 * (complement + complement.T))
    smallest = float(eigs[0])

    on_region = W_region[np.ix_(idx, idx)]
    diag_scale = float(np.abs(np.diag(on_region)).max())
    off = on_region - np.diag(np.diag(on_region))
    max_off = float(np.abs(off).max()) if off.size else 0.0
    orthogonal = max_off <= tol * max(diag_scale, 1e-300)

    return IndependenceResult(
        independent=smallest > tol,
        vacuous=False,
        smallest_eigenvalue=smallest,
        orthogonal_on_region=orthogonal,
        max_offdiagonal=max_off,
        tol=tol)
