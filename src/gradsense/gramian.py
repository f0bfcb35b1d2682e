"""Finite-rank observability Gramian and margin on the gradient-trace span.

The output Gram matrix pairs the per-mode sensor responses over the
measurement window: A[m, m'] = (integral of exp((l_m + l_m') t) over
[0, T]) times the signature products summed over sensors.  Positive
definiteness of the Gramian on the span of the gradient traces over the
region is certified per eigenvalue group through the generalized
eigenproblem against the corresponding block of the gradient Gram matrix;
the margin is the smallest of those group eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .quadrature import QuadratureSpec
from .sensors import Sensor, signature_matrix
from .spectral import ModalBasis, Subregion, gradient_gram
from .strategic import DEFAULT_GROUPING_RTOL, EigenGroup, group_eigenvalues

DEFAULT_MARGIN_TOL = 1e-10
DEFAULT_TRACE_RANK_TOL = 1e-12


def _check_horizon(horizon: float) -> None:
    if not horizon > 0:
        raise ValidationError(f"measurement horizon must be positive, got {horizon}")


def time_correlation(lam1, lam2, horizon: float):
    """Integral of exp((lam1 + lam2) t) over [0, horizon], elementwise.

    Closed form expm1(s T)/s, accurate for tiny and very negative rate sums
    s, with the s -> 0 limit T.  Rates broadcast: (e[:, None], e[None, :])
    gives the matrix over all pairs, scalars give a scalar.  An infinite
    horizon needs every s < 0, where the value is -1/s.
    """
    _check_horizon(horizon)
    s = np.add(lam1, lam2)
    if math.isinf(horizon) and np.any(s >= 0):
        raise ValidationError("infinite horizon needs strictly negative eigenvalue sums")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s == 0.0, horizon, np.expm1(s * horizon) / s)[()]


def _constant(margin: float, margin_tol: float) -> float:
    """1/sqrt(margin) when the margin clears its tolerance, else inf."""
    return 1.0 / math.sqrt(margin) if margin > margin_tol else math.inf


@dataclass(frozen=True)
class GroupMargin:
    """Positive-definiteness margin of one eigenvalue group."""

    eigenvalue: float
    multiplicity: int
    margin: float
    trace_rank: int
    rank_deficient: bool


@dataclass(frozen=True, eq=False)
class GramianResult:
    """Assembled finite-rank Gramian data.

    output_gram: time-correlation weighted signature Gram (A).
    trace_gram: gradient-trace Gram over the region (W).
    margin: smallest per-group generalized eigenvalue of (A, W) blocks,
    clamped at zero; the strategic verdict is margin > margin_tol.
    """

    output_gram: np.ndarray
    trace_gram: np.ndarray
    margin: float
    group_margins: tuple[GroupMargin, ...]
    positive_definite: bool
    constant: float
    signature_mode: str
    horizon: float
    truncation: int
    margin_tol: float
    all_zero_signatures: bool
    rank_deficient: bool


def _whitened_pencil_min(A: np.ndarray, W: np.ndarray,
                         trace_rank_tol: float) -> tuple[np.ndarray, int]:
    """Smallest eigenvalue of each pencil (A[b], W) on the numerical range of W.

    ``A`` is an (m, m) output-Gram block or a (..., m, m) batch of them
    sharing the trace-Gram block ``W``, which is whitened once for the
    whole batch.  Returns the eigenvalues, shaped like A's batch axes, and
    the numerical rank of W.
    """
    Ws = 0.5 * (W + W.T)
    evals, vecs = np.linalg.eigh(Ws)
    keep = evals > trace_rank_tol * max(float(evals.max()), 0.0)
    if not np.any(keep):
        return np.zeros(A.shape[:-2]), 0
    basis_cols = vecs[:, keep] / np.sqrt(evals[keep])
    M = basis_cols.T @ (0.5 * (A + A.swapaxes(-1, -2))) @ basis_cols
    return np.linalg.eigvalsh(M)[..., 0], int(np.count_nonzero(keep))


def _group_margins(groups: list[EigenGroup], block,
                   W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group margins of a batch of output Grams against one trace Gram.

    ``block(idx)`` returns the (B, m, m) output-Gram blocks over the mode
    indices ``idx`` of one group.  Returns the group margins clamped at
    zero (B, n_groups), the trace ranks (n_groups,), and each batch
    member's margin: the smallest group margin over groups of positive
    trace rank, zero when there is none.
    """
    margins, ranks = [], []
    for g in groups:
        idx = list(g.indices)
        m, kept = _whitened_pencil_min(block(idx), W[np.ix_(idx, idx)], DEFAULT_TRACE_RANK_TOL)
        margins.append(m)
        ranks.append(kept)
    margins = np.stack(margins, axis=1)
    margins = np.where(margins > 0.0, margins, 0.0)
    ranks = np.array(ranks)
    overall = np.where(ranks > 0, margins, math.inf).min(axis=1)
    return margins, ranks, np.where(np.isinf(overall), 0.0, overall)


def _validate_gramian_inputs(basis: ModalBasis, region: Subregion, horizon: float) -> None:
    _check_horizon(horizon)
    region.validate_in(basis.domain)


def assemble_gramian(basis: ModalBasis, sensors: list[Sensor], region: Subregion,
                     horizon: float = 1.0, signature_mode: str = "gradient",
                     quad: QuadratureSpec | None = None,
                     grouping_rtol: float = DEFAULT_GROUPING_RTOL,
                     margin_tol: float = DEFAULT_MARGIN_TOL,
                     trace_gram: np.ndarray | None = None) -> GramianResult:
    """Assemble the finite-rank Gramian and its observability margin.

    ``signature_mode`` selects which signatures weight the output Gram
    matrix: "gradient" matches the rank condition the margin certifies,
    "state" gives the physical-output pairing.  A precomputed
    ``trace_gram`` may be passed to amortize quadrature across calls with
    identical basis and region.
    """
    _validate_gramian_inputs(basis, region, horizon)
    if not sensors:
        raise ValidationError("empty sensor list")
    if signature_mode not in ("gradient", "state"):
        raise ValidationError(f"unknown signature mode {signature_mode!r}")

    sig = signature_matrix(basis, sensors, signature_mode, quad)
    e = basis.eigenvalues
    # kept until return: freeing it before W makes peak memory depend on heap layout
    tau = time_correlation(e[:, None], e[None, :], horizon)
    A = tau * (sig.T @ sig)
    A = 0.5 * (A + A.T)

    W = trace_gram if trace_gram is not None else gradient_gram(basis, region, quad)

    groups = group_eigenvalues(basis, grouping_rtol)
    margins, ranks, overall = _group_margins(
        groups, lambda idx: A[np.ix_(idx, idx)][None], W)
    overall = float(overall[0])
    group_margins = [GroupMargin(
        eigenvalue=g.eigenvalue, multiplicity=g.multiplicity, margin=m,
        trace_rank=kept, rank_deficient=kept < g.multiplicity)
        for g, m, kept in zip(groups, margins[0].tolist(), ranks.tolist())]

    return GramianResult(
        output_gram=A,
        trace_gram=W,
        margin=overall,
        group_margins=tuple(group_margins),
        positive_definite=overall > margin_tol,
        constant=_constant(overall, margin_tol),
        signature_mode=signature_mode,
        horizon=horizon,
        truncation=basis.truncation,
        margin_tol=margin_tol,
        all_zero_signatures=bool(np.all(np.abs(sig) == 0.0)),
        rank_deficient=any(g.rank_deficient for g in group_margins))


def pointwise_margins(basis: ModalBasis, groups: list[EigenGroup], sig: np.ndarray,
                      region: Subregion, horizon: float,
                      quad: QuadratureSpec | None) -> np.ndarray:
    """Gramian margin of each single pointwise sensor with signature rows ``sig``.

    ``sig`` is (C, n_modes), the signature of one candidate location per
    row, in whichever signature mode the caller chose.  The time
    correlations, the trace Gram and each group's whitening are computed
    once for all candidates, and only group blocks of the output Grams are
    built.  Row c equals assemble_gramian's margin for the sensor alone.
    """
    _validate_gramian_inputs(basis, region, horizon)
    e = basis.eigenvalues
    tau = time_correlation(e[:, None], e[None, :], horizon)
    W = gradient_gram(basis, region, quad)

    def block(idx):
        s = sig[:, idx]
        return tau[np.ix_(idx, idx)] * (s[:, :, None] * s[:, None, :])

    return _group_margins(groups, block, W)[2]


def observability_constant(result: GramianResult) -> float:
    """Smallest admissible constant in the truncated observation inequality.

    Equals 1/sqrt(margin) in the region-weighted metric; infinite when the
    margin does not clear the tolerance, meaning the truncated system is
    not gradient observable on the region at this sensor placement.
    """
    return _constant(result.margin, result.margin_tol)
