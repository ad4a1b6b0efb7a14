"""Regularity-coefficient bounds and pathwise triangularization.

Diagonal and trace averages are deterministic time integrals, so they come
from quadrature, not simulation. The limsup/liminf statistics scan one full
multiplicative period of sin(log t) (about 535) plus margin below the
horizon; a plain second-half window misses the extremes of the oscillating
examples at every horizon.

Shapes: an integrand is evaluated on an array of times, one array call per
refinement level of the quadrature; ``triangularize_paths`` factors the
whole ``[node, path, n, n]`` stack of an ensemble in one QR call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .engines import FundamentalEnsemble
from .model import LinearSde
from .numerics import MsdError, NumericFailure, RankDeficientError, gram_schmidt_qr


class BoundsError(MsdError):
    """Precondition failure in a bound computation or triangularization."""


class _RankDeficientFlowError(BoundsError, NumericFailure):
    """Float64 lost a column of a simulated fundamental matrix, which is
    invertible on valid input: a numeric failure."""


# Window width in log time; covers e^(2 pi) with margin.
_TAIL_LOG_WIDTH = 2.0 * math.pi + 0.5
_SEGMENTS = 512
_T_FLOOR = 1e-8
# Most open intervals one refinement level may hold: a horizon whose segments
# cannot meet the tolerance fails in seconds instead of exhausting memory.
_MAX_INTERVALS = 2 ** 20
# Relative rounding allowance. Row statistics closer than this collapse to a
# shared value, so constant coefficients report a spread of exactly zero; the
# quadrature takes errors below it (times |f| and width) as converged.
_COLLAPSE = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class DiagonalAverages:
    """Tail statistics of (1/t) * integral of each diagonal drift entry."""

    alpha_bar: tuple[float, ...]
    alpha_under: tuple[float, ...]
    ts: np.ndarray         # tail checkpoints the extremes were taken over
    averages: np.ndarray   # [checkpoint, row] running averages
    horizon: float


@dataclass(frozen=True)
class TriangularizationResult:
    """Per node and path: orthogonal S and upper-triangular X with S X = Phi."""

    ts: np.ndarray
    s: np.ndarray          # [node, path, row, col]
    x: np.ndarray
    max_orthogonality_defect: float
    max_lower_magnitude: float
    max_reconstruction_error: float   # relative Frobenius


@dataclass(frozen=True)
class UnitaryInvarianceReport:
    max_column_norm_gap: float    # ||X e_j|| vs ||Phi e_j||
    max_rotated_norm_gap: float   # ||S X e_j|| vs ||Phi e_j||
    max_trace_gap: float          # tr X^T X vs tr Phi^T Phi
    nodes: int


def _check_horizon(horizon: float) -> None:
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise BoundsError("horizon must be positive and finite")


def _running_average(f, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """(1/t) * integral_0^t f at log-spaced breakpoints.

    ``f`` maps an array of times to an array of values. Each of the
    ``_SEGMENTS`` segments is integrated by adaptive Simpson (Lyness's
    acceptance test |L + R - W| <= 15 tol, Richardson correction, tol halved
    per level, depth at most 48), run level by level: every interval still
    open at a level is refined in the same call of ``f``. A level that would
    hold more than ``_MAX_INTERVALS`` intervals raises :class:`BoundsError`.

    Rounding in ``f`` leaves about eps * |f| * w of noise in L + R - W on an
    interval of width w, which halves with w just as tol does, so the test
    uses tol or ``_COLLAPSE`` * S * w, whichever is larger, with S the largest
    |f| at the segment's three top-level points; otherwise a long segment,
    or one where the terms of ``f`` cancel near a root, never converges.

    The integrand may be undefined at t = 0 (log-time coefficients), so the
    head [0, _T_FLOOR] is approximated by f(_T_FLOOR) * _T_FLOOR; the error
    is below 1e-7 for bounded coefficients and vanishes after division by
    any tail time.
    """
    if horizon <= _T_FLOOR * 4.0:
        raise BoundsError(f"horizon must exceed {_T_FLOOR * 4.0:g}")
    edges = np.geomspace(_T_FLOOR, horizon, _SEGMENTS + 1)
    lo, hi = edges[:-1], edges[1:]
    values = f(np.concatenate([edges, 0.5 * (lo + hi)]))
    flo, fhi, fm = values[:_SEGMENTS], values[1:_SEGMENTS + 1], values[_SEGMENTS + 1:]
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fm + fhi)
    noise = _COLLAPSE * np.maximum.reduce([np.abs(flo), np.abs(fm), np.abs(fhi)])
    segment = np.arange(_SEGMENTS)
    pieces = np.zeros(_SEGMENTS)
    tol = 1e-8 / _SEGMENTS
    for depth in range(48, -1, -1):
        mid = 0.5 * (lo + hi)
        quarters = f(np.concatenate([0.5 * (lo + mid), 0.5 * (mid + hi)]))
        flm, frm = np.split(quarters, 2)
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fm)
        right = (hi - mid) / 6.0 * (fm + 4.0 * frm + fhi)
        err = left + right - whole
        floor = noise[segment] * (hi - lo)
        done = (np.abs(err) <= 15.0 * np.maximum(tol, floor)) | (depth == 0)
        pieces += np.bincount(segment[done], (left + right + err / 15.0)[done],
                              minlength=_SEGMENTS)
        keep = ~done
        if not np.any(keep):
            break
        if 2 * np.count_nonzero(keep) > _MAX_INTERVALS:
            raise BoundsError(
                f"quadrature needs more than {_MAX_INTERVALS} intervals at one "
                f"refinement level up to horizon {horizon:g}; use a shorter horizon")
        # Every open interval goes on as its left half and its right half.
        lo, hi, flo, fm, fhi, whole, segment = (
            np.concatenate([a[keep], b[keep]]) for a, b in
            ((lo, mid), (mid, hi), (flo, fm), (flm, frm), (fm, fhi), (left, right),
             (segment, segment)))
        tol *= 0.5
    totals = values[0] * _T_FLOOR + np.cumsum(pieces)
    ts = edges[1:]
    return ts, totals / ts


def _extremes(tail_values: np.ndarray) -> tuple[float, float]:
    hi = float(np.max(tail_values))
    lo = float(np.min(tail_values))
    if hi - lo <= _COLLAPSE * max(1.0, abs(hi), abs(lo)):
        mid = 0.5 * (hi + lo)
        return mid, mid
    return hi, lo


def _integrand(node: ex.Expr, params: dict):
    return lambda t: np.broadcast_to(ex.evaluate(node, t, params), t.shape)


def diagonal_averages(system: LinearSde, horizon: float) -> DiagonalAverages:
    """Limsup and liminf of the running averages of each a_kk."""
    _check_horizon(horizon)
    runs = [_running_average(_integrand(system.drift[k][k], system.params), horizon)
            for k in range(system.dim)]
    ts = runs[0][0]
    averages = np.column_stack([avg for _, avg in runs])
    mask = ts >= horizon * math.exp(-_TAIL_LOG_WIDTH)
    bars, unders = zip(*(_extremes(averages[mask, k]) for k in range(system.dim)))
    return DiagonalAverages(alpha_bar=bars, alpha_under=unders,
                            ts=ts[mask], averages=averages[mask], horizon=horizon)


def _trace_spread(davg: DiagonalAverages) -> float:
    # tr A = sum of a_kk, so its running average is the row sum of theirs.
    hi, lo = _extremes(davg.averages.sum(axis=1))
    return max(0.0, (2.0 / davg.averages.shape[1]) * (hi - lo))


def lower_bound(system: LinearSde, horizon: float) -> float:
    """(2/n) * (limsup - liminf) of the running average of tr A."""
    return _trace_spread(diagonal_averages(system, horizon))


def _spread_sum(davg: DiagonalAverages) -> float:
    return 2.0 * float(sum(b - u for b, u in zip(davg.alpha_bar, davg.alpha_under)))


def upper_bound(system: LinearSde, horizon: float) -> float:
    """2 * sum of per-row average spreads; triangular systems only."""
    if not system.is_upper_triangular():
        raise BoundsError("upper_bound needs upper-triangular drift and diffusion")
    return _spread_sum(diagonal_averages(system, horizon))


def bounds_report(system: LinearSde, horizon: float) -> dict:
    """Lower/upper bounds plus per-row averages, JSON-shaped.

    ``lower`` and ``upper`` are exactly what :func:`lower_bound` and
    :func:`upper_bound` return; ``upper`` is None for non-triangular systems.
    """
    davg = diagonal_averages(system, horizon)
    return {
        "horizon": horizon,
        "lower": _trace_spread(davg),
        "upper": _spread_sum(davg) if system.is_upper_triangular() else None,
        "rows": [
            {"alpha_bar": b, "alpha_under": u}
            for b, u in zip(davg.alpha_bar, davg.alpha_under)
        ],
    }


def triangularize_paths(ens: FundamentalEnsemble) -> TriangularizationResult:
    """QR of Phi at every node of every path.

    The positive-diagonal convention of the QR fixes the sign ambiguity, so
    S varies continuously along a path once the grid is fine enough to keep
    consecutive factors close.
    """
    phi = ens.phi
    times = ens.grid.times()
    try:
        s, x = gram_schmidt_qr(phi)
    except RankDeficientError as exc:
        node, path = exc.index
        raise _RankDeficientFlowError(
            f"fundamental matrix numerically rank-deficient at node {node} "
            f"(t={times[node]:.6g}), path {path}: column {exc.column}"
        ) from None
    eye = np.eye(phi.shape[-1])
    orth = np.linalg.norm(np.einsum("kpij,kpil->kpjl", s, s) - eye, axis=(2, 3))
    lower = np.abs(np.tril(x, -1))
    recon = np.linalg.norm(s @ x - phi, axis=(2, 3))
    scale = np.linalg.norm(phi, axis=(2, 3))
    return TriangularizationResult(
        ts=times,
        s=s,
        x=x,
        max_orthogonality_defect=float(orth.max()),
        max_lower_magnitude=float(lower.max()),
        max_reconstruction_error=float((recon / scale).max()),
    )


def unitary_invariance_check(ens: FundamentalEnsemble,
                             result: TriangularizationResult) -> UnitaryInvarianceReport:
    """Norm preservation under the orthogonal factor, node by node.

    Column norms of X and of S X must match those of Phi, and the squared
    Frobenius norms must agree, confirming that second-moment curves read
    off X coincide with those of Phi.
    """
    if result.s.shape != ens.phi.shape:
        raise BoundsError("triangularization does not match this ensemble")
    col_phi = np.linalg.norm(ens.phi, axis=2)
    col_x = np.linalg.norm(result.x, axis=2)
    col_sx = np.linalg.norm(result.s @ result.x, axis=2)
    tr_phi = np.sum(ens.phi ** 2, axis=(2, 3))
    tr_x = np.sum(result.x ** 2, axis=(2, 3))
    return UnitaryInvarianceReport(
        max_column_norm_gap=float(np.abs(col_x - col_phi).max()),
        max_rotated_norm_gap=float(np.abs(col_sx - col_phi).max()),
        max_trace_gap=float(np.abs(tr_x - tr_phi).max()),
        nodes=ens.phi.shape[0],
    )
