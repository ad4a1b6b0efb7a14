"""Dichotomy moment surfaces, nonuniform envelope fits, and decoupling.

A fitted envelope states E||Phi(t) P Phi^-1(s)||^2 <= K e^(-alpha Delta +
beta s) over the sampled pairs, with Delta the time gap in the direction of
the sense. The constant is exact by construction: K is the max of
value * e^(alpha Delta - beta s) over the samples, so the bound touches the
surface at the argmax.

Fitting is an exhaustive lattice search because the inequality alone admits
many (K, alpha, beta) triples; a fixed objective makes the choice
reproducible. beta is deliberately not constrained below alpha: the
oscillating examples genuinely produce beta > alpha, and two flags report
the relationship instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .engines import (
    MomentSurface,
    FundamentalEnsemble,
    TimeGrid,
    _moment_rows,
    fundamental_at,
    mc_second_moment,
)
from .lyapunov import RegularityEstimate, SpectrumEstimate
from .model import LinearSde, Projector
from .numerics import MsdError, NumericFailure, spd_sqrt_commuting


class DichotomyError(MsdError):
    """Invalid surface, fit precondition failure, or sense mismatch."""


class _DegenerateSurfaceError(DichotomyError, NumericFailure):
    """A Monte Carlo mean square that is zero or not finite on a valid input,
    which no envelope can fit: a numeric failure."""


# Multiplicative distance from the envelope under which a sample counts as
# touching it. The oscillating surfaces have near-ties along the extremal
# time family, so this is looser than float precision on purpose.
_TIGHT_TOL = 1e-2
_UNIFORM_BETA = 1e-6


@dataclass(frozen=True)
class DichotomyFit:
    """Envelope parameters; `k` is the multiplicative constant K."""

    rank: int
    k: float
    alpha: float
    beta: float
    sense: str                 # the surface's: "stable" | "unstable"
    residual_max: float        # worst value / envelope ratio, <= 1 + 1e-9
    tight_points: tuple[tuple[float, float], ...]
    uniform: bool              # beta below 1e-6
    beta_below_alpha: bool


@dataclass(frozen=True)
class UniformWitnessReport:
    s_values: np.ndarray
    k_u: np.ndarray            # best uniform constant per s at the fitted alpha
    ratio: float               # K_u at the largest s over K_u at the smallest
    flag: str                  # "uniform" | "nonuniform"
    alpha: float


@dataclass(frozen=True)
class PredictedExponent:
    """Forecast dichotomy rate from a spectrum; both branch values kept."""

    alpha: float
    stable_rate: float                # -(chi_k + eps)
    unstable_rate: float | None       # chi_{k+1} + eps; None in contraction mode
    beta: float | None                # gamma + 2 eps when regularity supplied
    mode: str
    epsilon: float


@dataclass(frozen=True)
class DecouplingReport:
    max_commutator: float       # ||P R - R P||_F, zero by blockwise construction
    max_projection_gap: float   # ||S P S^-1 - Phi P Phi^-1||_F
    max_s_norm_sq: float        # pathwise ||S||_op^2; bounded by 2
    mean_s_norm_sq: float       # worst node average
    max_inverse_excess: float   # ||S^-1||_op^2 minus its projector bound, pathwise
    nodes: int
    paths: int


def pair_grid(s_values, deltas, sense: str = "stable") -> list[tuple[float, float]]:
    """Cartesian (s, s +- delta) pairs for one sense."""
    if sense not in ("stable", "unstable"):
        raise DichotomyError(f"unknown sense '{sense}'")
    pairs = []
    for s in s_values:
        s = float(s)
        for d in deltas:
            d = float(d)
            if d < 0.0:
                raise DichotomyError("deltas must be nonnegative")
            t = s + d if sense == "stable" else s - d
            pairs.append((s, t))
    return pairs


def dichotomy_surface(system: LinearSde, projector: Projector | None, pairs,
                      method: str = "auto", dt: float = 1e-3,
                      paths: int = 1000, seed: int = 0) -> MomentSurface:
    """Sample E||Phi(t) P Phi^-1(s)||_F^2 over (s, t) pairs.

    All pairs must share one sense: t >= s (stable block) or t <= s
    (unstable block, which measures the complement of the projector).
    method "auto" uses the moment ODE whenever the projector is trivial or
    conformal with the system's blocks, and Monte Carlo otherwise; "ode" and
    "mc" force the route. The Monte Carlo route simulates one shared
    ensemble, so every s and t must land on its grid (spacing dt).
    """
    pairs = [(float(s), float(t)) for s, t in pairs]
    if not pairs:
        raise DichotomyError("need at least one (s, t) pair")
    for s, t in pairs:
        if not (math.isfinite(s) and math.isfinite(t)):
            raise DichotomyError(f"time bounds must be finite, got s={s!r} and t={t!r}")
    if method not in ("auto", "ode", "mc"):
        raise DichotomyError(f"unknown method '{method}'")
    has_fwd = any(t > s for s, t in pairs)
    has_bwd = any(t < s for s, t in pairs)
    if has_fwd and has_bwd:
        raise DichotomyError("pairs mix senses; split into t >= s and t <= s surfaces")
    sense = "unstable" if has_bwd else "stable"

    if method == "auto":
        conformal = projector is None or system.is_block_diagonal(projector.rank)
        method = "ode" if conformal else "mc"
    stderrs = None
    if method == "ode":
        values = _moment_rows(system, projector, pairs, sense, dt)
    else:
        values, stderrs = _surface_mc(system, projector, pairs, sense, dt, paths, seed)
    ss, ts = np.array(pairs).T
    return MomentSurface(ss=ss, ts=ts, values=values, stderrs=stderrs, sense=sense)


def _surface_mc(system, projector, pairs, sense, dt, paths, seed):
    """Monte Carlo values and standard errors over the pairs; refuses the
    first pair whose mean square is not positive and finite."""
    times = sorted({x for p in pairs for x in p})
    t0, t_end = times[0], times[-1]
    if t_end == t0:
        raise DichotomyError("Monte Carlo surface needs a positive time span")
    grid = TimeGrid.spanning(t0, t_end, dt)
    nodes = {x: grid.node_at(x) for x in times}
    ens = fundamental_at(system, grid, paths, seed, list(nodes.values()))
    weight = (projector.complement_matrix if projector is not None and sense == "unstable"
              else projector)
    values = np.array([mc_second_moment(ens, nodes[s], nodes[t], weight) for s, t in pairs]).T
    for (s, t), value in zip(pairs, values[0].tolist()):
        if not 0.0 < value < math.inf:
            raise _DegenerateSurfaceError(
                f"Monte Carlo mean square at s={s:.6g}, t={t:.6g} is {value!r}: "
                "no envelope fits it")
    return values


def _consecutive_slopes(keys, xs, values, sign: float) -> float:
    """Max of sign * d(log v)/dx over consecutive samples within each key group.

    Log-slopes come from value ratios, not log differences, so a common
    scale factor cancels exactly and the default lattice is scale-invariant.
    """
    best = -math.inf
    for key in np.unique(keys):
        idx = np.flatnonzero(keys == key)
        if idx.size < 2:
            continue
        order = idx[np.argsort(xs[idx])]
        dx = np.diff(xs[order])
        dl = np.log(values[order][1:] / values[order][:-1])
        ok = dx > 0
        if np.any(ok):
            best = max(best, float(np.max(sign * dl[ok] / dx[ok])))
    return best


# Largest lattice fit_envelope accepts: its search scans lattice + 1 betas
# for each of lattice alphas, so its time grows as lattice^2.
_MAX_LATTICE = 10_000


def fit_envelope(surface: MomentSurface, rank: int | None = None,
                 alpha_max: float | None = None, beta_max: float | None = None,
                 lattice: int = 200) -> DichotomyFit:
    """Lattice-search (K, alpha, beta) with K analytic per candidate.

    Objective: log K + 0.01 beta - 0.02 alpha, ties resolved toward the
    smallest alpha index then the smallest beta index. Default lattice tops:
    alpha_max is the steepest observed decay along the gap direction,
    beta_max the steepest observed growth in s at fixed gap. Surfaces fitted
    over long spans should pass explicit tops so the lattice step stays
    commensurate with the structure being resolved.
    """
    sense = surface.sense
    if not 2 <= lattice <= _MAX_LATTICE:
        raise DichotomyError(f"lattice must be between 2 and {_MAX_LATTICE}, got {lattice}")
    v = np.asarray(surface.values, dtype=float)
    ss = np.asarray(surface.ss, dtype=float)
    ts = np.asarray(surface.ts, dtype=float)
    if v.size < 3:
        raise DichotomyError("need at least 3 surface points to fit")
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise DichotomyError("surface values must be positive and finite")
    deltas = ts - ss if sense == "stable" else ss - ts
    if np.any(deltas < 0.0):
        raise DichotomyError(f"pairs disagree with sense '{sense}'")
    logs = np.log(v)

    if alpha_max is None:
        alpha_max = _consecutive_slopes(ss, deltas, v, sign=-1.0)
        if not (alpha_max > 0.0 and math.isfinite(alpha_max)):
            alpha_max = 1.0
    if not 0.0 < alpha_max < math.inf:
        raise DichotomyError("alpha_max must be positive and finite")
    if beta_max is None:
        beta_max = _consecutive_slopes(deltas, ss, v, sign=1.0)
        if not (beta_max > 0.0 and math.isfinite(beta_max)):
            beta_max = 0.0
    if not 0.0 <= beta_max < math.inf:
        raise DichotomyError("beta_max must be nonnegative and finite")

    alphas = alpha_max * np.arange(1, lattice + 1) / lattice
    betas = (beta_max * np.arange(lattice + 1) / lattice
             if beta_max > 0.0 else np.zeros(1))
    best = (math.inf, 0, 0, 0.0)
    for i, a in enumerate(alphas):
        base = logs + a * deltas
        log_k = np.max(base[None, :] - betas[:, None] * ss[None, :], axis=1)
        objective = log_k + 0.01 * betas - 0.02 * a
        j = int(np.argmin(objective))
        if objective[j] < best[0]:
            best = (float(objective[j]), i, j, float(log_k[j]))
    _, i, j, _ = best
    alpha = float(alphas[i])
    beta = float(betas[j])
    # Final K in linear space: rounding is monotone, so scaling every value
    # by c > 0 scales K by exactly c and the argmax sample stays ratio 1.0.
    weights = np.exp(alpha * deltas - beta * ss)
    k = float(np.max(v * weights))

    ratios = v * weights / k
    residual_max = float(np.max(ratios))
    if residual_max > 1.0 + 1e-9:
        raise DichotomyError("envelope violated after fitting; surface is inconsistent")
    tight = tuple(
        (float(ss[m]), float(ts[m]))
        for m in np.flatnonzero(ratios >= 1.0 - _TIGHT_TOL)
    )
    if rank is None:
        at_zero = v[deltas == 0.0]
        rank = int(round(float(np.mean(at_zero)))) if at_zero.size else 0
    return DichotomyFit(
        rank=rank, k=k, alpha=alpha, beta=beta, sense=sense,
        residual_max=residual_max, tight_points=tight,
        uniform=beta < _UNIFORM_BETA, beta_below_alpha=beta < alpha,
    )


def uniform_witness(surface: MomentSurface,
                    fit: DichotomyFit | None = None) -> UniformWitnessReport:
    """Best uniform constant per starting time at the fitted decay rate.

    K_u(s) = max over the s-row of value * e^(alpha * gap). A ratio above
    10^3 between the largest-s and smallest-s rows flags the dichotomy as
    nonuniform: no single constant serves every start.
    """
    if fit is None:
        fit = fit_envelope(surface)
    ss = np.asarray(surface.ss, dtype=float)
    ts = np.asarray(surface.ts, dtype=float)
    v = np.asarray(surface.values, dtype=float)
    s_values = np.unique(ss)
    if s_values.size < 2:
        raise DichotomyError("uniformity witness needs more than one s value")
    deltas = np.abs(ts - ss)
    k_u = np.array([
        float(np.max(v[ss == s] * np.exp(fit.alpha * deltas[ss == s])))
        for s in s_values
    ])
    ratio = k_u[-1] / k_u[0]
    flag = "nonuniform" if ratio > 1e3 else "uniform"
    return UniformWitnessReport(s_values=s_values, k_u=k_u, ratio=float(ratio),
                                flag=flag, alpha=fit.alpha)


def predicted_exponent(spectrum_est: SpectrumEstimate, epsilon: float,
                       regularity: RegularityEstimate | float | None = None
                       ) -> PredictedExponent:
    """Forecast the envelope rate from estimated exponents.

    An all-negative spectrum forecasts a contraction at rate -(chi_n + eps).
    Any other spectrum forecasts a dichotomy by the printed two-branch
    formula max(-(chi_k + eps), chi_{k+1} + eps) across the sign split, and
    needs at least one negative exponent; both branch values are kept on the
    report since the formula's max-vs-min reading is debatable.
    """
    if not 0.0 <= epsilon < math.inf:
        raise DichotomyError("epsilon must be nonnegative and finite")
    values = spectrum_est.values
    split = spectrum_est.split_index
    gamma = None
    if regularity is not None:
        gamma = float(getattr(regularity, "gamma_upper_estimate", regularity))
    beta = None if gamma is None else gamma + 2.0 * epsilon

    if split == len(values):
        rate = -(values[-1] + epsilon)
        return PredictedExponent(alpha=rate, stable_rate=rate, unstable_rate=None,
                                 beta=beta, mode="contraction", epsilon=epsilon)
    if split < 1:
        raise DichotomyError("dichotomy mode needs at least one negative exponent")
    stable_rate = -(values[split - 1] + epsilon)
    unstable_rate = values[split] + epsilon
    return PredictedExponent(alpha=max(stable_rate, unstable_rate),
                             stable_rate=stable_rate, unstable_rate=unstable_rate,
                             beta=beta, mode="dichotomy", epsilon=epsilon)


def similarity_propagate(fit: DichotomyFit, m: float,
                         beta_s: float | None = None) -> DichotomyFit:
    """Transport a fit through a similarity with norm bound M and degree beta_s.

    The transformed envelope is (K M^2, alpha - beta_s, beta + 2 beta_s);
    beta_s defaults to the fit's own beta, the shared-degree case the
    transport rule was derived for. M = 1, beta_s = 0 is the identity.
    """
    if m < 1.0:
        raise DichotomyError("similarity norm bound M must be >= 1")
    beta_s = fit.beta if beta_s is None else float(beta_s)
    if beta_s < 0.0:
        raise DichotomyError("beta_s must be nonnegative")
    alpha = fit.alpha - beta_s
    if alpha <= 0.0:
        raise DichotomyError(
            f"beta in [0, alpha) violated: alpha - beta_s = {alpha:.6g}")
    beta = fit.beta + 2.0 * beta_s
    return replace(fit, k=fit.k * m * m, alpha=alpha, beta=beta,
                   uniform=beta < _UNIFORM_BETA, beta_below_alpha=beta < alpha)


def decoupling_check(ens: FundamentalEnsemble, projector: Projector) -> DecouplingReport:
    """Split the flow into a commuting core and a bounded similarity.

    The ensemble's Phi is a ``[node, path, n, n]`` stack; every Gram matrix
    comes from one stacked matmul and every root from one stacked call.
    Per node and path: R = blockwise symmetric square root of
    P Phi^T Phi P + Q Phi^T Phi Q, S = Phi R^-1. R commutes with the
    projector by construction, S carries the non-commuting part with
    ||S||_op^2 <= 2 pathwise, and ||S^-1||_op^2 is dominated by the two
    projected dichotomy quantities.
    """
    phi = ens.phi
    nodes, paths = phi.shape[:2]
    p = projector.matrix
    q = projector.complement_matrix
    r_all = spd_sqrt_commuting(np.swapaxes(phi, 2, 3) @ phi, projector.rank)
    # R is symmetric, so S^T = R^-1 Phi^T.
    s_all = np.linalg.solve(r_all, np.swapaxes(phi, 2, 3))
    s_all = np.swapaxes(s_all, 2, 3)

    commut = np.linalg.norm(p @ r_all - r_all @ p, axis=(2, 3))

    def _sandwich(mat, core):
        prod = mat @ core
        return np.swapaxes(np.linalg.solve(np.swapaxes(mat, 2, 3),
                                           np.swapaxes(prod, 2, 3)), 2, 3)

    phi_p = _sandwich(phi, p)
    gap = np.linalg.norm(_sandwich(s_all, p) - phi_p, axis=(2, 3))

    sv_s = np.linalg.svd(s_all, compute_uv=False)
    s_norm_sq = sv_s[..., 0] ** 2
    inv_norm_sq = 1.0 / sv_s[..., -1] ** 2
    bound = (np.linalg.svd(phi_p, compute_uv=False)[..., 0] ** 2
             + np.linalg.svd(_sandwich(phi, q), compute_uv=False)[..., 0] ** 2)
    return DecouplingReport(
        max_commutator=float(commut.max()),
        max_projection_gap=float(gap.max()),
        max_s_norm_sq=float(s_norm_sq.max()),
        mean_s_norm_sq=float(s_norm_sq.mean(axis=1).max()),
        max_inverse_excess=float((inv_norm_sq - bound).max()),
        nodes=nodes,
        paths=paths,
    )
