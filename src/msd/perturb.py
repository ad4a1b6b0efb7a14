"""Nonlinear perturbations: smallness falsifier, solvers, and experiments.

The mean-square smallness condition constrains moments of random variables,
not pathwise values, so it cannot be certified from a formula. The falsifier
here draws seeded Gaussian-mixture ensembles and hunts for a violating
distribution; a clean sweep is reported as consistency, never as proof.

Two perturbed solvers are kept deliberately independent: direct
Euler-Maruyama on the nonlinear system, which runs through the shared
kernel :func:`msd.engines.euler_maruyama` like every other Monte Carlo
route, and Picard iteration on the variation-of-constants form driven by a
fundamental ensemble's retained increments. Their pathwise agreement is a
cross-engine check, so neither is ever expressed through the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .dichotomy import DichotomyFit, fit_envelope, dichotomy_surface
from .engines import (FundamentalEnsemble, TimeGrid, _check_state, _check_store, _compile_map,
                      _map_values, _mean_squares, euler_maruyama, mc_moment_curve)
from .lyapunov import regularity_estimate, spectrum
from .model import PerturbedSde, gallery
from .numerics import MsdError, NumericFailure, RngStream


class PerturbError(MsdError):
    """Invalid input or failed precondition."""


class NonConvergenceError(PerturbError, NumericFailure):
    """An iteration ran out of budget; numeric failure, not bad input."""


_PI = math.pi


@dataclass(frozen=True)
class Condition42Report:
    max_ratio: float
    consistent: bool
    trials: int
    scale: float
    worst: dict
    violations: tuple[dict, ...]


@dataclass(frozen=True)
class PerturbedEnsemble:
    """Solution paths of the nonlinear system; values[node, path, component].

    Escaped paths hold their last pre-escape value, so moment curves stay
    finite while ``escape_times`` records when each path left the trusted
    region (NaN where it never did).
    """

    grid: TimeGrid
    paths: int
    values: np.ndarray
    escape_times: np.ndarray

    @property
    def escaped(self) -> int:
        return int(np.sum(np.isfinite(self.escape_times)))


@dataclass(frozen=True)
class VocSolution:
    values: np.ndarray        # [node, component]
    iterations: int
    delta: float              # sup-node change at the accepting sweep


@dataclass(frozen=True)
class StabilityReport:
    fit: DichotomyFit
    q: float
    envelope_margin: float    # -q alpha + beta, negative when hypothesis holds
    spectral_margin: float    # q chi_max + gamma
    hypothesis_ok: bool
    note: str
    k_tilde: float
    tail_slope: float | None  # None with fewer than two positive tail samples
    verdict: str | None       # PASS/FAIL under the hypothesis, else None
    ts: np.ndarray
    moments: np.ndarray
    stderrs: np.ndarray
    escaped: int              # paths frozen at the explosion threshold


@dataclass(frozen=True)
class PerronReport:
    a: float
    b: float
    lam: float
    delta_window: float
    growth_bound: float
    t_star: float
    chi_deterministic: float
    chi_mc: float
    chi_mc_stderr: float
    mc_horizon: float
    escaped: int              # Monte Carlo paths frozen at the explosion threshold


# ---------------------------------------------------------------------------
# Smallness condition falsifier

def check_condition_42(psys: PerturbedSde, sampler_scale: float, trials: int,
                       seed: int = 0, samples: int = 8192) -> Condition42Report:
    """Hunt for a distribution violating the declared (c, q) moment bound.

    Each trial draws a two-component Gaussian mixture u at the given scale
    and a nearby v = u + eps * noise, then compares
    E||f(u)-f(v)||^2 + E||h(u)-h(v)||^2 against
    c * E||u-v||^2 * (E||u||^2 + E||v||^2)^q. The mixture is symmetric
    (components at +-mu with a shared width) so its kurtosis never exceeds
    the Gaussian's: variance-separated mixtures have unbounded kurtosis
    ratios and defeat any fixed (c, q) for power-type maps, so a sweep
    over them would reject everything and certify nothing. Mismatched
    growth degrees still show up, at small scale when the map is flatter
    than the declared q allows and at large scale when it grows faster.
    A trial whose ratio is not finite, because its moments overflow or
    underflow float64, raises :class:`PerturbError`.
    """
    if trials < 100:
        raise PerturbError("need at least 100 trials for a meaningful sweep")
    if not 0.0 < sampler_scale < math.inf:
        raise PerturbError("sampler scale must be positive and finite")
    n = psys.base.dim
    # One trial holds u, v, their draws and the maps' values at once: about
    # 6 n + 4 numbers per sample (measured at n = 1, 4 and 16), under 8 n + 4.
    _check_store(samples * (8 * n + 4), "a falsifier trial's samples")
    params = psys.base.params
    # A zero map adds no term: its 0.0 would leave the non-negative sum alone.
    maps = [m for m in (_compile_map(psys.f, params), _compile_map(psys.h, params))
            if m is not None]
    # A counter stream accepts any integer seed. Index 20 000 stays clear of
    # the spectrum's probe streams (from 2^62) and of the path streams of
    # ensembles below 20 000 paths.
    rng = RngStream(seed, 20_000).generator()
    max_ratio = -1.0
    worst: dict = {}
    violations: list[dict] = []
    for trial in range(trials):
        t = float(rng.uniform(0.0, 10.0))
        mu = rng.normal(0.0, sampler_scale, size=n)
        width = sampler_scale * float(rng.uniform(0.85, 1.15))
        signs = np.where(rng.integers(0, 2, size=samples) == 0, -1.0, 1.0)
        u = signs[:, None] * mu + width * rng.standard_normal((samples, n))
        eps = sampler_scale * 10.0 ** rng.uniform(-2.0, -0.7)
        v = u + eps * rng.standard_normal((samples, n))

        # Per-trial sample means stay on np.mean: they steer the search and
        # are never reported as ensemble moments, and the pairwise tree
        # would cost one call per mean. The ratio is formed in float64, so
        # overflow and division give inf or NaN, checked below.
        with np.errstate(all="ignore"):
            lhs = 0.0
            for fmap in maps:
                diff = _map_values(fmap, t, u) - _map_values(fmap, t, v)
                lhs += np.mean(np.sum(diff * diff, axis=-1))
            gap = np.mean(np.sum((u - v) ** 2, axis=-1))
            size = (np.mean(np.sum(u * u, axis=-1))
                    + np.mean(np.sum(v * v, axis=-1)))
            core = gap * size ** psys.q
            ratio = 0.0 if lhs == 0.0 else float(lhs / (psys.c * core))
        if not math.isfinite(ratio):
            raise PerturbError(
                f"falsifier trial {trial} at scale {sampler_scale:g} has a ratio of "
                f"{ratio}: its moments leave the float64 range")
        record = {"trial": trial, "ratio": ratio, "t": t, "eps": eps,
                  "width": width, "offset": float(np.linalg.norm(mu))}
        if ratio > max_ratio:
            max_ratio = ratio
            worst = record
        if ratio > 1.0:
            violations.append(record)
    return Condition42Report(max_ratio=max_ratio, consistent=not violations,
                             trials=trials, scale=sampler_scale, worst=worst,
                             violations=tuple(violations))


# ---------------------------------------------------------------------------
# Solvers

def simulate_perturbed(psys: PerturbedSde, xi0, grid: TimeGrid, paths: int,
                       seed: int) -> PerturbedEnsemble:
    """Left-point Euler-Maruyama for the nonlinear system, every node kept.

    Steps through :func:`msd.engines.euler_maruyama`, which draws the
    same per-path streams as the fundamental ensemble, so a zero
    perturbation reproduces Phi(t) xi0 path by path. Paths that leave the
    explosion threshold are frozen and timestamped rather than aborting the
    run; unstable experiments need the survivors.
    """
    if paths < 1:
        raise PerturbError("need at least one path")
    xi0 = np.asarray(xi0, dtype=float).reshape(-1)
    n = psys.base.dim
    if xi0.shape != (n,):
        raise PerturbError(f"initial condition must have {n} components")
    if not np.all(np.isfinite(xi0)):
        raise PerturbError("initial condition must be finite")
    _check_store(paths * grid.count * n, "the perturbed paths")
    values = np.empty((grid.count, paths, n))
    for k, u, escape in euler_maruyama(psys, grid, paths, seed, np.arange(grid.count),
                                       x0=xi0):
        values[k] = u.T
    return PerturbedEnsemble(grid=grid, paths=paths, values=values, escape_times=escape)


# Picard iteration stops once no entry of the solution moves by more than
# _PICARD_TOL in a sweep, and gives up after _PICARD_SWEEPS sweeps.
_PICARD_TOL = 1e-8
_PICARD_SWEEPS = 50


def voc_solve(psys: PerturbedSde, xi0, ens: FundamentalEnsemble,
              path_index: int = 0) -> VocSolution:
    """Picard iteration on the variation-of-constants form for one path.

    u(t) = Phi(t) [xi0 + int Psi h(u) dw + int Psi (f(u) - G h(u)) dtau],
    with left-point Ito sums on the ensemble's grid and its retained
    increments. The zero perturbation converges on the first sweep to
    Phi(t) xi0 exactly.
    """
    if psys.base.dim != ens.system.dim:
        raise PerturbError("ensemble dimension does not match the system")
    if ens.increments is None:
        raise PerturbError("the ensemble keeps no increments; simulate it with "
                           "simulate_fundamental")
    if len(ens.nodes) != ens.grid.count:
        raise PerturbError(f"the ensemble holds {len(ens.nodes)} of the grid's "
                           f"{ens.grid.count} nodes; Picard iteration needs every node")
    if not 0 <= path_index < ens.paths:
        raise PerturbError(f"path index {path_index} outside 0..{ens.paths - 1}")
    n = psys.base.dim
    xi0 = np.asarray(xi0, dtype=float).reshape(n)
    phi = ens.phi[:, path_index]            # [node, n, n]
    psi = ens.psi[:, path_index]
    dw = ens.increments[path_index]         # [steps]
    times = ens.grid.times()
    params = psys.base.params
    g_left = psys.base.diffusion_at(times[:-1])
    dt = ens.grid.dt

    # Reusing the linear term keeps the zero perturbation bitwise equal to
    # phi @ xi0: the correction below is then exactly zero.
    linear = phi @ xi0
    u = linear
    fmap, hmap = _compile_map(psys.f, params), _compile_map(psys.h, params)
    for sweep in range(1, _PICARD_SWEEPS + 1):
        # A map that overflows gives a non-finite update, reported below.
        with np.errstate(over="ignore", invalid="ignore"):
            f_val = _map_values(fmap, times[:-1], u[:-1])
            h_val = _map_values(hmap, times[:-1], u[:-1])
        gh = np.einsum("kij,kj->ki", g_left, h_val)
        steps = (np.einsum("kij,kj->ki", psi[:-1], h_val) * dw[:, None]
                 + np.einsum("kij,kj->ki", psi[:-1], f_val - gh) * dt)
        acc = np.vstack([np.zeros((1, n)), np.cumsum(steps, axis=0)])
        nxt = linear + np.einsum("kij,kj->ki", phi, acc)
        delta = float(np.max(np.abs(nxt - u)))
        u = nxt
        if not math.isfinite(delta):
            raise NonConvergenceError(
                f"Picard iteration diverged at sweep {sweep} (non-finite update)")
        if delta <= _PICARD_TOL:
            return VocSolution(values=u, iterations=sweep, delta=delta)
    raise NonConvergenceError(
        f"Picard iteration did not converge in {_PICARD_SWEEPS} sweeps; "
        f"last delta {delta:.3e}")


# ---------------------------------------------------------------------------
# Stability experiment

def stability_experiment(psys: PerturbedSde, delta: float, horizon: float,
                         paths: int, seed: int, dt: float = 1e-3,
                         t0: float = 1e-3, fit_pairs=None,
                         fit_dt: float | None = None,
                         alpha_max: float | None = None,
                         beta_max: float | None = None) -> StabilityReport:
    """Fit the base contraction, check the smallness hypothesis, simulate.

    The empirical constant is k_tilde = max over the grid of
    moment * e^{alpha t}, so the reported envelope holds by construction;
    the verdict is only issued when the hypothesis margin is negative, and
    otherwise the experiment still runs and reports the curve.

    The default fit window is a short span near t0, which is adequate for
    near-autonomous coefficients. Oscillating coefficients reveal their
    initial-time dependence only across the oscillation scale, so callers
    certifying those should pass fit_pairs spanning it.
    """
    if not 0.0 < delta < math.inf:
        raise PerturbError(f"initial radius delta must be positive and finite, got {delta!r}")
    if not 0.0 < horizon < math.inf:
        raise PerturbError(f"horizon must be positive and finite, got {horizon!r}")
    if paths < 1:
        raise PerturbError("need at least one path")
    # Refused before the fit, the spectrum and the regularity estimate run.
    _check_state(psys, paths, vector=True)
    base = psys.base
    n = base.dim
    if fit_pairs is None:
        span = min(horizon, 4.0)
        fit_pairs = [(t0, t0 + d)
                     for d in (0.0, span / 8, span / 4, span / 2, span)]
        fit_pairs += [(t0 + span / 4, t0 + span / 4 + d)
                      for d in (0.0, span / 4, span / 2)]
    fit = fit_envelope(
        dichotomy_surface(base, None, fit_pairs, dt=fit_dt or dt),
        alpha_max=alpha_max, beta_max=beta_max)
    envelope_margin = -psys.q * fit.alpha + fit.beta

    est = spectrum(base, horizon=min(20.0, max(10.0, horizon)), trials=n,
                   t_start=t0)
    basis = np.eye(n)
    reg = regularity_estimate(base, [(basis, basis)], horizon=10.0, t_start=t0)
    spectral_margin = psys.q * est.values[-1] + reg.gamma_upper_estimate

    hypothesis_ok = envelope_margin < 0.0
    note = ("hypothesis satisfied" if hypothesis_ok
            else "hypothesis not satisfied; experiment still run")

    xi0 = np.zeros(n)
    xi0[0] = delta
    grid = TimeGrid.spanning(t0, t0 + horizon, dt)
    curve = mc_moment_curve(psys, grid, paths, seed, x0=xi0)
    ts, moments, escaped = curve.ts, curve.values, curve.escaped

    rel = ts - t0
    k_tilde = float(np.max(moments * np.exp(fit.alpha * rel)))
    envelope_ok = bool(np.all(moments <= k_tilde * np.exp(-fit.alpha * rel)
                              * (1.0 + 1e-9)))
    tail = rel >= horizon / 2
    pos = tail & (moments > 0.0)
    tail_slope = float(np.polyfit(ts[pos], np.log(moments[pos]), 1)[0]) \
        if np.sum(pos) >= 2 else None
    verdict = None
    if hypothesis_ok:
        healthy = escaped == 0 and np.all(np.isfinite(moments))
        verdict = "PASS" if (envelope_ok and healthy) else "FAIL"
    return StabilityReport(fit=fit, q=psys.q, envelope_margin=envelope_margin,
                           spectral_margin=spectral_margin,
                           hypothesis_ok=hypothesis_ok, note=note,
                           k_tilde=k_tilde, tail_slope=tail_slope,
                           verdict=verdict, ts=ts, moments=moments,
                           stderrs=curve.stderrs, escaped=escaped)


# ---------------------------------------------------------------------------
# Oscillating-coefficient instability example

def _check_instability_params(a: float, b: float, lam: float) -> None:
    gate = (2.0 * math.exp(-_PI) + 1.0) * b
    if not 0.0 < b:
        raise PerturbError(f"instability parameters need 0 < b; got b={b}")
    if not b < a:
        raise PerturbError(f"instability parameters need b < a; got a={a}, b={b}")
    if not a < gate:
        raise PerturbError(
            f"instability parameters need a < (2e^-pi + 1) b = {gate:.6g}; got a={a}")
    lam_gate = 2.0 * b / (a - b) - math.exp(_PI)
    if not 0.0 < lam:
        raise PerturbError(f"instability parameters need 0 < lambda; got {lam}")
    if not lam < lam_gate:
        raise PerturbError(
            f"instability parameters need lambda < 2b/(a-b) - e^pi = "
            f"{lam_gate:.6g}; got lambda={lam}")


# The Monte Carlo run of the Perron example starts here, clear of the
# coefficients' sin(log t) at t = 0.
_PERRON_T0 = 1e-4


def perron_instability(a: float, b: float, lam: float,
                       delta_window: float = 0.01, horizon: float = 10.0,
                       paths: int = 400, seed: int = 0,
                       dt: float = 5e-3) -> PerronReport:
    """Instability pipeline for the oscillating two-block example.

    Validates the parameter window, evaluates the analytic growth lower
    bound, integrates the deterministic sub-case (diffusion off) by
    log-space quadrature of the explicit second-component formula out to
    t* = e^{pi/2 + 2 pi}, and estimates the stochastic exponent by Monte
    Carlo over a caller-sized horizon. The deterministic exponent is the
    meaningful instability witness; the Monte Carlo number is a finite-time
    estimate that oscillates with the horizon and inherits the usual
    log-normal tail bias, which its standard error cannot see.
    """
    _check_instability_params(a, b, lam)
    if not 0.0 < delta_window < _PI / 4:
        raise PerturbError("delta window must lie in (0, pi/4)")
    if not _PERRON_T0 < horizon < math.inf:
        raise PerturbError(f"horizon must be finite and above the Monte Carlo start "
                           f"{_PERRON_T0:g}, got {horizon!r}")

    growth_bound = (-2.0 * a + 2.0 * b
                    + 2.0 * ((lam + 2.0) * b * math.cos(delta_window) - lam * a)
                    * math.exp(delta_window - _PI))

    # Deterministic sub-case: u1 = e^{-a tau - b tau sin log tau} and the
    # second component is Phi22(t) * int Phi22(tau)^-1 u1(tau)^{lam+1} dtau.
    t_star = math.exp(_PI / 2 + 2.0 * _PI)
    tau = np.arange(1e-6, t_star, 0.05)
    osc = tau * np.sin(np.log(tau))
    log_integrand = -lam * a * tau - (lam + 2.0) * b * osc
    # Log-space trapezoid: interior points count twice.
    weights = np.full(tau.size, 0.05)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    log_integral = float(logsumexp(log_integrand + np.log(weights)))
    log_phi22 = (-a + b * math.sin(math.log(t_star))) * t_star
    chi_det = 2.0 * (log_phi22 + log_integral) / t_star

    psys = gallery("perron-sde-perturbed", a=a, b=b, **{"lambda": lam})
    grid = TimeGrid.spanning(_PERRON_T0, horizon, dt)
    pens = simulate_perturbed(psys, np.array([1.0, 0.0]), grid, paths, seed)
    (m,), (se,) = _mean_squares([np.moveaxis(pens.values[-1, :, 1:], 0, -1)], 1, paths)
    chi_mc = math.log(m) / horizon if m > 0 else -math.inf
    chi_mc_stderr = (se / m) / horizon if m > 0 else math.inf
    return PerronReport(a=a, b=b, lam=lam, delta_window=delta_window,
                        growth_bound=growth_bound, t_star=t_star,
                        chi_deterministic=chi_det, chi_mc=chi_mc,
                        chi_mc_stderr=chi_mc_stderr, mc_horizon=horizon,
                        escaped=pens.escaped)
