"""Second-moment Lyapunov exponents and regularity estimation.

The exponent of an initial vector is the limsup of (1/t) log E||u(t)||^2.
Finite-horizon runs estimate it as the max of that quantity over log-spaced
checkpoints in the second half of the horizon: early checkpoints carry
transients, and oscillating systems (the log-time examples) attain their
superior limit only along sparse time sequences.

Values are normalized by the initial trace, which makes the ODE-route
estimate exactly invariant under scaling of the initial vector by powers
of two and invariant to rounding otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engines import (TimeGrid, _mean_squares, euler_maruyama, moment_log_trace,
                      simulate_vectors)
from .model import LinearSde, adjoint
from .numerics import MsdError, RngStream


class LyapunovError(MsdError):
    """Estimation precondition failure or violated sanity bound."""


@dataclass(frozen=True)
class LyapunovEstimate:
    chi: float
    ts: np.ndarray          # checkpoint times, log-spaced
    values: np.ndarray      # (1/t) log(E||u||^2 / ||u0||^2) at checkpoints
    method: str             # "ode" | "mc"
    stderr: float | None    # propagated at the argmax checkpoint; None = exact
    window: tuple[float, float]


@dataclass(frozen=True)
class SpectrumEstimate:
    values: tuple[float, ...]          # distinct exponents, increasing
    multiplicities: tuple[int, ...]    # canonical-basis members per cluster
    split_index: int                   # count of negative values
    tolerance: float
    per_vector: tuple[float, ...]      # raw chi of every probe vector


@dataclass(frozen=True)
class DualityReport:
    sums: np.ndarray                   # chi(u_i) + chi_adj(v_i)
    chis: np.ndarray
    chis_adjoint: np.ndarray
    max_pairing_drift: float           # max |<u_i(t), v_j(t)> - delta_ij|
    method: str


@dataclass(frozen=True)
class RegularityEstimate:
    """Candidate-basis estimate of the regularity coefficient.

    This is only an upper estimate: the true coefficient minimizes over all
    dual basis pairs, and we minimize over the supplied candidates.
    """

    gamma_upper_estimate: float
    per_pair_max: tuple[float, ...]
    per_pair_sums: tuple[tuple[float, ...], ...]


# Checkpoints per estimate, log-spaced from a thousandth of the span to the horizon.
_CHECKPOINTS = 128

# Random probe j reads stream _PROBE_STREAMS + j. Path m of a Monte Carlo run
# reads stream m, and the store limit keeps every run far below 2^62 paths.
_PROBE_STREAMS = 2 ** 62


def chi_estimate(system: LinearSde, u0, horizon: float, method: str = "ode",
                 dt: float = 1e-2, paths: int = 10_000, seed: int = 0,
                 t_start: float = 0.0) -> LyapunovEstimate:
    """Finite-horizon estimate of the second-moment exponent of u0."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (system.dim,):
        raise LyapunovError(f"u0 must be a vector of length {system.dim}")
    norm0_sq = float(u0 @ u0)
    if not 0.0 < norm0_sq < math.inf:
        raise LyapunovError("initial vector must be nonzero and finite")
    # A negative start would give NaN log-spaced checkpoints and divide by a
    # negative t.
    if not t_start >= 0.0:
        raise LyapunovError(f"t_start must be non-negative, got {t_start!r}")
    if horizon <= t_start:
        raise LyapunovError("horizon must exceed the start time")
    if method not in ("ode", "mc"):
        raise LyapunovError(f"unknown method '{method}'")

    # Log-spaced checkpoints, snapped to the nodes of the grid both routes use.
    grid = TimeGrid.spanning(t_start, horizon, dt)
    cps = np.geomspace(t_start + (horizon - t_start) * 1e-3, horizon, _CHECKPOINTS)
    nodes = np.unique(np.clip(np.round((cps - t_start) / grid.dt).astype(int), 1, grid.steps))
    ts = grid.times()[nodes]
    if method == "ode":
        # Log-scale route: values arrive as log(trace/trace0), immune to
        # overflow on strongly growing (adjoint) systems.
        curve = moment_log_trace(system, np.outer(u0, u0), t_start, horizon, dt=dt)
        vals = curve.values[nodes] / ts
    else:
        _, states = simulate_vectors(system, grid, paths, seed, u0, record_nodes=nodes)
        means, errs = _mean_squares(np.moveaxis(states, 1, -1), len(nodes), paths)
        vals = np.log(means / norm0_sq) / ts

    window = (horizon / 2.0, horizon)
    mask = ts >= window[0]
    if not np.any(mask):
        raise LyapunovError("no checkpoints in the tail window")
    tail_idx = np.flatnonzero(mask)
    best = tail_idx[int(np.argmax(vals[mask]))]
    stderr = None if method == "ode" else float(errs[best] / means[best] / ts[best])
    return LyapunovEstimate(chi=float(vals[best]), ts=ts, values=vals, method=method,
                            stderr=stderr, window=window)


def spectrum(system: LinearSde, horizon: float, trials: int, method: str = "ode",
             dt: float = 1e-2, paths: int = 10_000, seed: int = 0,
             t_start: float = 0.0, tolerance: float = 0.05) -> SpectrumEstimate:
    """Cluster exponents of the canonical basis plus random unit vectors.

    ``trials`` counts all probe vectors; the first n are the canonical
    basis, the rest are seeded random directions. Multiplicities count
    canonical members only, so they always sum to n.
    """
    n = system.dim
    if not tolerance >= 0.0:
        raise LyapunovError("tolerance must be nonnegative")
    if trials < n:
        raise LyapunovError(f"need at least {n} trials to cover the canonical basis")
    probes = [np.eye(n)[:, i] for i in range(n)]
    for j in range(trials - n):
        gen = RngStream(seed, _PROBE_STREAMS + j).generator()
        v = gen.standard_normal(n)
        while np.linalg.norm(v) < 1e-6:
            v = gen.standard_normal(n)
        probes.append(v / np.linalg.norm(v))

    chis = [
        chi_estimate(system, v, horizon, method=method, dt=dt, paths=paths,
                     seed=seed + 31 * i, t_start=t_start).chi
        for i, v in enumerate(probes)
    ]

    order = np.argsort(chis)
    clusters: list[list[int]] = []
    for pos in order:
        if clusters and chis[pos] - chis[clusters[-1][-1]] <= tolerance:
            clusters[-1].append(int(pos))
        else:
            clusters.append([int(pos)])
    values = tuple(float(np.mean([chis[i] for i in members])) for members in clusters)
    mults = tuple(sum(1 for i in members if i < n) for members in clusters)
    # Strictly negative, with headroom for float dust around a zero exponent.
    split = sum(1 for v in values if v < -1e-12)
    return SpectrumEstimate(values=values, multiplicities=mults, split_index=split,
                            tolerance=tolerance, per_vector=tuple(float(c) for c in chis))


def _check_dual(basis: np.ndarray, dual_basis: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    b = np.asarray(basis, dtype=float)
    d = np.asarray(dual_basis, dtype=float)
    if b.shape != (n, n) or d.shape != (n, n):
        raise LyapunovError(f"bases must be {n}x{n} matrices with vectors as columns")
    gram = b.T @ d
    if np.max(np.abs(gram - np.eye(n))) > 1e-10:
        raise LyapunovError("bases are not dual: <u_i, v_j> != delta_ij")
    return b, d


def _dual_chis(system: LinearSde, tilde: LinearSde, b: np.ndarray, d: np.ndarray,
               seed: int, **estimate) -> tuple[np.ndarray, np.ndarray]:
    """chi(u_i) on seed + 2i and chi_adj(v_i) on seed + 2i + 1 for the columns
    of a dual basis pair; ``estimate`` holds chi_estimate's other arguments."""
    n = system.dim
    chis = np.array([chi_estimate(system, b[:, i], seed=seed + 2 * i, **estimate).chi
                     for i in range(n)])
    chis_adj = np.array([chi_estimate(tilde, d[:, i], seed=seed + 2 * i + 1, **estimate).chi
                         for i in range(n)])
    return chis, chis_adj


def duality_defect(system: LinearSde, basis, dual_basis, horizon: float,
                   method: str = "ode", dt: float = 1e-2, paths: int = 10_000,
                   seed: int = 0, t_start: float = 0.0,
                   drift_paths: int = 4, drift_dt: float = 1e-3) -> DualityReport:
    """Exponent sums chi(u_i) + chi_adj(v_i) for a dual basis pair.

    Each sum must come out >= -0.05; flat-out negative sums mean the
    estimator or the adjoint construction is broken, so that raises. Also
    reports how well <u_i(t), v_j(t)> = delta_ij survives discretization
    on a small coupled ensemble.
    """
    n = system.dim
    b, d = _check_dual(basis, dual_basis, n)
    chis, chis_adj = _dual_chis(system, adjoint(system), b, d, seed, horizon=horizon,
                                method=method, dt=dt, paths=paths, t_start=t_start)
    sums = chis + chis_adj
    worst = float(np.min(sums))
    if worst < -0.05:
        raise LyapunovError(
            f"duality sum {worst:.4f} below -0.05 for basis vector {int(np.argmin(sums))}"
        )

    # The pairing is read node by node as the coupled ensemble is stepped;
    # no node is kept.
    drift_grid = TimeGrid.spanning(t_start, t_start + min(1.0, horizon - t_start), drift_dt)
    worst = np.empty(drift_grid.count)
    for k, phi, psi_t in euler_maruyama(system, drift_grid, drift_paths, seed,
                                        np.arange(drift_grid.count), inverse=True):
        phi = np.ascontiguousarray(phi.transpose(2, 0, 1))
        psi = np.ascontiguousarray(psi_t.transpose(2, 1, 0))
        prod = np.einsum("pij,pjl->pil", psi, phi)
        pairing = np.einsum("ai,pba,bj->pij", b, prod, d)
        worst[k] = np.max(np.abs(pairing - np.eye(n)))
    drift = float(np.max(worst))
    return DualityReport(sums=sums, chis=chis, chis_adjoint=chis_adj,
                         max_pairing_drift=drift, method=method)


def regularity_estimate(system: LinearSde, candidate_bases, horizon: float,
                        method: str = "ode", dt: float = 1e-2, paths: int = 10_000,
                        seed: int = 0, t_start: float = 0.0) -> RegularityEstimate:
    """Upper estimate of the regularity coefficient over candidate bases."""
    if not candidate_bases:
        raise LyapunovError("need at least one candidate basis pair")
    n = system.dim
    tilde = adjoint(system)
    per_pair_sums = []
    per_pair_max = []
    for pair_idx, (basis, dual_basis) in enumerate(candidate_bases):
        b, d = _check_dual(basis, dual_basis, n)
        chis, chis_adj = _dual_chis(system, tilde, b, d, seed + 977 * pair_idx,
                                    horizon=horizon, method=method, dt=dt, paths=paths,
                                    t_start=t_start)
        sums = tuple(float(x) for x in chis + chis_adj)
        per_pair_sums.append(sums)
        per_pair_max.append(max(sums))
    gamma = float(min(per_pair_max))
    return RegularityEstimate(
        gamma_upper_estimate=gamma,
        per_pair_max=tuple(per_pair_max),
        per_pair_sums=tuple(per_pair_sums),
    )
