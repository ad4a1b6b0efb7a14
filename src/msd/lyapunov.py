"""Second-moment Lyapunov exponents and regularity estimation.

The exponent of an initial vector is the limsup of (1/t) log E||u(t)||^2.
Finite-horizon runs estimate it as the max of that quantity over log-spaced
checkpoints in the second half of the horizon: early checkpoints carry
transients, and oscillating systems (the log-time examples) attain their
superior limit only along sparse time sequences.

Values are normalized by the initial trace, which makes the ODE-route
estimate exactly invariant under scaling of the initial vector by powers
of two and invariant to rounding otherwise.

On the ODE route every vector of one estimate shares a single pass of the
moment loop: the probes of a spectrum, with any vector asked about beside
them, and the bases on the system beside their dual bases on the adjoint
for the exponent sums of a duality check and of every candidate pair of a
regularity estimate. A grid too long for all of them at once within
CHUNK_VALUES stored numbers splits them over a few passes. Each vector's
exponent equals its pass alone bit for bit. The Monte Carlo route runs one seeded
simulation per vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engines
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


def chi_estimate(system: LinearSde | list[LinearSde], u0, horizon: float, method: str = "ode",
                 dt: float = 1e-2, paths: int = 10_000, seed: int | list[int] = 0,
                 t_start: float = 0.0) -> LyapunovEstimate | list[LyapunovEstimate]:
    """Finite-horizon estimate of the second-moment exponent of u0.

    A stack u0 [k, n] gives a list of k estimates, one per row. On the ODE
    route the rows share one pass of the moment loop, or as few passes as
    keep each within CHUNK_VALUES stored numbers on a long grid; the Monte
    Carlo route runs each row on its own. ``system`` and ``seed`` are then one for every
    row or lists of one per row, such as a basis on the system beside its
    dual basis on the adjoint.
    """
    vectors = np.asarray(u0, dtype=float)
    rows = vectors[None] if vectors.ndim == 1 else vectors
    if rows.ndim != 2 or not len(rows):
        raise LyapunovError("u0 must be a vector or a nonempty stack of vectors")
    systems = [system] * len(rows) if isinstance(system, LinearSde) else list(system)
    seeds = list(seed) if isinstance(seed, (list, tuple)) else [seed] * len(rows)
    if not len(systems) == len(seeds) == len(rows):
        raise LyapunovError(f"need one system and one seed per vector, got {len(systems)} "
                            f"and {len(seeds)} for {len(rows)}")
    n = systems[0].dim
    if rows.shape[1] != n or any(s.dim != n for s in systems):
        raise LyapunovError(f"u0 must be a vector of length {n}")
    norms0_sq = [float(v @ v) for v in rows]
    if not all(0.0 < norm < math.inf for norm in norms0_sq):
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
        # overflow on strongly growing (adjoint) systems. A pass holds three
        # numbers per row and node of which only the checkpoints are kept,
        # so the rows share passes of at most CHUNK_VALUES numbers each.
        per_pass = max(1, engines.CHUNK_VALUES // (3 * grid.count))
        runs = []
        for lo in range(0, len(rows), per_pass):
            part = rows[lo:lo + per_pass]
            curve = moment_log_trace(systems[lo:lo + per_pass],
                                     part[:, :, None] * part[:, None, :], t_start, horizon,
                                     dt=dt)
            runs += [(values / ts, None, None) for values in curve.values[:, nodes]]
    else:
        runs = []
        for sys_j, seed_j, v, norm0_sq in zip(systems, seeds, rows, norms0_sq):
            _, states = simulate_vectors(sys_j, grid, paths, seed_j, v, record_nodes=nodes)
            means, errs = _mean_squares(np.moveaxis(states, 1, -1), len(nodes), paths)
            del states          # freed before the next vector's run
            runs.append((np.log(means / norm0_sq) / ts, means, errs))

    window = (horizon / 2.0, horizon)
    mask = ts >= window[0]
    if not np.any(mask):
        raise LyapunovError("no checkpoints in the tail window")
    tail_idx = np.flatnonzero(mask)
    estimates = []
    for vals, means, errs in runs:
        best = tail_idx[int(np.argmax(vals[mask]))]
        stderr = None if method == "ode" else float(errs[best] / means[best] / ts[best])
        estimates.append(LyapunovEstimate(chi=float(vals[best]), ts=ts, values=vals,
                                          method=method, stderr=stderr, window=window))
    return estimates[0] if vectors.ndim == 1 else estimates


def spectrum(system: LinearSde, horizon: float, trials: int, method: str = "ode",
             dt: float = 1e-2, paths: int = 10_000, seed: int = 0,
             t_start: float = 0.0, tolerance: float = 0.05) -> SpectrumEstimate:
    """Cluster exponents of the canonical basis plus random unit vectors.

    ``trials`` counts all probe vectors; the first n are the canonical
    basis, the rest are seeded random directions. Multiplicities count
    canonical members only, so they always sum to n.
    """
    est, _ = _spectrum_and_chis(system, [], horizon, trials, method=method, dt=dt,
                                paths=paths, seed=seed, t_start=t_start, tolerance=tolerance)
    return est


def _spectrum_and_chis(system: LinearSde, vectors, horizon: float, trials: int, method: str,
                       dt: float, paths: int, seed: int, t_start: float,
                       tolerance: float) -> tuple[SpectrumEstimate, list[LyapunovEstimate]]:
    """The :func:`spectrum` of ``system``, and the estimate of each of
    ``vectors`` on ``seed`` as :func:`chi_estimate` makes it alone: the
    vectors are stacked below the probes, so on the ODE route the spectrum
    and the vectors share one pass of the moment loop."""
    n = system.dim
    if not tolerance >= 0.0:
        raise LyapunovError("tolerance must be nonnegative")
    if trials < n:
        raise LyapunovError(f"need at least {n} trials to cover the canonical basis")
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if any(v.shape != (n,) for v in vectors):
        raise LyapunovError(f"u0 must be a vector of length {n}")
    probes = [np.eye(n)[:, i] for i in range(n)]
    for j in range(trials - n):
        gen = RngStream(seed, _PROBE_STREAMS + j).generator()
        v = gen.standard_normal(n)
        while np.linalg.norm(v) < 1e-6:
            v = gen.standard_normal(n)
        probes.append(v / np.linalg.norm(v))

    ests = chi_estimate(system, np.array(probes + vectors), horizon, method=method, dt=dt,
                        paths=paths, seed=[seed + 31 * i for i in range(trials)]
                        + [seed] * len(vectors), t_start=t_start)
    chis = [est.chi for est in ests[:trials]]

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
    est = SpectrumEstimate(values=values, multiplicities=mults, split_index=split,
                           tolerance=tolerance, per_vector=tuple(float(c) for c in chis))
    return est, ests[trials:]


def _check_dual(basis: np.ndarray, dual_basis: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    b = np.asarray(basis, dtype=float)
    d = np.asarray(dual_basis, dtype=float)
    if b.shape != (n, n) or d.shape != (n, n):
        raise LyapunovError(f"bases must be {n}x{n} matrices with vectors as columns")
    gram = b.T @ d
    if np.max(np.abs(gram - np.eye(n))) > 1e-10:
        raise LyapunovError("bases are not dual: <u_i, v_j> != delta_ij")
    return b, d


def _dual_chis(system: LinearSde, tilde: LinearSde, pairs, seeds,
               **estimate) -> list[tuple[np.ndarray, np.ndarray]]:
    """chi(u_i) on seed + 2i and chi_adj(v_i) on seed + 2i + 1 for the columns
    of each dual basis pair (b, d) of ``pairs``, with its seed of ``seeds``:
    every basis on the system and every dual basis on the adjoint in one
    chi_estimate call, so one pass of the moment loop on the ODE route where
    CHUNK_VALUES allows; ``estimate`` holds chi_estimate's other arguments."""
    n = system.dim
    ests = chi_estimate(([system] * n + [tilde] * n) * len(pairs),
                        np.concatenate([m.T for b, d in pairs for m in (b, d)]),
                        seed=[s + 2 * i + side for s in seeds for side in (0, 1)
                              for i in range(n)],
                        **estimate)
    chis = np.array([est.chi for est in ests]).reshape(len(pairs), 2, n)
    return [(pair[0], pair[1]) for pair in chis]


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
    [(chis, chis_adj)] = _dual_chis(system, adjoint(system), [(b, d)], [seed],
                                    horizon=horizon, method=method, dt=dt, paths=paths,
                                    t_start=t_start)
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
    """Upper estimate of the regularity coefficient over candidate bases.

    The 2n exponents of every candidate pair share one chi_estimate call,
    so one pass of the moment loop on the ODE route where CHUNK_VALUES
    allows; each equals its pair's estimate alone bit for bit.
    """
    if not candidate_bases:
        raise LyapunovError("need at least one candidate basis pair")
    n = system.dim
    pairs = [_check_dual(basis, dual_basis, n) for basis, dual_basis in candidate_bases]
    per_pair_sums = []
    per_pair_max = []
    for chis, chis_adj in _dual_chis(system, adjoint(system), pairs,
                                     [seed + 977 * p for p in range(len(pairs))],
                                     horizon=horizon, method=method, dt=dt, paths=paths,
                                     t_start=t_start):
        sums = tuple(float(x) for x in chis + chis_adj)
        per_pair_sums.append(sums)
        per_pair_max.append(max(sums))
    gamma = float(min(per_pair_max))
    return RegularityEstimate(
        gamma_upper_estimate=gamma,
        per_pair_max=tuple(per_pair_max),
        per_pair_sums=tuple(per_pair_sums),
    )
