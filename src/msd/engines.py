"""Solution engines for the linear SDE and its second moments.

Three routes to the same quantities, used to cross-check each other:

* Monte Carlo: Euler-Maruyama on the fundamental matrix, with the inverse
  propagated alongside by its own SDE on the same Brownian increments
  (never by numerical inversion).
* Deterministic: the matrix ODE for E[u u^T], integrated with a classical
  4th-order step. Exact up to discretization, no sampling error.
* Closed forms: scalar variation-of-constants and the triangular recursion,
  evaluated with left-point Ito quadrature on a shared path.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .model import LinearSde, Projector, adjoint
from .numerics import BrownianPath, BrownianStreams, brownian_batch, pairwise_mean_std


class EngineError(ValueError):
    """Engine precondition or runtime failure."""


class ExplosionError(EngineError):
    """A simulated entry left the representable range."""

    def __init__(self, which: str, node: int, t: float, path: int, entry: tuple):
        self.which = which
        self.node = node
        self.path = path
        self.entry = entry
        super().__init__(
            f"{which} exploded at node {node} (t={t:.6g}): "
            f"path {path}, entry {entry} beyond 1e150"
        )


class NonPsdError(EngineError):
    """Moment matrix lost positive semidefiniteness."""

    def __init__(self, t: float, eigenvalue: float, trace: float):
        self.t = t
        self.eigenvalue = eigenvalue
        super().__init__(
            f"moment matrix not PSD at t={t:.6g}: "
            f"min eigenvalue {eigenvalue:.3e}, trace {trace:.3e}"
        )


EXPLOSION_THRESHOLD = 1e150


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k*dt with ``count`` nodes."""

    t0: float
    dt: float
    count: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise EngineError("dt must be positive")
        if self.count < 2:
            raise EngineError("grid needs at least 2 nodes")

    @property
    def steps(self) -> int:
        return self.count - 1

    @property
    def t_end(self) -> float:
        return self.t0 + self.steps * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.count)

    def node_at(self, t: float) -> int:
        k = round((t - self.t0) / self.dt)
        if not 0 <= k <= self.steps or abs(self.t0 + k * self.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise EngineError(f"t={t!r} is not a grid node")
        return k

    @classmethod
    def spanning(cls, t0: float, t1: float, dt: float) -> "TimeGrid":
        """Grid from t0 to (at least) t1 whose dt divides the span exactly."""
        if t1 <= t0:
            raise EngineError("need t1 > t0")
        steps = max(1, math.ceil((t1 - t0) / dt - 1e-12))
        return cls(t0=t0, dt=(t1 - t0) / steps, count=steps + 1)


@dataclass(frozen=True)
class MomentCurve:
    """E||u(t)||^2 samples; stderrs None means the values are exact."""

    ts: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray | None = None

    @property
    def exact(self) -> bool:
        return self.stderrs is None


@dataclass(frozen=True)
class MomentSurface:
    """Second-moment values over (s, t) pairs, one sense at a time."""

    ss: np.ndarray
    ts: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray | None
    sense: str  # "stable" (t >= s) or "unstable" (t <= s)


@dataclass(frozen=True)
class FundamentalEnsemble:
    """Phi and its coupled inverse Psi at the held nodes of every path.

    Arrays are indexed [held node, path, row, col]; ``nodes`` lists the grid
    nodes held, ascending, and None means every node. The increments
    [path, step] are retained so perturbed systems can be driven by the
    exact same noise; an ensemble of selected nodes does not keep them.
    """

    system: LinearSde
    grid: TimeGrid
    paths: int
    seed: int
    phi: np.ndarray
    psi: np.ndarray
    increments: np.ndarray | None
    nodes: np.ndarray | None = None

    def position(self, node: int) -> int:
        """Index into ``phi`` and ``psi`` of grid node ``node``."""
        if not 0 <= node <= self.grid.steps:
            raise EngineError(f"node {node} out of range")
        if self.nodes is None:
            return node
        j = int(np.searchsorted(self.nodes, node))
        if j == len(self.nodes) or self.nodes[j] != node:
            raise EngineError(f"node {node} is not held by the ensemble")
        return j


def _scan_explosion(arr: np.ndarray, which: str, node: int, t: float) -> None:
    peak = np.max(np.abs(arr))
    if np.isfinite(peak) and peak <= EXPLOSION_THRESHOLD:
        return
    bad = ~np.isfinite(arr) | (np.abs(arr) > EXPLOSION_THRESHOLD)
    where = np.argwhere(bad)[0]
    path, entry = int(where[0]), tuple(int(i) for i in where[1:])
    raise ExplosionError(which, node, t, path, entry)


# Increments are drawn, and coefficients tabulated, for about this many values
# at a time (32 MB of float64), so an Euler-Maruyama run holds
# O(paths x (n^2 + CHUNK_VALUES / paths)) numbers whatever its horizon.
CHUNK_VALUES = 2 ** 22


def _requested_nodes(nodes, grid: TimeGrid) -> np.ndarray:
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    if len(nodes) == 0 or nodes[0] < 0 or nodes[-1] > grid.steps:
        raise EngineError("record nodes out of range")
    return nodes


def euler_maruyama(system: LinearSde, grid: TimeGrid, paths: int, seed: int, nodes,
                   x0=None, inverse: bool = False, increments: np.ndarray | None = None):
    """Euler-Maruyama states at the requested grid nodes, one node at a time.

    Steps the fundamental matrix d(Phi) = A Phi dt + G Phi dw from Phi = Id
    as a [path, n, n] stack or, given ``x0`` (shape (n,) or (paths, n)), the
    vector solutions u = Phi x0 as a [path, n] stack. With ``inverse`` the
    coupled inverse d(Psi) = Psi(-A + G^2) dt - Psi G dw is stepped alongside
    on the same increments. Yields ``(node, state, psi)`` at each node of
    ``nodes`` in ascending order (``psi`` None without ``inverse``) after
    checking them against the explosion threshold, and stops at the last
    one. A yielded array is never written again, so it may be kept.

    The increments are the per-path streams of :func:`brownian_batch`,
    drawn a block of steps at a time, or ``increments`` [path, step] if
    given. The coefficients are tabulated per block too.
    """
    if paths < 1:
        raise EngineError("need at least one path")
    n = system.dim
    nodes = _requested_nodes(nodes, grid)
    eye = np.eye(n)
    if x0 is None:
        which = "fundamental matrix"
        state = np.tile(eye, (paths, 1, 1))
    else:
        which = "vector solution"
        x0 = np.asarray(x0, dtype=float)
        state = np.tile(x0, (paths, 1)) if x0.ndim == 1 else x0.copy()
        if state.shape != (paths, n):
            raise EngineError(f"x0 must have shape ({n},) or ({paths}, {n})")
    psi = np.tile(eye, (paths, 1, 1)) if inverse else None
    if increments is None:
        streams = BrownianStreams(seed, paths, grid.dt)
    elif increments.shape != (paths, grid.steps):
        raise EngineError(f"increments must have shape ({paths}, {grid.steps})")

    dt = grid.dt
    pos = 0
    if nodes[0] == 0:
        yield 0, state, psi
        pos = 1
    last = int(nodes[-1])
    block = max(1, CHUNK_VALUES // (paths + 3 * n * n))
    for k0 in range(0, last, block):
        k1 = min(k0 + block, last)
        times = grid.t0 + dt * np.arange(k0, k1 + 1)
        a = system.drift_at(times[:-1])
        g = system.diffusion_at(times[:-1])
        b = -a + g @ g if inverse else None
        incr = streams.draw(k1 - k0) if increments is None else increments[:, k0:k1]
        for i in range(k1 - k0):
            dw = incr[:, i]
            # A @ Phi for matrices, u @ A^T for vectors: the two orders differ
            # in the last bits, and each route keeps its own.
            if x0 is None:
                state = state + dt * (a[i] @ state) + dw[:, None, None] * (g[i] @ state)
            else:
                state = state + dt * (state @ a[i].T) + dw[:, None] * (state @ g[i].T)
            if inverse:
                psi = psi + dt * (psi @ b[i]) - dw[:, None, None] * (psi @ g[i])
            if nodes[pos] == k0 + i + 1:
                _scan_explosion(state, which, k0 + i + 1, times[i + 1])
                if inverse:
                    _scan_explosion(psi, "coupled inverse", k0 + i + 1, times[i + 1])
                yield k0 + i + 1, state, psi
                pos += 1


def fundamental_at(system: LinearSde, grid: TimeGrid, paths: int, seed: int, nodes,
                   increments: np.ndarray | None = None) -> FundamentalEnsemble:
    """Phi and Psi at the given grid nodes only; see :func:`euler_maruyama`.

    The ensemble keeps ``increments`` when they are given, and none otherwise.
    """
    nodes = _requested_nodes(nodes, grid)
    n = system.dim
    phi = np.empty((len(nodes), paths, n, n))
    psi = np.empty_like(phi)
    states = euler_maruyama(system, grid, paths, seed, nodes, inverse=True,
                            increments=increments)
    for j, (_, phi_k, psi_k) in enumerate(states):
        phi[j] = phi_k
        psi[j] = psi_k
    return FundamentalEnsemble(
        system=system, grid=grid, paths=paths, seed=seed, phi=phi, psi=psi,
        increments=increments, nodes=None if len(nodes) == grid.count else nodes,
    )


def simulate_fundamental(system: LinearSde, grid: TimeGrid, paths: int, seed: int) -> FundamentalEnsemble:
    """Euler-Maruyama for d(Phi) = A Phi dt + G Phi dw and the coupled
    inverse d(Psi) = Psi(-A + G^2) dt - Psi G dw on the same increments,
    kept at every node together with the increments."""
    if paths < 1:
        raise EngineError("need at least one path")
    incr = brownian_batch(seed, paths, grid.dt, grid.steps)
    return fundamental_at(system, grid, paths, seed, np.arange(grid.count), incr)


def simulate_vectors(system: LinearSde, grid: TimeGrid, paths: int, seed: int,
                     x0, record_nodes=None) -> tuple[np.ndarray, np.ndarray]:
    """Vector solutions u(t) = Phi(t) x0 recorded at selected nodes.

    Returns (nodes, values) with values[j, path] the state at record node j.
    Cheaper than a full ensemble when only a few checkpoints matter.
    """
    nodes = _requested_nodes(np.arange(grid.count) if record_nodes is None else record_nodes,
                             grid)
    out = np.empty((len(nodes), paths, system.dim))
    for j, (_, u, _) in enumerate(euler_maruyama(system, grid, paths, seed, nodes, x0=x0)):
        out[j] = u
    return nodes, out


def mc_moment_curve(system: LinearSde, grid: TimeGrid, paths: int, seed: int) -> MomentCurve:
    """Monte Carlo E||Phi(t)||_F^2 at every node, without keeping the ensemble.

    Per-path sums of squares are reduced over paths in blocks of nodes, one
    stacked pairwise_mean_std call per block, so the values equal the
    reduction of a stored ensemble bit for bit while memory stays bounded.
    """
    block = max(1, CHUNK_VALUES // paths)
    sums = np.empty((min(block, grid.count), paths))
    means = np.empty(grid.count)
    stds = np.empty(grid.count)
    for k, phi, _ in euler_maruyama(system, grid, paths, seed, np.arange(grid.count)):
        j = k % block
        sums[j] = np.sum(phi ** 2, axis=(1, 2))
        if j == block - 1 or k == grid.steps:
            means[k - j:k + 1], stds[k - j:k + 1] = pairwise_mean_std(sums[:j + 1])
    return MomentCurve(ts=grid.times(), values=means, stderrs=stds / math.sqrt(paths))


# ---------------------------------------------------------------------------
# Deterministic second-moment engine


def _moment_rhs(a: np.ndarray, g: np.ndarray, p: np.ndarray) -> np.ndarray:
    ap = a @ p
    return ap + ap.T + g @ p @ g.T


def _moment_loop(system: LinearSde, p0, t_from: float, t_to: float, dt: float,
                 log_scale: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p = np.array(p0, dtype=float)
    n = system.dim
    if p.shape != (n, n):
        raise EngineError(f"initial moment matrix must be {n}x{n}")
    if np.linalg.norm(p - p.T) > 1e-12 * (1.0 + np.linalg.norm(p)):
        raise EngineError("initial moment matrix must be symmetric")
    w0 = np.linalg.eigvalsh((p + p.T) / 2.0)[0]
    if w0 < -1e-9 * max(1.0, abs(np.trace(p))):
        raise NonPsdError(t_from, float(w0), float(np.trace(p)))
    if t_to <= t_from:
        raise EngineError("need t_to > t_from")

    steps = max(1, math.ceil((t_to - t_from) / dt - 1e-12))
    h = (t_to - t_from) / steps
    stage_times = t_from + (h / 2.0) * np.arange(2 * steps + 1)
    a_all = system.drift_at(stage_times)
    g_all = system.diffusion_at(stage_times)

    p = (p + p.T) / 2.0
    if log_scale:
        # Relative to the initial trace; lets exponents far beyond float
        # range be tracked through periodic renormalization.
        tr0 = np.trace(p)
        if tr0 <= 0.0:
            raise EngineError("log-scale route needs a positive initial trace")
        p = p / tr0
    log_acc = 0.0
    values = np.empty(steps + 1)
    values[0] = 0.0 if log_scale else np.trace(p)
    for k in range(steps):
        a0, g0 = a_all[2 * k], g_all[2 * k]
        am, gm = a_all[2 * k + 1], g_all[2 * k + 1]
        a1, g1 = a_all[2 * k + 2], g_all[2 * k + 2]
        k1 = _moment_rhs(a0, g0, p)
        k2 = _moment_rhs(am, gm, p + (h / 2.0) * k1)
        k3 = _moment_rhs(am, gm, p + (h / 2.0) * k2)
        k4 = _moment_rhs(a1, g1, p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        p = (p + p.T) / 2.0
        tr = np.trace(p)
        if log_scale:
            if not (0.0 < tr < np.inf):
                raise EngineError(
                    f"moment integration diverged at t={t_from + (k + 1) * h:.6g}"
                )
            if tr > 1e100 or tr < 1e-100:
                log_acc += math.log(tr)
                p = p / tr
                tr = np.trace(p)
            values[k + 1] = log_acc + math.log(tr)
        else:
            values[k + 1] = tr
        if (k + 1) % 25 == 0 or k == steps - 1:
            t_here = t_from + (k + 1) * h
            if not np.all(np.isfinite(p)):
                raise EngineError(f"moment integration diverged at t={t_here:.6g}")
            w = np.linalg.eigvalsh(p)[0]
            if log_scale:
                # Rank-deficient starts pick up O((h*lambda)^5) negative
                # wobble per step; between checks that stays well under
                # 1e-6 of trace, so anything bigger is a real defect.
                if w < -1e-6 * max(1.0, abs(tr)):
                    raise NonPsdError(t_here, float(w), float(tr))
                if w < 0.0:
                    evals, evecs = np.linalg.eigh(p)
                    p = (evecs * np.maximum(evals, 0.0)) @ evecs.T
            elif w < -1e-9 * max(1.0, abs(tr)):
                raise NonPsdError(t_here, float(w), float(tr))
    return t_from + h * np.arange(steps + 1), values, p


def moment_ode(system: LinearSde, p0, t_from: float, t_to: float,
               dt: float = 1e-3) -> tuple[MomentCurve, np.ndarray]:
    """Integrate d/dt E[u u^T] = A M + M A^T + G M G^T from M(t_from) = p0.

    Returns the trace curve on the internal grid and the final matrix.
    """
    ts, traces, p = _moment_loop(system, p0, t_from, t_to, dt, log_scale=False)
    return MomentCurve(ts=ts, values=traces), p


def moment_log_trace(system: LinearSde, p0, t_from: float, t_to: float,
                     dt: float = 1e-3) -> MomentCurve:
    """Like moment_ode but returns log(trace M(t) / trace M(t_from)).

    The matrix is renormalized whenever its trace leaves [1e-100, 1e100],
    so exponents of order hundreds per unit time stay representable.
    """
    ts, logs, _ = _moment_loop(system, p0, t_from, t_to, dt, log_scale=True)
    return MomentCurve(ts=ts, values=logs)


def transition_second_moment(system: LinearSde, s: float, t: float,
                             projector: Projector | None = None,
                             dt: float = 1e-3) -> float:
    """E||Phi(t) P Phi^-1(s)||_F^2 for the canonical projector, ODE route.

    t >= s uses P itself; t < s uses the complement Id - P (the unstable
    sense). No projector means the full identity either way. A projector of
    intermediate rank requires the system to be block-diagonal conformal
    with it, because only then does P commute with the flow and the quantity
    reduce to a one-sided moment ODE; otherwise use mc_second_moment.
    """
    n = system.dim
    rank = n if projector is None else projector.rank
    if projector is not None and 0 < rank < n and not system.is_block_diagonal(rank):
        raise EngineError(
            "projector couples the blocks on this system; use Monte Carlo "
            "(mc_second_moment) instead"
        )
    if t == s:
        return float(rank)
    if t > s:
        p0 = np.eye(n) if projector is None else projector.matrix
        _, final = moment_ode(system, p0, s, t, dt=dt)
        return float(np.trace(final))
    # t < s: transposing gives the adjoint flow running forward from t to s.
    q0 = np.eye(n) if projector is None else projector.complement_matrix
    _, final = moment_ode(adjoint(system), q0, t, s, dt=dt)
    return float(np.trace(final))


def mc_second_moment(ens: FundamentalEnsemble, s_node: int, t_node: int,
                     projector: Projector | np.ndarray | None = None,
                     inverse_side: str = "right") -> tuple[float, float]:
    """Monte Carlo E||.||_F^2 from a stored ensemble.

    ``projector`` is a Projector, whose matrix P is applied, or the matrix
    to apply itself (such as a complement Id - P). inverse_side "right":
    ||Phi(t) P Psi(s)||, the sandwiched dichotomy quantity; "left":
    ||Phi(t) Psi(s) P||, projector applied at time s; "none": ||Phi(t) P||,
    no inverse factor.
    """
    if inverse_side not in ("none", "left", "right"):
        raise EngineError(f"unknown inverse_side '{inverse_side}'")
    s_pos = ens.position(s_node)
    t_pos = ens.position(t_node)
    n = ens.system.dim
    if projector is None and s_node == t_node and inverse_side != "none":
        # Phi(t) Phi^-1(t) = Id analytically; skip the integrator drift.
        return float(n), 0.0
    p = projector.matrix if isinstance(projector, Projector) else projector
    phi_t = ens.phi[t_pos]
    if inverse_side == "none":
        prod = phi_t if p is None else phi_t @ p
    else:
        psi_s = ens.psi[s_pos]
        if p is None:
            prod = phi_t @ psi_s
        elif inverse_side == "right":
            prod = (phi_t @ p) @ psi_s
        else:
            prod = (phi_t @ psi_s) @ p
    vals = np.sum(prod * prod, axis=(1, 2))
    mean, std = pairwise_mean_std(vals)
    return float(mean), float(std / math.sqrt(ens.paths))


# ---------------------------------------------------------------------------
# Closed forms


def _coef_values(coef, times: np.ndarray, params) -> np.ndarray:
    if coef is None:
        return np.zeros_like(times)
    if isinstance(coef, str):
        coef = ex.parse(coef)
    if isinstance(coef, (int, float)):
        return np.full_like(times, float(coef))
    out = ex.evaluate(coef, times, params)
    return np.broadcast_to(np.asarray(out, dtype=float), times.shape).copy()


def closed_scalar(a, b, c, d, path: BrownianPath, x0: float, params=None) -> np.ndarray:
    """Scalar variation-of-constants solution on a Brownian path.

    dx = (a x + c) dt + (b x + d) dw. With c = d = None this is the
    homogeneous solution x0 * exp(int(a - b^2/2) dtau + int b dw); otherwise
    the inhomogeneous terms enter through the integrating factor. All
    stochastic integrals use left-point quadrature on the path grid.
    """
    times = path.times()
    left = times[:-1]
    dt = path.dt
    dw = path.increments
    a_v = _coef_values(a, left, params)
    b_v = _coef_values(b, left, params)
    lam = np.concatenate([[0.0], np.cumsum((a_v - 0.5 * b_v * b_v) * dt + b_v * dw)])
    factor = np.exp(lam)
    if c is None and d is None:
        return factor * x0
    c_v = _coef_values(c, left, params)
    d_v = _coef_values(d, left, params)
    inner = np.exp(-lam[:-1]) * ((c_v - b_v * d_v) * dt + d_v * dw)
    return factor * (x0 + np.concatenate([[0.0], np.cumsum(inner)]))


def triangular_fundamental(system: LinearSde, path: BrownianPath) -> tuple[np.ndarray, np.ndarray]:
    """Fundamental matrix of an upper-triangular system by the column
    recursion, and the lower-triangular adjoint counterpart, on one path.

    Returns (U, U_adj), each of shape (count, n, n). Diagonal entries are
    the scalar closed forms exp(+-Lambda_i); off-diagonal entries feed on
    already-built entries of the same column through left-point integrals.
    """
    if not system.is_upper_triangular():
        raise EngineError("triangular engine requires an upper-triangular system")
    n = system.dim
    times = path.times()
    left = times[:-1]
    dt = path.dt
    dw = path.increments
    count = path.steps + 1

    a_all = system.drift_at(left)
    g_all = system.diffusion_at(left)

    lam = np.empty((n, count))
    for i in range(n):
        ai = a_all[:, i, i]
        gi = g_all[:, i, i]
        lam[i] = np.concatenate([[0.0], np.cumsum((ai - 0.5 * gi * gi) * dt + gi * dw)])

    u = np.zeros((count, n, n))
    for i in range(n):
        u[:, i, i] = np.exp(lam[i])
    for j in range(n):
        for i in range(j - 1, -1, -1):
            c_v = np.zeros(count - 1)
            d_v = np.zeros(count - 1)
            for k in range(i + 1, j + 1):
                c_v += a_all[:, i, k] * u[:-1, k, j]
                d_v += g_all[:, i, k] * u[:-1, k, j]
            gii = g_all[:, i, i]
            inner = np.exp(-lam[i][:-1]) * ((c_v - gii * d_v) * dt + d_v * dw)
            u[:, i, j] = np.exp(lam[i]) * np.concatenate([[0.0], np.cumsum(inner)])

    # Adjoint coefficients evaluated numerically; the diagonal exponent is
    # exactly -Lambda_i because (G^2)_ii = g_ii^2 for triangular G.
    at_all = np.transpose(-a_all + g_all @ g_all, (0, 2, 1))
    gt_all = -np.transpose(g_all, (0, 2, 1))
    ut = np.zeros((count, n, n))
    for i in range(n):
        ut[:, i, i] = np.exp(-lam[i])
    for j in range(n):
        for i in range(j + 1, n):
            c_v = np.zeros(count - 1)
            d_v = np.zeros(count - 1)
            for k in range(j, i):
                c_v += at_all[:, i, k] * ut[:-1, k, j]
                d_v += gt_all[:, i, k] * ut[:-1, k, j]
            gii = gt_all[:, i, i]
            inner = np.exp(lam[i][:-1]) * ((c_v - gii * d_v) * dt + d_v * dw)
            ut[:, i, j] = np.exp(-lam[i]) * np.concatenate([[0.0], np.cumsum(inner)])
    return u, ut


# ---------------------------------------------------------------------------
# Serialization helpers


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def curve_to_csv(curve: MomentCurve) -> str:
    # Rows go into one buffer; a list of row strings would add about twice
    # the size of the text.
    out = io.StringIO()
    out.write("t,value,stderr\n")
    errs = curve.stderrs if curve.stderrs is not None else np.zeros_like(curve.values)
    for t, v, e in zip(curve.ts, curve.values, errs):
        out.write(f"{_fmt(t)},{_fmt(v)},{_fmt(e)}\n")
    return out.getvalue()


def curve_to_records(curve: MomentCurve) -> list[dict]:
    errs = curve.stderrs if curve.stderrs is not None else np.zeros_like(curve.values)
    return [
        {"t": float(t), "value": float(v), "stderr": float(e)}
        for t, v, e in zip(curve.ts, curve.values, errs)
    ]


def surface_to_csv(surface: MomentSurface) -> str:
    lines = ["t,s,value,stderr"]
    errs = surface.stderrs if surface.stderrs is not None else np.zeros_like(surface.values)
    for s, t, v, e in zip(surface.ss, surface.ts, surface.values, errs):
        lines.append(f"{_fmt(t)},{_fmt(s)},{_fmt(v)},{_fmt(e)}")
    return "\n".join(lines) + "\n"
