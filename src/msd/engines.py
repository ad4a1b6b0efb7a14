"""Solution engines for the linear SDE and its second moments.

Three routes to the same quantities, used to cross-check each other:

* Monte Carlo: Euler-Maruyama on the fundamental matrix, with the inverse
  propagated alongside by its own SDE on the same Brownian increments
  (never by numerical inversion).
* Deterministic: the matrix ODE for E[u u^T], integrated with a classical
  4th-order step, folded on vech M into one transfer matrix for small n.
  Exact up to discretization, no sampling error.
* Closed forms: scalar variation-of-constants and the triangular recursion,
  evaluated with left-point Ito quadrature on a shared path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .model import LinearSde, PerturbationSpec, PerturbedSde, Projector, adjoint
from .numerics import (BrownianPath, MsdError, NumericFailure, _mean_std_in_place,
                       brownian_batch, pairwise_mean_std)


class EngineError(MsdError):
    """Engine precondition or runtime failure."""


class ExplosionError(EngineError, NumericFailure):
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


class NonPsdError(EngineError, NumericFailure):
    """Moment matrix lost positive semidefiniteness."""

    def __init__(self, t: float, eigenvalue: float, trace: float):
        self.t = t
        self.eigenvalue = eigenvalue
        super().__init__(
            f"moment matrix not PSD at t={t:.6g}: "
            f"min eigenvalue {eigenvalue:.3e}, trace {trace:.3e}"
        )


class DivergenceError(EngineError, NumericFailure):
    """The moment integration left the float64 range: a numeric failure."""


EXPLOSION_THRESHOLD = 1e150

# No grid has more steps than this; no command needs more than 10^4 by default.
_MAX_STEPS = 10 ** 7

# No stored ensemble, and no run's per-path state, holds more bytes than this
# (1 GiB of float64): a larger one is refused before it is allocated, since
# past it a desk machine ends the run with a MemoryError traceback or an OOM
# kill. The largest the tests and the benchmark store is 0.72 GB: Phi and Psi
# of a 2x2 system at 10^4 paths and 1001 nodes, plus the increments.
_MAX_STORE_BYTES = 2 ** 30


def _check_store(values: int, what: str) -> None:
    """Refuse ``values`` float64 numbers beyond the store limit."""
    if 8 * values > _MAX_STORE_BYTES:
        raise EngineError(f"{what} would take {8 * values / 2 ** 30:.3g} GiB, more than "
                          f"the {_MAX_STORE_BYTES / 2 ** 30:g} GiB limit")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k*dt with ``count`` nodes."""

    t0: float
    dt: float
    count: int

    def __post_init__(self):
        if not math.isfinite(self.t0):
            raise EngineError(f"t0 must be finite, got {self.t0!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise EngineError(f"dt must be positive and finite, got {self.dt!r}")
        if self.count < 2:
            raise EngineError("grid needs at least 2 nodes")
        if self.count - 1 > _MAX_STEPS:
            raise EngineError(f"grid needs more than {_MAX_STEPS:.0e} steps; "
                              "use a larger dt")

    @property
    def steps(self) -> int:
        return self.count - 1

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
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise EngineError(f"time bounds must be finite, got {t0!r} and {t1!r}")
        if t1 <= t0:
            raise EngineError("need t1 > t0")
        if not (math.isfinite(dt) and dt > 0.0):
            raise EngineError(f"dt must be positive and finite, got {dt!r}")
        # Capped so that a span over a tiny dt, even an infinite ratio,
        # reaches the step limit of the grid as a finite count.
        steps = max(1, math.ceil(min((t1 - t0) / dt, _MAX_STEPS + 1.0) - 1e-12))
        return cls(t0=t0, dt=(t1 - t0) / steps, count=steps + 1)


@dataclass(frozen=True)
class MomentCurve:
    """E||u(t)||^2 samples; stderrs None means the values are exact, and
    ``escaped`` counts Monte Carlo paths frozen at the explosion threshold."""

    ts: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray | None = None
    escaped: int = 0


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
    nodes held, ascending (every node when None is given). The increments
    [path, step] are retained by :func:`simulate_fundamental`, so perturbed
    systems can be driven by the exact same noise, and are None from
    :func:`fundamental_at`.
    """

    system: LinearSde
    grid: TimeGrid
    paths: int
    phi: np.ndarray
    psi: np.ndarray
    increments: np.ndarray | None
    nodes: np.ndarray | None = None

    def __post_init__(self):
        if self.nodes is None:
            object.__setattr__(self, "nodes", np.arange(self.grid.count))

    def position(self, node: int) -> int:
        """Index into ``phi`` and ``psi`` of grid node ``node``."""
        if not 0 <= node <= self.grid.steps:
            raise EngineError(f"node {node} out of range")
        j = int(np.searchsorted(self.nodes, node))
        if j == len(self.nodes) or self.nodes[j] != node:
            raise EngineError(f"node {node} is not held by the ensemble")
        return j


def _beyond_threshold(x: np.ndarray) -> np.ndarray:
    """Where ``x`` has exploded: beyond the threshold, infinite or NaN."""
    return ~(np.abs(x) <= EXPLOSION_THRESHOLD)


def _within_threshold(x: np.ndarray) -> bool:
    """Whether no entry of ``x`` has exploded: one reduction, through which
    a NaN propagates and fails the test, and no mask."""
    return bool(np.abs(x).max() <= EXPLOSION_THRESHOLD)


def _scan_explosion(state: np.ndarray, order: tuple, which: str, node: int, t: float) -> None:
    """Raise for the first exploded entry of the paths-last ``state``, first
    in C order of its [path, ...] transpose ``state.transpose(order)``."""
    if _within_threshold(state):
        return
    where = np.argwhere(_beyond_threshold(state).transpose(order))[0]
    path, entry = int(where[0]), tuple(int(i) for i in where[1:])
    raise ExplosionError(which, node, t, path, entry)


# Increments are drawn, and coefficients tabulated, for about this many values
# at a time (16 MB of float64), so an Euler-Maruyama run holds
# O(paths x (n^2 + CHUNK_VALUES / paths)) numbers whatever its horizon. Each
# draw re-keys every path's Philox stream once, about 1.7 us a path (2-core
# x86-64 host) against about 25 ns a value: 1.7 ms, some 3 %, of a block of
# 1000 paths. Fewer values per draw would re-key more often, and at 10^4
# paths or more would draw blocks short enough to cost more per value.
CHUNK_VALUES = 2 ** 21

# Per-path sums of squares are held, and reduced over paths, in node blocks of
# about this many values (2 MB of float64): the pairwise tree reads a block
# across paths, a stride of paths x 8 bytes, so the block is kept to a size a
# cache holds. The tree's cost per block does not grow with the path count.
_REDUCE_VALUES = 2 ** 18


def _requested_nodes(nodes, grid: TimeGrid, paths: int) -> np.ndarray:
    """Sorted distinct nodes, checked with the path count before any allocation."""
    if paths < 1:
        raise EngineError("need at least one path")
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    if len(nodes) == 0 or nodes[0] < 0 or nodes[-1] > grid.steps:
        raise EngineError("record nodes out of range")
    return nodes


def _compile_map(spec: PerturbationSpec, params: dict):
    """One perturbation map, compiled once for rows-first states; None for
    the zero map.

    The result is a function ``(t, u, out)`` that writes the map's values at
    the state rows ``u`` [n, ...] (``t`` a scalar or shaped like a row) into
    ``out``, shaped like ``u``, and returns it. An ``expr`` entry is compiled
    by :mod:`msd.expr` with ``t`` and ``u1..un`` free and the parameters
    folded in. A value that overflows is returned, not raised: the caller
    decides what a non-finite value means and sets ``np.errstate``. The other
    domain errors (log, sqrt, division, power) still raise.
    """
    if spec.kind == "zero":
        return None
    if spec.kind == "power_clipped":
        exponent = spec.power - 1.0

        def power_clipped(t, u, out):
            # The Euclidean norm over the components, as np.linalg.norm forms it.
            norms = np.sqrt(np.add.reduce(u * u, axis=0))
            return np.multiply(spec.coef * u, np.minimum(norms, spec.clip) ** exponent,
                               out=out)
        return power_clipped
    free = ("t", *(f"u{j + 1}" for j in range(len(spec.entries))))
    entries = [ex._compile(e, params, free, finite=False) for e in spec.entries]

    def expressions(t, u, out):
        for j, entry in enumerate(entries):
            out[j] = entry(t, u)
        return out
    return expressions


def _map_values(fmap, t, u: np.ndarray) -> np.ndarray:
    """A compiled map's values at the paths-first states u [path, n], as a
    C-ordered [path, n] array; zeros for the zero map (``fmap`` None)."""
    out = np.zeros(u.shape)
    if fmap is not None:
        fmap(t, u.T, out.T)
    return out


def _em_update(x: np.ndarray, drift: np.ndarray, noise: np.ndarray, dt: float,
               dw: np.ndarray, f: np.ndarray | None = None,
               h: np.ndarray | None = None) -> np.ndarray:
    """(x + dt * (drift @ x + f)) + dw * (noise @ x + h) for a paths-last
    state x, with f and h the perturbation maps' values shaped like x, or
    None for a linear system: each product is one GEMM over all paths, and
    the update runs in place in them."""
    flat = x.reshape(len(x), -1)
    out = (drift @ flat).reshape(x.shape)
    noisy = (noise @ flat).reshape(x.shape)
    if f is not None:
        out += f
    if h is not None:
        noisy += h
    out *= dt
    out += x
    noisy *= dw
    out += noisy
    return out


def _adjoint_table(a: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The drift (-A + G^2)^T and noise -G^T of the adjoint flow Phi^-T, from
    A and G stacked [..., n, n]: the transposed inverse Psi^T steps by them."""
    return np.swapaxes(-a + g @ g, -1, -2), -np.swapaxes(g, -1, -2)


def _check_state(system: LinearSde | PerturbedSde, paths: int, vector: bool,
                 inverse: bool = False) -> None:
    """Refuse the per-path state :func:`euler_maruyama` would hold beyond the
    store limit: the state (vectors or matrices), Psi^T, and a perturbed
    system's two map buffers, each of one state's size per path."""
    perturbed = isinstance(system, PerturbedSde)
    n = (system.base if perturbed else system).dim
    _check_store(paths * (n if vector else n * n) * (1 + inverse + 2 * perturbed),
                 "the per-path state")


def euler_maruyama(system: LinearSde | PerturbedSde, grid: TimeGrid, paths: int, seed: int,
                   nodes, x0=None, inverse: bool = False):
    """Euler-Maruyama states at the requested grid nodes, one node at a time.

    Steps the fundamental matrix d(Phi) = A Phi dt + G Phi dw from Phi = Id
    or, given ``x0`` of shape (n,), the vector solutions u = Phi x0. With
    ``inverse`` the coupled inverse d(Psi) = Psi(-A + G^2) dt - Psi G dw is
    stepped alongside on the same increments. Yields ``(node, state, psi)``
    at each node of ``nodes`` in ascending order (``psi`` None without
    ``inverse``), checked against the explosion threshold. An exploded
    entry is named by its path and entry, first in [path, ...] order.

    A :class:`PerturbedSde` steps the vector solutions of
    du = (A u + f(t, u)) dt + (G u + h(t, u)) dw from ``x0``; it needs
    ``x0`` and takes no ``inverse``. Each map is compiled once per run
    (:func:`_compile_map`) and evaluated on the state rows [row, path] into
    a buffer kept for the run; a zero map adds nothing. A path whose next
    state has an entry beyond the explosion threshold (or not finite, as
    when its map overflows) is frozen at its last state instead, and the
    time of that next node is its escape time; until a path first escapes,
    the next state is taken whole. Such a run yields, in the place of
    ``psi``, the escape times [path] (NaN while a path is alive): one array,
    updated in place as paths freeze. Its states are not checked against
    the threshold.

    Every state is held, and yielded, paths-last: Phi as [row, col, path],
    vectors as [row, path], and Psi as Psi^T, [col, row, path], stepped as
    Psi^T + dt B^T Psi^T + dw (-G^T) Psi^T with B = -A + G^2. So every product
    is one (n, n) @ (n, n * paths) GEMM; the tests check each entry bit for
    bit against the per-path A @ Phi, Psi @ B and u @ A^T, and the
    perturbed route against a paths-first loop over u @ A^T + f(t, u).
    Each step makes a new state array and never writes to a yielded one,
    so a caller may keep what it is given; a caller that stores [path, ...]
    order transposes at its store.

    The increments are the per-path streams of :func:`brownian_batch`,
    drawn a block of steps at a time; a step reads the increments of all
    paths, ``incr[:, i]``, one contiguous row of the step-major block. The
    coefficients are tabulated per block too.
    """
    psys = system if isinstance(system, PerturbedSde) else None
    if psys is not None and (x0 is None or inverse):
        raise EngineError("a perturbed system steps vector solutions from x0, "
                          "without the coupled inverse")
    nodes = _requested_nodes(nodes, grid, paths)
    _check_state(system, paths, x0 is not None, inverse)
    if psys is not None:
        system = psys.base
    n = system.dim
    if x0 is None:
        which, order = "fundamental matrix", (2, 0, 1)
        state = np.repeat(np.eye(n)[:, :, None], paths, axis=2)
    else:
        which, order = "vector solution", (1, 0)
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n,):
            raise EngineError(f"x0 must have shape ({n},)")
        state = np.repeat(x0[:, None], paths, axis=1)
    psi_t = np.repeat(np.eye(n)[:, :, None], paths, axis=2) if inverse else None
    if psys is not None:
        escape = np.full(paths, np.nan)
        all_alive = True
        fmap = _compile_map(psys.f, system.params)
        hmap = _compile_map(psys.h, system.params)
        fval, hval = np.empty_like(state), np.empty_like(state)

    def held(k: int):
        if psys is not None:
            return k, state, escape
        _scan_explosion(state, order, which, k, grid.t0 + dt * k)
        if inverse:
            _scan_explosion(psi_t, (2, 1, 0), "coupled inverse", k, grid.t0 + dt * k)
        return k, state, psi_t

    dt = grid.dt
    pos = int(nodes[0] == 0)
    if pos:
        yield held(0)
    last = int(nodes[-1])
    block = max(1, CHUNK_VALUES // (paths + 3 * n * n))
    for k0 in range(0, last, block):
        k1 = min(k0 + block, last)
        times = grid.t0 + dt * np.arange(k0, k1)
        a = system.drift_at(times)
        g = system.diffusion_at(times)
        if inverse:
            b_t, neg_g_t = map(np.ascontiguousarray, _adjoint_table(a, g))
        incr = brownian_batch(seed, paths, dt, k1 - k0, k0)
        for i in range(k1 - k0):
            if psys is None:
                state = _em_update(state, a[i], g[i], dt, incr[:, i])
            else:
                # Overflow on a path that is about to escape is not reported:
                # the freeze rule below handles its non-finite values.
                with np.errstate(over="ignore", invalid="ignore"):
                    f = fmap and fmap(times[i], state, fval)
                    h = hmap and hmap(times[i], state, hval)
                    nxt = _em_update(state, a[i], g[i], dt, incr[:, i], f, h)
                if all_alive and _within_threshold(nxt):
                    state = nxt
                else:
                    all_alive = False
                    t_next = grid.t0 + dt * (k0 + i + 1)
                    beyond = np.any(_beyond_threshold(nxt), axis=0)
                    escape[np.isnan(escape) & beyond] = t_next
                    state = np.where(np.isnan(escape), nxt, state)
            if inverse:
                psi_t = _em_update(psi_t, b_t[i], neg_g_t[i], dt, incr[:, i])
            if nodes[pos] == k0 + i + 1:
                yield held(k0 + i + 1)
                pos += 1
        del incr                # freed before the next block is drawn


def fundamental_at(system: LinearSde, grid: TimeGrid, paths: int, seed: int,
                   nodes) -> FundamentalEnsemble:
    """Phi and Psi at the given grid nodes only, without the increments;
    see :func:`euler_maruyama`."""
    nodes = _requested_nodes(nodes, grid, paths)
    n = system.dim
    _check_store(2 * len(nodes) * paths * n * n, "the ensemble of Phi and Psi")
    phi = np.empty((len(nodes), paths, n, n))
    psi = np.empty_like(phi)
    states = euler_maruyama(system, grid, paths, seed, nodes, inverse=True)
    for j, (_, phi_k, psi_t) in enumerate(states):
        phi[j] = phi_k.transpose(2, 0, 1)
        psi[j] = psi_t.transpose(2, 1, 0)
    return FundamentalEnsemble(
        system=system, grid=grid, paths=paths, phi=phi, psi=psi,
        increments=None, nodes=nodes,
    )


def simulate_fundamental(system: LinearSde, grid: TimeGrid, paths: int, seed: int) -> FundamentalEnsemble:
    """Euler-Maruyama for d(Phi) = A Phi dt + G Phi dw and the coupled
    inverse d(Psi) = Psi(-A + G^2) dt - Psi G dw on the same increments,
    kept at every node together with the increments: the whole grid's
    :func:`brownian_batch`, the values the kernel drew block by block."""
    nodes = _requested_nodes(np.arange(grid.count), grid, paths)
    _check_store(paths * (2 * grid.count * system.dim ** 2 + grid.steps),
                 "the ensemble of Phi and Psi")
    ens = fundamental_at(system, grid, paths, seed, nodes)
    return replace(ens, increments=brownian_batch(seed, paths, grid.dt, grid.steps))


def simulate_vectors(system: LinearSde, grid: TimeGrid, paths: int, seed: int,
                     x0, record_nodes=None) -> tuple[np.ndarray, np.ndarray]:
    """Vector solutions u(t) = Phi(t) x0 recorded at selected nodes.

    Returns (nodes, values) with values[j, path] the state at record node j.
    Cheaper than a full ensemble when only a few checkpoints matter.
    """
    nodes = _requested_nodes(np.arange(grid.count) if record_nodes is None else record_nodes,
                             grid, paths)
    _check_store(len(nodes) * paths * system.dim, "the recorded vector solutions")
    out = np.empty((len(nodes), paths, system.dim))
    for j, (_, u, _) in enumerate(euler_maruyama(system, grid, paths, seed, nodes, x0=x0)):
        out[j] = u.T
    return nodes, out


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """The sum of the rows of ``x`` [entry, path], which it overwrites, added
    in the order ``np.sum`` adds the entries of one path held contiguously
    (numpy's pairwise summation): one by one below 8 entries, in 8 running
    sums up to 128, and in halves cut at a multiple of 8 beyond."""
    m = len(x)
    if m < 8:
        total = x[0]
        for row in x[1:]:
            total += row
        return total
    if m <= 128:
        acc = x[:8]
        tail = m - m % 8
        for i in range(8, tail, 8):
            acc += x[i:i + 8]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for row in x[tail:]:
            total += row
        return total
    half = m // 2 - m // 2 % 8
    return _sum_rows(x[:half]) + _sum_rows(x[half:])


def _mean_squares(states, count: int, paths: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean over paths of each path's sum of squares, and its standard error,
    for each of ``count`` paths-last states [..., path] taken from
    ``states`` in turn.

    Each node's per-path sums go into one contiguous row of a node-major
    buffer, [node, path], that holds a block of about ``_REDUCE_VALUES``
    values (2 MB); the entries are added as ``np.sum`` adds a C-ordered
    [path, ...] state's (:func:`_sum_rows`). Each block is reduced over paths
    in place, through the transposed view, by one stacked pairwise
    reduction, so each value equals :func:`pairwise_mean_std` of the stored
    sums bit for bit while the block stays in cache and memory stays bounded.
    """
    block = max(1, _REDUCE_VALUES // paths)
    _check_store(paths * min(block, count), "the per-path sums")
    sums = np.empty((min(block, count), paths))
    means = np.empty(count)
    stds = np.empty(count)
    start = 0                   # first node not reduced yet
    for k, x in enumerate(states):
        rows = x.reshape(-1, paths)
        sums[k - start] = _sum_rows(rows * rows)
        if k - start == block - 1:
            means[start:k + 1], stds[start:k + 1] = _mean_std_in_place(sums.T)
            start = k + 1
    # The last block is reduced once ``states`` is exhausted: a kernel behind
    # it has freed its increments by then.
    if start < count:
        means[start:], stds[start:] = _mean_std_in_place(sums[:count - start].T)
    return means, stds / math.sqrt(paths)


def mc_moment_curve(system: LinearSde | PerturbedSde, grid: TimeGrid, paths: int, seed: int,
                    x0=None) -> MomentCurve:
    """Monte Carlo E||Phi(t)||_F^2, or E||u(t)||^2 from ``x0`` (which a
    :class:`PerturbedSde` needs), at every node, reduced as the paths are
    stepped: no node is kept, and the increments are drawn a block at a time."""
    nodes = _requested_nodes(np.arange(grid.count), grid, paths)
    escape = None               # a perturbed run's escape times, updated in place

    def states():
        nonlocal escape
        for _, x, escape in euler_maruyama(system, grid, paths, seed, nodes, x0=x0):
            yield x
    means, stderrs = _mean_squares(states(), grid.count, paths)
    escaped = 0 if escape is None else int(np.sum(np.isfinite(escape)))
    return MomentCurve(ts=grid.times(), values=means, stderrs=stderrs, escaped=escaped)


# ---------------------------------------------------------------------------
# Deterministic second-moment engine


def _moment_rhs(a: np.ndarray, g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A M + M A^T + G M G^T for stacks of matrices [k, n, n]."""
    ap = a @ p
    return ap + ap.mT + g @ p @ g.mT


class _VechMaps(NamedTuple):
    """Fixed index maps of the moment equation on vech M for n x n matrices.

    vech M holds the d = n(n+1)/2 entries M[rows[c], cols[c]]: the diagonal
    first, then the entries above it row by row, so the trace is the sum of
    its first n entries; ``full`` [n, n] is the position in vech M of each
    entry of M. The generator L [d, d] of M' = A M + M A^T + G M G^T on
    vech M (Magnus & Neudecker 1980: A (x) I + I (x) A + G (x) G, restricted
    to symmetric M, where column c stands for both M[p, q] and M[q, p]) is

        L[r, c] = (A[x] + A[y]) + G[g1] G[g2] + G[g3] G[g4]

    with each map [d, d] a flat index into A or G, n * n reading a 0.
    """

    rows: np.ndarray
    cols: np.ndarray
    full: np.ndarray
    linear: tuple
    quadratic: tuple


@functools.lru_cache(maxsize=8)
def _vech_maps(n: int) -> _VechMaps:
    """The index maps of :class:`_VechMaps` for n x n moment matrices."""
    pairs = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows, cols = (np.array(side) for side in zip(*pairs))
    full = np.empty((n, n), dtype=np.int64)
    full[rows, cols] = full[cols, rows] = np.arange(len(pairs))
    # Entry r = (i, j) of the right side reads M[p, q] through column c = (p, q),
    # and also M[q, p] when p != q.
    i, j, p, q = rows[:, None], cols[:, None], rows[None, :], cols[None, :]
    off = p != q
    zero = n * n

    def at(row, col, where):
        return np.where(where, row * n + col, zero)

    # A[i, p] [j = q] + A[i, q] [j = p, p != q]: at most one of the two holds.
    x = np.where(j == q, i * n + p, at(i, q, off & (j == p)))
    # [i = p] A[j, q] + [i = q, p != q] A[j, p]: likewise.
    y = np.where(i == p, j * n + q, at(j, p, off & (i == q)))
    quadratic = ((at(i, p, True), at(j, q, True)), (at(i, q, off), at(j, p, off)))
    for index in (rows, cols, full, x, y, *quadratic[0], *quadratic[1]):
        index.flags.writeable = False
    return _VechMaps(rows, cols, full, (x, y), quadratic)


def _vech_generator(a: np.ndarray, g: np.ndarray, maps: _VechMaps) -> np.ndarray:
    """The generator L [..., d, d] on vech M from A and G [..., n, n]."""
    flat = a.shape[:-2] + (a.shape[-1] ** 2,)
    pad = np.zeros(a.shape[:-2] + (1,))
    a_flat = np.concatenate([a.reshape(flat), pad], axis=-1)
    g_flat = np.concatenate([g.reshape(flat), pad], axis=-1)
    x, y = maps.linear
    out = np.take(a_flat, x, axis=-1)
    out += np.take(a_flat, y, axis=-1)
    for left, right in maps.quadratic:
        product = np.take(g_flat, left, axis=-1)
        product *= np.take(g_flat, right, axis=-1)
        out += product
    return out


# The vech route builds L and R a stretch of steps at a time, at most this
# many values of L (32 KB), so that a pass holds no more than the matrix loop's;
# stretches of 2^14 values held 0.3-0.5 MB more on the ode benchmark's runs.
_GENERATOR_VALUES = 2 ** 12


class _VechSteps:
    """Each start carried as v = vech M [k, d, 1] and stepped by one matvec
    with a transfer matrix: RK4 on v' = L v folded into R = I + h/6 (K1 +
    2 K2 + 2 K3 + K4), K1 = L0, K2 = L1 + h/2 L1 K1, K3 = L1 + h/2 L1 K2,
    K4 = L2 + h L2 K3, with L at the step's stage times. L and R are built
    from the A and G tables a stretch of steps at a time by stacked matmuls,
    and the steps of a chunk run through each stretch's slice of R."""

    def __init__(self, n: int, h, width: int):
        self.n, self.maps = n, _vech_maps(n)
        self.h, self.half, self.sixth = h, h / 2.0, h / 6.0
        # Stage indices per stretch: two per step, 2 d^2 values per step and
        # table row; ``width`` rows, 1 when every start shares the tables.
        d = len(self.maps.rows)
        self.stretch = 2 * max(1, _GENERATOR_VALUES // (2 * d * d * width))
        self.eye, self.transfer, self.lo = np.eye(d), None, 0

    def transfers(self, a: np.ndarray, g: np.ndarray, i: int) -> np.ndarray:
        """The transfer matrices [step, width, d, d] from stage index i of the
        tables a and g, which are new whenever i is 0, to the end of its
        stretch. The stretch is built from i then and whenever i is outside
        it, as when the loop steps again from a node behind it."""
        if i == 0 or not self.lo <= i < self.lo + self.stretch:
            end = i + self.stretch + 1
            gen = _vech_generator(a[i:end], g[i:end], self.maps)
            l0, l1, l2 = gen[0:-1:2], gen[1::2], gen[2::2]
            k2 = l1 + self.half * (l1 @ l0)
            k3 = l1 + self.half * (l1 @ k2)
            k4 = l2 + self.h * (l2 @ k3)
            self.transfer, self.lo = self.eye + self.sixth * (l0 + 2.0 * (k2 + k3) + k4), i
        return self.transfer[(i - self.lo) // 2:]

    def steps(self, a: np.ndarray, g: np.ndarray, i: int, chunk: np.ndarray, size: int) -> None:
        """chunk[1..size] from chunk[0], stepping from stage index i of the
        tables a and g through one stretch's transfer matrices at a time. A
        single start steps 2-D views by ``ndarray.dot``, a stack each step
        by one broadcast ``np.matmul``: both call the same BLAS matvec, so a
        start's row is the same bit for bit either way."""
        c = 0
        while c < size:
            rs = self.transfers(a, g, i + 2 * c)[:size - c]
            if chunk.shape[1] == 1:
                for r, v, out in zip(rs[:, 0], chunk[c:, 0], chunk[c + 1:, 0]):
                    r.dot(v, out=out)
            else:
                for r, v, out in zip(rs, chunk[c:], chunk[c + 1:]):
                    np.matmul(r, v, out=out)
            c += len(rs)

    def state(self, m: np.ndarray) -> np.ndarray:
        """vech of symmetric matrices [..., n, n], as [..., d, 1]."""
        return m[..., self.maps.rows, self.maps.cols, None]

    def matrices(self, v: np.ndarray) -> np.ndarray:
        return v[:, self.maps.full, 0]

    def traces(self, v: np.ndarray) -> np.ndarray:
        return np.add.reduce(v[..., :self.n, 0], axis=-1)


class _MatrixSteps:
    """Each start carried as M [k, n, n] and stepped by :func:`_moment_rhs`
    on the tabulated A and G, symmetrized after each step."""

    def __init__(self, h):
        self.h, self.half, self.sixth = h, h / 2.0, h / 6.0

    def step(self, a: np.ndarray, g: np.ndarray, i: int, p: np.ndarray, out=None) -> np.ndarray:
        a, g = a[i:i + 3], g[i:i + 3]
        k1 = _moment_rhs(a[0], g[0], p)
        k2 = _moment_rhs(a[1], g[1], p + self.half * k1)
        k3 = _moment_rhs(a[1], g[1], p + self.half * k2)
        k4 = _moment_rhs(a[2], g[2], p + self.h * k3)
        p = p + self.sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return np.divide(p + p.mT, 2.0, out=out)

    def steps(self, a: np.ndarray, g: np.ndarray, i: int, chunk: np.ndarray, size: int) -> None:
        """chunk[1..size] from chunk[0], one :meth:`step` at a time."""
        for c in range(size):
            self.step(a, g, i + 2 * c, chunk[c], out=chunk[c + 1])

    def state(self, m: np.ndarray) -> np.ndarray:
        return m

    def matrices(self, p: np.ndarray) -> np.ndarray:
        return p

    def traces(self, p: np.ndarray) -> np.ndarray:
        return p.trace(axis1=-2, axis2=-1)


# The moment loop steps vech M (:class:`_VechSteps`) up to this n, and M
# itself above it, where building L and R costs more than it saves.
_VECH_MAX_N = 5

# The moment loop checks each moment matrix every this many steps and at the end.
_CHECK_STEPS = 25

# The carried moment matrix is rescaled by an exact power of two whenever its
# trace leaves [2^-332, 2^332] (about 1e-100 to 1e100), so no RK4 stage can
# overflow or underflow however far the true trace runs.
_TRACE_LOW, _TRACE_HIGH = 2.0 ** -332, 2.0 ** 332


def _asymmetric(p: np.ndarray) -> bool:
    """||P - P^T|| > 1e-12 (1 + ||P||) in the Frobenius norm, each norm by
    ``math.hypot``, which scales its arguments and so overflows for no
    finite P (np.linalg.norm squares the entries)."""
    return math.hypot(*(p - p.T).flat) > 1e-12 * (1.0 + math.hypot(*p.flat))


def _moment_loop(systems, p0: np.ndarray, t_from, t_to,
                 dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """RK4 for M' = A M + M A^T + G M G^T from a stack of k starts p0
    [k, n, n], start j under ``systems[j]`` from ``t_from`` to ``t_to``,
    each M carried as m * 2^e: returns the grid times, trace m and e
    [k, node], and the final m [k, n, n].

    ``t_from`` and ``t_to`` are each one float, shared by every start, or k
    floats, one per start. Start j steps on its own
    ``TimeGrid.spanning(t_from_j, t_to_j, dt)``, with its own step and stage
    times; the grids of one stack must share their step count. The times
    come back as one grid's [node] when both bounds are floats and as
    [k, node] otherwise.

    Up to n = ``_VECH_MAX_N`` each m is carried as vech m [d, 1], d =
    n(n+1)/2, and a step is one stacked matvec with the step's transfer
    matrix (:class:`_VechSteps`): symmetric by construction. Above it m is
    carried whole and stepped by :func:`_moment_rhs` (:class:`_MatrixSteps`),
    and symmetrized. The two agree to rounding.

    Every product is stacked over the starts, so each start's row equals a
    pass of that start alone bit for bit; a single start steps by
    ``ndarray.dot``, the same BLAS matvec. The loop steps a chunk at a time
    up to the next check (every ``_CHECK_STEPS`` steps and the last node) or
    the end of a table block, the vech route through each stretch's transfer
    matrices in turn, then takes, range-tests and stores the chunk's traces
    at once. At the first node whose trace leaves [2^-332, 2^332] it stops,
    rescales each start there by its own power of two or reports its
    divergence, stores that node, and steps on from it. A check tests the
    starts finite by one ``isfinite`` over the stack, and each PSD with its
    own tolerance, and clamps it if it is singular. A and G are tabulated
    once per distinct system and grid, a block of steps at a time, and the
    vech route builds L and R from them a stretch of steps at a time. A
    start that fails ends the pass: when several fail, the one failing at
    the earliest step is reported, the lowest index at a tie. The traces and
    exponents, with the values a caller makes of them, are three numbers per
    start and node, four with per-start times; a stack whose pass would hold
    more than the store limit is refused before it steps.
    """
    if not systems:
        raise EngineError("need at least one initial moment matrix")
    n = systems[0].dim
    if any(system.dim != n for system in systems):
        raise EngineError("stacked starts need systems of one dimension")
    p = np.array(p0, dtype=float)
    if p.shape != (len(systems), n, n):
        raise EngineError(f"initial moment matrix must be {n}x{n}")
    k = len(p)
    per_start = np.ndim(t_from) > 0 or np.ndim(t_to) > 0
    try:
        t_froms, t_tos = (np.broadcast_to(np.asarray(t, dtype=float), (k,)).tolist()
                          for t in (t_from, t_to))
    except ValueError:
        raise EngineError(f"need one t_from and one t_to per start, or one for all {k}")
    w0 = np.linalg.eigvalsh((p + p.mT) / 2.0)[:, 0]
    tr0 = p.trace(axis1=1, axis2=2)
    for j, pj in enumerate(p):
        if _asymmetric(pj):
            raise EngineError("initial moment matrix must be symmetric")
        if w0[j] < -1e-9 * max(1.0, abs(tr0[j])):
            raise NonPsdError(t_froms[j], float(w0[j]), float(tr0[j]))
    if any(b <= a for a, b in zip(t_froms, t_tos)):
        raise EngineError("need t_to > t_from")
    # Rank-deficient starts (such as u u^T) pick up O((h*lambda)^5) negative
    # wobble per step; between checks that stays well under 1e-6 of trace, so
    # anything bigger is a real defect, and what is left is clamped away.
    singular = w0 <= 1e-12 * tr0
    tolerance = np.where(singular, 1e-6, 1e-9)

    spans = {span: TimeGrid.spanning(*span, dt) for span in zip(t_froms, t_tos)}
    grids = [spans[span] for span in zip(t_froms, t_tos)]
    counts = sorted({grid.steps for grid in spans.values()})
    if len(counts) > 1:
        raise EngineError(f"stacked starts need one step count, got {counts}")
    steps = counts[0]
    hs = [grid.dt for grid in grids]
    _check_store((3 + per_start) * k * (steps + 1),
                 "the moment traces of the stacked starts")
    # One float when every start shares its step: the same products, fewer
    # broadcasts.
    h = hs[0] if len(set(hs)) == 1 else np.array(hs)[:, None, None]
    # A and G at the stage times t_from + j h / 2 are tabulated for a block
    # of steps at a time, 4 n^2 values per step and start, once per distinct
    # system and grid.
    block = max(1, CHUNK_VALUES // (4 * n * n * k))
    keys = [(id(system), t_froms[j], hs[j]) for j, system in enumerate(systems)]
    distinct = {}               # key -> its first start
    for j, key in enumerate(keys):
        distinct.setdefault(key, j)
    # One key means one system, grid and step h: the tables, L and R are one
    # row wide and broadcast over the starts.
    width = 1 if len(distinct) == 1 else k
    route = _VechSteps(n, h, width) if n <= _VECH_MAX_N else _MatrixSteps(h)

    def tabulate(coefficient, lo: int, hi: int) -> np.ndarray:
        """``coefficient(system, stage_times)`` once per distinct system and
        grid at stage indices lo..hi, as [time, start, n, n]: stacked over
        the starts, or [time, 1, n, n] to broadcast when all share one."""
        index = np.arange(lo, hi + 1)
        tables = {key: coefficient(systems[j], t_froms[j] + (hs[j] / 2.0) * index)
                  for key, j in distinct.items()}
        if len(tables) == 1:
            return tables[keys[0]][:, None]
        return np.stack([tables[key] for key in keys], axis=1)

    def t_here(j: int) -> float:
        return t_froms[j] + step * hs[j]

    x = route.state((p + p.mT) / 2.0)
    tr = route.traces(x)
    traces = np.empty((k, steps + 1))
    exps = np.empty((k, steps + 1), dtype=np.int64)
    e = np.zeros(k, dtype=np.int64)
    chunk = np.empty((_CHECK_STEPS + 1, *x.shape))
    step = 0                    # the node x and tr stand at
    stored = False              # whether that node is range-tested and stored
    while True:
        failed = {}             # start -> its error at this node
        if not stored:
            for j in np.flatnonzero(~((tr >= _TRACE_LOW) & (tr <= _TRACE_HIGH))):
                if not math.isfinite(tr[j]):
                    failed[j] = DivergenceError(
                        f"moment integration diverged at t={t_here(j):.6g}")
                elif tr[j] > 0.0:
                    shift = math.frexp(tr[j])[1]
                    x[j] = np.ldexp(x[j], -shift)
                    e[j] += shift
                    tr[j] = route.traces(x[j:j + 1])[0]
            traces[:, step], exps[:, step] = tr, e
        if step and (step % _CHECK_STEPS == 0 or step == steps):
            finite = np.isfinite(x).reshape(k, -1).all(axis=1)
            for j in np.flatnonzero(~finite):
                if j not in failed:
                    failed[j] = DivergenceError(
                        f"moment integration diverged at t={t_here(j):.6g}")
            live = [j for j in range(k) if j not in failed]
            m = route.matrices(x)
            for j, w in zip(live, np.linalg.eigvalsh(m[live])[:, 0] if live else ()):
                if w < -tolerance[j] * max(1.0, abs(tr[j])):
                    failed[j] = NonPsdError(t_here(j), float(w), float(tr[j]))
                elif singular[j] and w < 0.0:
                    evals, evecs = np.linalg.eigh(m[j])
                    x[j] = route.state((evecs * np.maximum(evals, 0.0)) @ evecs.T)
        if failed:
            raise failed[min(failed)]
        if step == steps:
            break
        # The first node whose trace leaves the range ends the chunk; the steps
        # after it are dropped unseen, so none of them warns of an overflow.
        i = step % block
        if i == 0:
            last = min(step + block, steps)
            a_all = tabulate(lambda s, t: s.drift_at(t), 2 * step, 2 * last)
            g_all = tabulate(lambda s, t: s.diffusion_at(t), 2 * step, 2 * last)
        size = min(_CHECK_STEPS - step % _CHECK_STEPS, last - step)
        chunk[0] = x
        with np.errstate(over="ignore", invalid="ignore"):
            route.steps(a_all, g_all, 2 * i, chunk, size)
            trs = route.traces(chunk[1:size + 1])
        inside = ((trs >= _TRACE_LOW) & (trs <= _TRACE_HIGH)).all(axis=1)
        stored = bool(inside.all())
        if not stored:
            size = int(np.argmin(inside)) + 1
        # A node out of range is rescaled or reported, and stored, at the top.
        kept = size if stored else size - 1
        nodes = slice(step + 1, step + 1 + kept)
        traces[:, nodes], exps[:, nodes] = trs[:kept].T, e[:, None]
        x, tr, step = chunk[size], trs[size - 1], step + size
    ts = np.stack([grid.times() for grid in grids]) if per_start else grids[0].times()
    return ts, traces, exps, route.matrices(x)


def moment_ode(system: LinearSde, p0, t_from, t_to,
               dt: float = 1e-3) -> tuple[MomentCurve, np.ndarray]:
    """Integrate d/dt E[u u^T] = A M + M A^T + G M G^T from M(t_from) = p0.

    Returns the trace curve on the internal grid and the final matrix.

    A stack p0 [k, n, n] runs its starts in one pass of the moment loop
    (:func:`_moment_loop`), each from its own ``t_from`` to its own ``t_to``
    when these are k floats; every start's grid must have the same step
    count. The curve's ``ts`` and ``values`` are then [k, node] and the
    final matrices [k, n, n], each row equal to its start's call alone. A
    trace that leaves the float64 range is reported at the earliest step
    over the rows, at the lowest row of a tie.
    """
    p0 = np.asarray(p0, dtype=float)
    stacked = p0.ndim == 3
    starts = p0 if stacked else p0[None]
    if stacked:
        t_from, t_to = (t if np.ndim(t) else [t] * len(starts) for t in (t_from, t_to))
    ts, traces, exps, p = _moment_loop([system] * len(starts), starts, t_from, t_to, dt)
    with np.errstate(over="ignore"):
        values = np.ldexp(traces, exps)
    fits = np.isfinite(values)
    if not fits.all():
        first = np.where(fits.all(axis=1), fits.shape[1], np.argmin(fits, axis=1))
        j = int(np.argmin(first))
        t = (ts[j] if stacked else ts)[first[j]]
        raise DivergenceError(f"moment integration diverged at t={t:.6g}")
    final = np.ldexp(p, exps[:, -1, None, None])
    if stacked:
        return MomentCurve(ts=ts, values=values), final
    return MomentCurve(ts=ts, values=values[0]), final[0]


def moment_log_trace(system: LinearSde | list[LinearSde], p0, t_from: float, t_to: float,
                     dt: float = 1e-3) -> MomentCurve:
    """Like moment_ode but returns log(trace M(t) / trace M(t_from)).

    M is rescaled by an exact power of two whenever its trace leaves
    [2^-332, 2^332], so exponents of order hundreds per unit time stay
    representable and the rescaling adds no rounding of its own.

    A stack p0 [k, n, n] gives values [k, node] from one pass of the moment
    loop (:func:`_moment_loop`), start j under ``system[j]`` when
    ``system`` is a list of k systems; each row equals that start's curve
    alone. A trace that is not positive is found after the pass; the
    earliest such time over the rows is reported.
    """
    p0 = np.asarray(p0, dtype=float)
    starts = p0 if p0.ndim == 3 else p0[None]
    systems = [system] * len(starts) if isinstance(system, LinearSde) else list(system)
    if len(systems) != len(starts):
        raise EngineError(f"need one system per initial moment matrix, got "
                          f"{len(systems)} for {len(starts)}")
    ts, traces, exps, _ = _moment_loop(systems, starts, t_from, t_to, dt)
    if np.any(traces[:, 0] <= 0.0):
        raise EngineError("log-scale route needs a positive initial trace")
    positive = traces > 0.0
    if not positive.all():
        first = min(int(np.argmin(row)) for row in positive if not row.all())
        raise DivergenceError(f"moment integration diverged at t={ts[first]:.6g}")
    values = np.empty(traces.shape)
    for j, row in enumerate(traces):
        # math.log, not np.log: NumPy's vector loop rounds some values differently.
        logs = np.fromiter(map(math.log, row / row[0]), float, len(row))
        values[j] = logs + (exps[j] - exps[j, 0]) * math.log(2.0)
    return MomentCurve(ts=ts, values=values if p0.ndim == 3 else values[0])


def _moment_rows(system: LinearSde, projector: Projector | None, pairs, sense: str,
                 dt: float) -> np.ndarray:
    """E||Phi(t) P Phi^-1(s)||_F^2 at (s, t) pairs of one sense, ODE route.

    The stable sense runs the system from s, starting at P (Id without a
    projector); the unstable sense runs the adjoint, whose flow is the
    transpose, from t to s, starting at Id - P. Pairs with one start form a
    row, a chain of segments: the row restarts at each of its ends from
    that end's matrix, and the end reads its trace.

    The rows run in rounds: round r steps the r-th segment of every row
    that has one, in one stacked :func:`moment_ode` call per step count, so
    each value equals its row's chain run alone bit for bit. A failing call
    ends the surface: the rounds run in order, and the calls of a round in
    the order of their first row; within a call the earliest step fails
    first, the lowest row at a tie.
    """
    n = system.dim
    rank = n if projector is None else projector.rank
    if not system.is_block_diagonal(rank):
        raise EngineError("projector couples the blocks on this system; use "
                          "Monte Carlo (mc_second_moment) instead")
    flow, spans = system, pairs
    if sense == "unstable":
        flow, spans = adjoint(system), [(t, s) for s, t in pairs]
    p0 = (np.eye(n) if projector is None else projector.matrix if sense == "stable"
          else projector.complement_matrix)
    rows: dict[float, dict[float, list]] = {}
    for i, (start, end) in enumerate(spans):
        rows.setdefault(start, {}).setdefault(end, []).append(i)
    values = np.empty(len(pairs))
    # Per row: where it stands, its matrix there, and its ends, each with
    # the pairs that read it, in ascending order.
    here = list(rows)
    m = [p0] * len(here)
    stops = [sorted(ends.items()) for ends in rows.values()]
    for j, row in enumerate(stops):
        if row[0][0] == here[j]:
            values[row.pop(0)[1]] = np.trace(p0)
    for r in range(max(map(len, stops))):
        calls: dict[int, list[int]] = {}    # step count -> the rows of one call
        for j, row in enumerate(stops):
            if r < len(row):
                calls.setdefault(TimeGrid.spanning(here[j], row[r][0], dt).steps, []).append(j)
        for members in calls.values():
            ends = [stops[j][r][0] for j in members]
            _, finals = moment_ode(flow, np.stack([m[j] for j in members]),
                                   [here[j] for j in members], ends, dt=dt)
            for j, end, p in zip(members, ends, finals):
                here[j], m[j] = end, p
                values[stops[j][r][1]] = np.trace(p)
    return values


def transition_second_moment(system: LinearSde, s: float, t: float,
                             projector: Projector | None = None,
                             dt: float = 1e-3) -> float:
    """E||Phi(t) P Phi^-1(s)||_F^2 for the canonical projector, ODE route;
    t < s measures the complement Id - P. A projector of intermediate rank
    must be conformal with the system's blocks, else use mc_second_moment."""
    sense = "stable" if t >= s else "unstable"
    return float(_moment_rows(system, projector, [(s, t)], sense, dt)[0])


def mc_second_moment(ens: FundamentalEnsemble, s_node: int, t_node: int,
                     projector: Projector | np.ndarray | None = None) -> tuple[float, float]:
    """Monte Carlo E||Phi(t) P Psi(s)||_F^2 from a stored ensemble.

    ``projector`` is a Projector, whose matrix P is applied, or the matrix
    to apply itself (such as a complement Id - P); None applies no P.
    """
    s_pos = ens.position(s_node)
    t_pos = ens.position(t_node)
    if projector is None and s_node == t_node:
        # Phi(t) Phi^-1(t) = Id analytically; skip the integrator drift.
        return float(ens.system.dim), 0.0
    p = projector.matrix if isinstance(projector, Projector) else projector
    phi_t = ens.phi[t_pos]
    psi_s = ens.psi[s_pos]
    prod = phi_t @ psi_s if p is None else (phi_t @ p) @ psi_s
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


def _left_exponent(a_v: np.ndarray, b_v: np.ndarray, dt: float, dw: np.ndarray) -> np.ndarray:
    """Lambda = int (a - b^2/2) dtau + int b dw at every node, left-point."""
    return np.concatenate([[0.0], np.cumsum((a_v - 0.5 * b_v * b_v) * dt + b_v * dw)])


def _variation_sum(lam: np.ndarray, b_v: np.ndarray, c_v: np.ndarray, d_v: np.ndarray,
                   dt: float, dw: np.ndarray) -> np.ndarray:
    """int exp(-Lambda) ((c - b d) dtau + d dw) at every node, left-point: the
    solution of dx = (a x + c) dt + (b x + d) dw is exp(Lambda) (x0 + this)
    (Kloeden & Platen 1992)."""
    inner = np.exp(-lam[:-1]) * ((c_v - b_v * d_v) * dt + d_v * dw)
    return np.concatenate([[0.0], np.cumsum(inner)])


def closed_scalar(a, b, c, d, path: BrownianPath, x0: float, params=None) -> np.ndarray:
    """Scalar variation-of-constants solution on a Brownian path.

    dx = (a x + c) dt + (b x + d) dw. With c = d = None this is the
    homogeneous solution x0 * exp(int(a - b^2/2) dtau + int b dw); otherwise
    the inhomogeneous terms enter through the integrating factor. All
    stochastic integrals use left-point quadrature on the path grid.
    """
    left = path.times()[:-1]
    b_v = _coef_values(b, left, params)
    lam = _left_exponent(_coef_values(a, left, params), b_v, path.dt, path.increments)
    if c is None and d is None:
        return np.exp(lam) * x0
    total = _variation_sum(lam, b_v, _coef_values(c, left, params),
                           _coef_values(d, left, params), path.dt, path.increments)
    return np.exp(lam) * (x0 + total)


def _triangular_columns(a_all: np.ndarray, g_all: np.ndarray, lam: np.ndarray, dt: float,
                        dw: np.ndarray, lower: bool) -> np.ndarray:
    """Fundamental matrix [node, n, n] of a triangular system with left-end
    coefficients [step, n, n] and diagonal exponents ``lam`` [n, node]; the
    built entries of a column feed the next, summed in ascending order."""
    n, count = lam.shape
    factor = np.exp(lam)
    u = np.zeros((count, n, n))
    for i in range(n):
        u[:, i, i] = factor[i]
    for j in range(n):
        for i in range(j + 1, n) if lower else range(j - 1, -1, -1):
            c_v = np.zeros(count - 1)
            d_v = np.zeros(count - 1)
            for k in range(j, i) if lower else range(i + 1, j + 1):
                c_v += a_all[:, i, k] * u[:-1, k, j]
                d_v += g_all[:, i, k] * u[:-1, k, j]
            u[:, i, j] = factor[i] * _variation_sum(lam[i], g_all[:, i, i], c_v, d_v, dt, dw)
    return u


def triangular_fundamental(system: LinearSde, path: BrownianPath) -> tuple[np.ndarray, np.ndarray]:
    """Fundamental matrix of an upper-triangular system by the column
    recursion, and the lower-triangular adjoint counterpart, on one path.

    Returns (U, U_adj), each of shape (count, n, n). Diagonal entries are
    the scalar closed forms exp(+-Lambda_i); off-diagonal entries feed on
    already-built entries of the same column through left-point integrals.
    """
    if not system.is_upper_triangular():
        raise EngineError("triangular engine requires an upper-triangular system")
    left = path.times()[:-1]
    dt, dw = path.dt, path.increments
    a_all = system.drift_at(left)
    g_all = system.diffusion_at(left)
    lam = np.array([_left_exponent(a_all[:, i, i], g_all[:, i, i], dt, dw)
                    for i in range(system.dim)])
    u = _triangular_columns(a_all, g_all, lam, dt, dw, lower=False)
    # Adjoint coefficients evaluated numerically; the diagonal exponent is
    # exactly -Lambda_i because (G^2)_ii = g_ii^2 for triangular G.
    ut = _triangular_columns(*_adjoint_table(a_all, g_all), -lam, dt, dw, lower=True)
    return u, ut


def constant_moment(system: LinearSde, p0, t: float) -> np.ndarray:
    """Exact E[u u^T] a time ``t`` after M(0) = p0, for constant coefficients.

    M' = A M + M A^T + G M G^T is linear in M, so on row-major vec M it is
    vec M(t) = expm(t L) vec M(0) with L = A (x) I + I (x) A + G (x) G. It
    shares no code with the RK4 engine, which it exists to check.
    """
    for matrix in (system.drift, system.diffusion):
        if any("t" in ex.free_names(entry) for row in matrix for entry in row):
            raise EngineError("the exact moment oracle needs coefficients constant in t")
    # Imported here: msd's start-up loads only the bare scipy package.
    from scipy.linalg import expm

    n = system.dim
    a, g, eye = system.drift_at(0.0), system.diffusion_at(0.0), np.eye(n)
    lop = np.kron(a, eye) + np.kron(eye, a) + np.kron(g, g)
    return (expm(t * lop) @ np.asarray(p0, dtype=float).reshape(n * n)).reshape(n, n)
