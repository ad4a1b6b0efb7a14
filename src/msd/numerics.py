"""Shared numerical kernels: RNG streams, Brownian paths, dense linear algebra.

Randomness is counter-based: a stream is identified by ``(seed, stream_index)``
and is reproducible in isolation, so path m of a simulation always sees the
same increments no matter how many other paths run or in what order. Normal
variates come from the inverse CDF applied to fixed-width uniforms, one draw
per variate; nothing in the pipeline uses rejection sampling, so streams never
diverge between runs.

Monte Carlo reductions use a fixed-shape pairwise tree so that results are
bit-identical regardless of how work might be batched. The reductions take
``(..., m)`` stacks and reduce the last axis; the matrix kernels take
``(..., n, n)`` stacks. Entry i of a stacked result equals the call on entry i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

MAX_DIM = 16

# 2^-53; uniforms are (k + 0.5) * 2^-53 with k drawn from 53 bits, so they
# live strictly inside (0, 1) and ndtri never sees an endpoint.
_U53 = 2.0 ** -53


class NumericsError(ValueError):
    """Raised for invalid inputs to the numerical kernels."""


class RankDeficientError(NumericsError):
    """QR met a (numerically) dependent column of the matrix at stack ``index``."""

    def __init__(self, column: int, norm: float, index: tuple[int, ...] = ()):
        where = f" of matrix {index}" if index else ""
        super().__init__(
            f"column {column}{where} is numerically dependent (residual norm {norm:.3e})"
        )
        self.column = column
        self.index = index


@dataclass(frozen=True)
class RngStream:
    """Identifier of an independent random stream."""

    seed: int
    stream_index: int

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % 2**64, self.stream_index % 2**64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _normals(gen: np.random.Generator, count: int) -> np.ndarray:
    bits = gen.integers(0, 2**53, size=count, dtype=np.uint64)
    u = (bits.astype(np.float64) + 0.5) * _U53
    return ndtri(u)


def normals(stream: RngStream, count: int) -> np.ndarray:
    """``count`` standard normals via inverse CDF on the counter stream."""
    return _normals(stream.generator(), count)


@dataclass(frozen=True)
class BrownianPath:
    """Increments of a scalar Brownian motion on a uniform grid.

    ``increments[k]`` is w(t0 + (k+1) dt) - w(t0 + k dt), distributed
    Normal(0, dt).
    """

    t0: float
    dt: float
    increments: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.increments)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps + 1)

    def cumulative(self) -> np.ndarray:
        """w(t_k) - w(t0) at every node, starting at 0."""
        out = np.empty(self.steps + 1)
        out[0] = 0.0
        np.cumsum(self.increments, out=out[1:])
        return out


def brownian(t0: float, dt: float, steps: int, stream: RngStream) -> BrownianPath:
    """Sample a Brownian path on ``steps`` uniform increments of size ``dt``."""
    if dt <= 0.0:
        raise NumericsError("dt must be positive")
    if steps < 1:
        raise NumericsError("need at least one step")
    return BrownianPath(t0, dt, normals(stream, steps) * np.sqrt(dt))


class BrownianStreams:
    """Increments of paths 0..n_paths-1, drawn in consecutive blocks of steps.

    Path m reads ``RngStream(seed, m)`` from its start and keeps its generator
    between blocks, so blocks laid side by side are bit-identical to
    :func:`brownian_batch` for the same total step count, whatever the block
    sizes. (Re-creating a generator and skipping ahead with
    ``Philox.advance`` gives the same numbers, but creating one costs about
    as much as drawing a thousand values.)
    """

    def __init__(self, seed: int, n_paths: int, dt: float):
        if dt <= 0.0:
            raise NumericsError("dt must be positive")
        self._generators = [RngStream(seed, m).generator() for m in range(n_paths)]
        self._root = np.sqrt(dt)

    def draw(self, steps: int) -> np.ndarray:
        """The next ``steps`` increments of every path; shape (n_paths, steps)."""
        out = np.empty((len(self._generators), steps))
        for m, gen in enumerate(self._generators):
            out[m] = _normals(gen, steps) * self._root
        return out


def brownian_batch(seed: int, n_paths: int, dt: float, steps: int) -> np.ndarray:
    """Increments for paths 0..n_paths-1, one stream per path; shape (n_paths, steps)."""
    return BrownianStreams(seed, n_paths, dt).draw(steps)


# ---------------------------------------------------------------------------
# Deterministic reductions


def _tree_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 with the fixed tree; leaves add whole rows in order."""
    if len(x) <= 8:
        return sum(x, np.zeros(x.shape[1:]))   # 0 + x[0] + x[1] + ..., in order
    half = (len(x) + 1) // 2
    return _tree_sum(x[:half]) + _tree_sum(x[half:])


def _rows_first(values: np.ndarray) -> np.ndarray:
    """A C-ordered copy with the reduced (last) axis moved to the front."""
    return np.array(np.moveaxis(np.asarray(values, dtype=np.float64), -1, 0), order="C")


def pairwise_sum(values: np.ndarray) -> float | np.ndarray:
    """Sum over the last axis with a fixed binary tree (blocks of 8 at the leaves).

    The tree shape depends only on ``values.shape[-1]``, so the result is
    bit-identical for any batching of the surrounding computation, and row
    ``i`` of a stacked call equals the call on row ``i``.
    """
    return _tree_sum(_rows_first(values))[()]


def pairwise_mean_std(values: np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Mean and sample standard deviation over the last axis, pairwise."""
    x = _rows_first(values)
    n = x.shape[0]
    if n == 0:
        raise NumericsError("empty sample")
    mean = _tree_sum(x) / n
    x -= mean           # x is our own copy: the deviations overwrite it
    x *= x
    # One value has zero deviation, so max() only avoids 0 / 0.
    return mean[()], np.sqrt(_tree_sum(x) / max(n - 1, 1))[()]


# ---------------------------------------------------------------------------
# Dense linear algebra (matrices are small: dim <= MAX_DIM)


def check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise NumericsError(f"dimension {n} outside [1, {MAX_DIM}]")


def _square_stack(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NumericsError("expected a square matrix or a stack of them")
    check_dim(a.shape[-1])
    return a


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of the last axes, each a 1 x n by n x 1 matmul like ``x @ y``."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def gram_schmidt_qr(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR via modified Gram-Schmidt with one re-orthogonalization pass.

    ``m`` is one matrix or a stack ``(..., n, n)``; every matrix of the
    stack runs the same sweep over the column index. R has a positive
    diagonal (sign convention that keeps factors continuous along a path of
    matrices). Raises :class:`RankDeficientError` naming the first
    numerically dependent column of the first such matrix.
    """
    a = _square_stack(m)
    n = a.shape[-1]
    q = np.zeros_like(a)
    r = np.zeros_like(a)
    # A dependent column divides by a (near-)zero norm; it is reported below.
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n):
            v = a[..., :, j].copy()
            # Two orthogonalization sweeps: the second removes the O(eps·cond)
            # residue the first leaves behind.
            for _ in range(2):
                for i in range(j):
                    c = _dot(q[..., :, i], v)
                    r[..., i, j] += c
                    v -= c[..., None] * q[..., :, i]
            r[..., j, j] = np.sqrt(_dot(v, v))
            q[..., :, j] = v / r[..., j, j, None]
    norms = np.diagonal(r, axis1=-2, axis2=-1)
    bad = np.argwhere(norms <= 1e-12 * np.linalg.norm(a, axis=(-2, -1))[..., None])
    if len(bad):
        *index, column = (int(i) for i in bad[0])   # first matrix in C order
        raise RankDeficientError(column, float(norms[(*index, column)]), tuple(index))
    return q, r


def spd_sqrt_commuting(gram: np.ndarray, rank: int) -> np.ndarray:
    """Symmetric PSD square root of P g P + Q g Q computed blockwise.

    ``gram`` is one matrix or a stack ``(..., n, n)``; each block takes one
    stacked eigendecomposition. ``rank`` is the size of the leading block
    (the canonical projector diag(Id_rank, 0)); the result commutes with
    that projector exactly by construction. Raises if a matrix is not
    symmetric or a block is not positive definite.
    """
    g = _square_stack(gram)
    n = g.shape[-1]
    if not 0 <= rank <= n:
        raise NumericsError(f"rank {rank} outside [0, {n}]")
    gt = np.swapaxes(g, -1, -2)
    asym = np.linalg.norm(g - gt, axis=(-2, -1))
    excess = asym > 1e-10 * np.maximum(1.0, np.linalg.norm(g, axis=(-2, -1)))
    if np.any(excess):
        raise NumericsError(
            f"matrix is not symmetric (asymmetry {asym[excess].flat[0]:.3e})")
    out = np.zeros_like(g)
    for lo, hi in ((0, rank), (rank, n)):
        if hi == lo:
            continue
        block = 0.5 * (g[..., lo:hi, lo:hi] + gt[..., lo:hi, lo:hi])
        w, v = np.linalg.eigh(block)
        smallest = w[..., 0]
        if np.any(smallest <= 0.0):
            raise NumericsError(
                f"projected Gram block [{lo}:{hi}] is not positive definite "
                f"(smallest eigenvalue {smallest[smallest <= 0.0].flat[0]:.3e})"
            )
        out[..., lo:hi, lo:hi] = (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    return out
