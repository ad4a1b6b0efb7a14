"""Shared numerical kernels: RNG streams, Brownian paths, dense linear algebra.

Randomness is counter-based: a stream is identified by ``(seed, stream_index)``
and is reproducible in isolation, so path m of a simulation always sees the
same increments no matter how many other paths run or in what order. Value j
of a stream is a pure function of its key and j (Philox; Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), so a batch of
streams is drawn from one bit generator re-keyed per stream. Normal
variates of the Brownian increments come from the inverse CDF applied to
fixed-width uniforms, one draw per variate, never from rejection sampling, so
path streams never diverge between runs. (Draws that drive no path, such as
random probe directions and the smallness falsifier's samples, use the
generator's own samplers, ``standard_normal`` among them.)

Monte Carlo reductions use a fixed-shape pairwise tree so that results are
bit-identical regardless of how work might be batched. The reduction takes
``(..., m)`` stacks and reduces the last axis; the matrix kernels take
``(..., n, n)`` stacks. Entry i of a stacked result equals the call on entry i.
"""

from __future__ import annotations

import math
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


def _check_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0.0):
        raise NumericsError(f"dt must be positive and finite, got {dt!r}")


def brownian(t0: float, dt: float, steps: int, stream: RngStream) -> BrownianPath:
    """Sample a Brownian path on ``steps`` uniform increments of size ``dt``."""
    if not math.isfinite(t0):
        raise NumericsError(f"t0 must be finite, got {t0!r}")
    _check_dt(dt)
    if steps < 1:
        raise NumericsError("need at least one step")
    return BrownianPath(t0, dt, normals(stream, steps) * np.sqrt(dt))


class BrownianStreams:
    """Increments of paths 0..n_paths-1, drawn in consecutive blocks of steps.

    Path m reads ``RngStream(seed, m)`` from its start, so blocks laid side
    by side are bit-identical to :func:`normals` on each path's stream,
    whatever the block sizes. Every path has drawn the same number of
    values, which fixes the Philox counter of all of them; so no per-path
    state is kept, and each block re-keys one bit generator per path at
    that counter.
    """

    def __init__(self, seed: int, n_paths: int, dt: float):
        _check_dt(dt)
        self._seed = seed % 2**64
        self._paths = n_paths
        self._root = np.sqrt(dt)
        self._drawn = 0          # values drawn so far on every path
        self._bits = np.random.Philox(key=0)   # re-keyed for every path

    def draw(self, steps: int) -> np.ndarray:
        """The next ``steps`` increments of every path; shape (n_paths, steps)."""
        # Philox makes 4 values per counter step and steps the counter before
        # it fills its buffer, so value j comes from counter j // 4 + 1:
        # start one counter back with an empty buffer and drop the values
        # of the current counter that were drawn already.
        block, skip = divmod(self._drawn, 4)
        key = np.array([self._seed, 0], dtype=np.uint64)
        state = {"bit_generator": "Philox",
                 "state": {"counter": np.array([block, 0, 0, 0], dtype=np.uint64),
                           "key": key},
                 "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        # Generator.integers(0, 2**53) maps a raw value r to r >> 11 (Lemire's
        # method never rejects on a power-of-two range); the rest of
        # _normals' arithmetic runs in place on the one output buffer.
        out = np.empty((self._paths, steps))
        for m in range(self._paths):
            key[1] = m
            self._bits.state = state
            raw = self._bits.random_raw(skip + steps)
            raw >>= np.uint64(11)
            out[m] = raw[skip:]
        self._drawn += steps
        out += 0.5
        out *= _U53
        ndtri(out, out=out)
        out *= self._root
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


def pairwise_mean_std(values: np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Mean and sample standard deviation over the last axis, pairwise.

    Both sums use a fixed binary tree (blocks of 8 at the leaves) whose shape
    depends only on ``values.shape[-1]``.
    """
    return _mean_std_in_place(_rows_first(values))


_HUGE_DEVIATION = 2.0 ** 480


def _mean_std_in_place(x: np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """:func:`pairwise_mean_std` over axis 0 of ``x``, whose values it overwrites."""
    n = x.shape[0]
    if n == 0:
        raise NumericsError("empty sample")
    mean = _tree_sum(x) / n
    x -= mean           # the deviations overwrite the values
    # A deviation beyond 2^480 (a frozen path's sum of squares reaches 1e300)
    # could overflow once squared and summed: its column is scaled by a power
    # of two first and its root scaled back, exactly. Other columns keep their
    # bits.
    shift = 0
    if x.size and max(x.max(), -x.min()) > _HUGE_DEVIATION:
        peak = np.max(np.abs(x), axis=0)
        shift = np.where(peak > _HUGE_DEVIATION, np.frexp(peak)[1], 0)
        np.ldexp(x, -shift, out=x)
    x *= x
    # One value has zero deviation, so max() only avoids 0 / 0.
    return mean[()], np.ldexp(np.sqrt(_tree_sum(x) / max(n - 1, 1)), shift)[()]


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
