"""RNG streams, Brownian sampling, reductions, and matrix kernels."""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special  # noqa: F401  (the draws below compare against this process's)

from msd import numerics
from msd.numerics import RngStream


def test_same_stream_is_reproducible():
    a = numerics.normals(RngStream(seed=7, stream_index=3), 64)
    b = numerics.normals(RngStream(seed=7, stream_index=3), 64)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = numerics.normals(RngStream(7, 0), 64)
    b = numerics.normals(RngStream(7, 1), 64)
    c = numerics.normals(RngStream(8, 0), 64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_prefix_stability():
    # Drawing more values extends the sequence without changing the prefix.
    short = numerics.normals(RngStream(11, 2), 100)
    long = numerics.normals(RngStream(11, 2), 1000)
    assert np.array_equal(short, long[:100])


def test_brownian_moments():
    dt = 0.01
    path = numerics.brownian(0.0, dt, 100_000, RngStream(42, 0))
    inc = path.increments
    assert abs(np.mean(inc)) <= 4.0 * np.sqrt(dt / len(inc))
    assert np.var(inc) == pytest.approx(dt, rel=0.05)
    assert path.times()[0] == 0.0
    assert path.times()[-1] == pytest.approx(1000.0)


def test_brownian_rejects_bad_grid():
    with pytest.raises(numerics.NumericsError):
        numerics.brownian(0.0, -0.1, 10, RngStream(1, 0))
    with pytest.raises(numerics.NumericsError):
        numerics.brownian(0.0, 0.1, 0, RngStream(1, 0))


@pytest.mark.parametrize("dt", [0.0, -0.5, float("inf"), float("nan")])
def test_brownian_sampling_needs_a_positive_finite_step(dt):
    with pytest.raises(numerics.NumericsError, match="dt must be positive and finite"):
        numerics.brownian(0.0, dt, 10, RngStream(1, 0))
    with pytest.raises(numerics.NumericsError, match="dt must be positive and finite"):
        numerics.brownian_batch(1, 2, dt, 10)


@pytest.mark.parametrize("t0", [float("inf"), float("-inf"), float("nan")])
def test_brownian_path_needs_a_finite_start(t0):
    with pytest.raises(numerics.NumericsError, match="t0 must be finite"):
        numerics.brownian(t0, 0.1, 10, RngStream(1, 0))


SEEDS = [0, 5, -5, 2**63 + 7]


def _oracle(seed, n_paths, dt, steps):
    """Per-path increments from each stream's own Generator."""
    return np.stack([numerics.normals(RngStream(seed, m), steps) * np.sqrt(dt)
                     for m in range(n_paths)])


def test_brownian_batch_matches_single_streams():
    for seed in SEEDS:
        batch = numerics.brownian_batch(seed=seed, n_paths=4, dt=0.5, steps=1003)
        assert np.array_equal(batch, _oracle(seed, 4, 0.5, 1003))
        for m in range(4):
            single = numerics.brownian(0.0, 0.5, 1003, RngStream(seed, m))
            assert np.array_equal(batch[m], single.increments)


@pytest.mark.parametrize("block", [1, 7, 333])
def test_brownian_batch_blocks_equal_the_whole_batch(block):
    # 1003 steps: blocks end at every position within Philox's 4-value counter.
    starts = range(0, 1003, block)
    for seed in SEEDS:
        drawn = np.concatenate([numerics.brownian_batch(seed, 5, 0.01, min(block, 1003 - k), k)
                                for k in starts], axis=1)
        assert np.array_equal(drawn, _oracle(seed, 5, 0.01, 1003))
        assert np.array_equal(drawn, numerics.brownian_batch(seed, 5, 0.01, 1003))


def test_brownian_batch_refuses_a_negative_start():
    with pytest.raises(numerics.NumericsError, match="start must be non-negative, got -1"):
        numerics.brownian_batch(1, 2, 0.01, 10, -1)
    # and negative sizes, which numpy would refuse with a bare ValueError
    with pytest.raises(numerics.NumericsError, match="n_paths must be non-negative, got -1"):
        numerics.brownian_batch(1, -1, 0.1, 5)
    with pytest.raises(numerics.NumericsError, match="steps must be non-negative, got -1"):
        numerics.brownian_batch(1, 1, 0.1, -1)


@pytest.mark.parametrize("steps", [1003, 4999])
@pytest.mark.parametrize("start", [0, 1, 2, 3])
def test_brownian_batch_tiles_and_slices_equal_single_streams(steps, start):
    # Paths are drawn a tile of T at a time: one tile short of full, full,
    # one over, and two full tiles and a ragged third. 67 x 1003 values fill
    # two slices of the arithmetic and part of a third.
    tile = numerics._TILE_VALUES // steps
    for seed in SEEDS:
        every = _oracle(seed, 2 * tile + 3, 0.01, start + steps)[:, start:]
        for n_paths in (1, tile - 1, tile, tile + 1, 2 * tile + 3):
            batch = numerics.brownian_batch(seed, n_paths, 0.01, steps, start)
            assert np.array_equal(batch, every[:n_paths])


@pytest.mark.parametrize("key", [[2**64 - 1, 2**64 - 1], [2**64 - 5, 17], [3, 2**63 + 1]])
def test_plain_int_philox_state_gives_the_array_states_stream(key):
    # brownian_batch re-keys with a state of plain ints; keys near 2^64 must
    # give the stream that uint64 arrays give.
    def raw(as_array):
        kind = (lambda v: np.array(v, dtype=np.uint64)) if as_array else list
        bits = np.random.Philox(key=0)
        bits.state = {"bit_generator": "Philox",
                      "state": {"counter": kind([2**64 - 2, 5, 0, 0]), "key": kind(key)},
                      "buffer": kind([0, 0, 0, 0]), "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}
        return bits.random_raw(11)

    assert np.array_equal(raw(False), raw(True))


@pytest.mark.parametrize("steps", [1, 6, 13])
def test_batch_holds_each_step_contiguously(steps):
    # A step's increments of every path are one contiguous row, and the
    # values are still each path's own stream.
    for seed in SEEDS:
        blocks = [numerics.brownian_batch(seed, 7, 0.01, steps, j * steps) for j in range(3)]
        for block in blocks:
            assert block.shape == (7, steps)
            assert all(block[:, i].flags.c_contiguous for i in range(steps))
        assert np.array_equal(np.concatenate(blocks, axis=1), _oracle(seed, 7, 0.01, 3 * steps))


@pytest.mark.parametrize("key", [[0, 0], [5, 3], [2**64 - 5, 17]])
def test_bounded_integers_are_shifted_raw_values(key):
    # brownian_batch reads raw Philox output where _normals asks the
    # Generator for integers in [0, 2^53); Lemire's method never rejects on
    # that range and returns raw >> 11.
    key = np.array(key, dtype=np.uint64)
    bounded = np.random.Generator(np.random.Philox(key=key)).integers(
        0, 2**53, size=1003, dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(1003)
    assert np.array_equal(bounded, raw >> np.uint64(11))


def test_brownian_batch_memory():
    # A block past the start of the streams takes little beyond its own
    # buffer: one tile of raw values at a time, for short and long rows.
    numerics.brownian_batch(1, 2, 0.01, 50, 7)      # warm up
    for n_paths, steps in ((10**4, 50), (64, 5000)):
        tracemalloc.start()
        try:
            block = numerics.brownian_batch(1, n_paths, 0.01, steps, 7)
            assert tracemalloc.get_traced_memory()[1] <= 1.25 * block.nbytes
        finally:
            tracemalloc.stop()


# Run in a fresh interpreter: import msd.cli, run the ode route of fit,
# regularity, lyapunov and moments, then draw; print which of scipy.special
# and scipy.linalg were loaded after each stage, the exit codes and the
# draws' bytes.
_LAZY_SCIPY = r"""
import contextlib, io, json, sys
import msd.cli
from msd import numerics

def loaded():
    return [name for name in ("scipy.special", "scipy.linalg") if name in sys.modules]

report = {"import": loaded(), "codes": []}
for argv in (["fit", "--system", "perron-ode", "--rank", "1", "--s-values", "0.5,1.5",
              "--deltas", "0,1", "--dt", "0.05"],
             ["regularity", "--system", "perron-sde", "--t-start", "0.001",
              "--horizon", "2", "--bound-horizon", "10"],
             ["lyapunov", "--system", "diag-2x2", "--horizon", "5"],
             ["moments", "--system", "perron-sde", "--t0", "0.001", "--t1", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        report["codes"].append(msd.cli.dispatch([*argv, "--method", "ode"]))
report["ode"] = loaded()
report["normals"] = numerics.normals(numerics.RngStream(7, 3), 64).tobytes().hex()
report["batch"] = numerics.brownian_batch(7, 3, 0.01, 13, 5).tobytes().hex()
report["draw"] = loaded()
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def lazy_scipy():
    proc = subprocess.run([sys.executable, "-c", _LAZY_SCIPY], capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def test_start_up_and_the_ode_routes_load_no_scipy_submodule(lazy_scipy):
    assert lazy_scipy["import"] == []
    assert lazy_scipy["codes"] == [0, 0, 0, 0]
    assert lazy_scipy["ode"] == []


def test_the_first_draw_loads_scipy_special_and_draws_the_same_bytes(lazy_scipy):
    # This process imported scipy.special before its first draw. Whether
    # scipy.special loads scipy.linalg with it depends on the SciPy release.
    assert "scipy.special" in lazy_scipy["draw"]
    assert lazy_scipy["normals"] == numerics.normals(RngStream(7, 3), 64).tobytes().hex()
    assert lazy_scipy["batch"] == numerics.brownian_batch(7, 3, 0.01, 13, 5).tobytes().hex()


# ---------------------------------------------------------------------------
# Reductions


def test_pairwise_mean_std():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    mean, std = numerics.pairwise_mean_std(x)
    assert mean == 2.5
    assert std == pytest.approx(np.std(x, ddof=1), rel=1e-15)
    # The tree sum of 10 001 normals against the sum in sorted order
    # (reference; ordering noise ~1e-12); identical input, identical bits.
    x = np.random.default_rng(0).normal(size=10_001)
    mean, std = numerics.pairwise_mean_std(x)
    assert mean * len(x) == pytest.approx(float(np.sum(np.sort(x))), abs=1e-9)
    assert (mean, std) == numerics.pairwise_mean_std(x.copy())
    with pytest.raises(numerics.NumericsError):
        numerics.pairwise_mean_std(np.array([]))
    # A stack reduces its last axis; row i is the 1-D call on row i.
    rows = np.random.default_rng(1).normal(size=(13, 1001))
    means, stds = numerics.pairwise_mean_std(rows)
    assert means.shape == stds.shape == (13,)
    for i, row in enumerate(rows):
        assert (means[i], stds[i]) == numerics.pairwise_mean_std(row)


def _recursive_tree_sum(x):
    """The fixed tree as a recursion: leaves of at most 8 rows add
    0 + x[0] + x[1] + ... in order; larger nodes split at ceil(m / 2)."""
    if len(x) <= 8:
        return sum(x, np.zeros(x.shape[1:]))
    half = (len(x) + 1) // 2
    return _recursive_tree_sum(x[:half]) + _recursive_tree_sum(x[half:])


@pytest.mark.parametrize("m", [*range(1, 301), 1000, 1001, 4097, 10 ** 5])
def test_table_tree_sum_equals_the_recursive_tree_bitwise(m):
    rng = np.random.default_rng(m)
    x = rng.normal(size=(m, 3)) * 10.0 ** rng.uniform(-5, 5, size=(m, 3))
    ref = _recursive_tree_sum(x)
    transposed = np.ascontiguousarray(x.T).T       # strided rows, as _mean_squares reads
    for values in (x, transposed):
        assert np.array_equal(numerics._tree_sum(values), ref)
    for column in (x[:, 1], transposed[:, 1], np.ascontiguousarray(x[:, 1])):
        assert np.array_equal(numerics._tree_sum(column), ref[1])


def test_pairwise_mean_std_refuses_a_scalar():
    with pytest.raises(numerics.NumericsError, match="axis"):
        numerics.pairwise_mean_std(np.float64(3.0))
    with pytest.raises(numerics.NumericsError, match="axis"):
        numerics.pairwise_mean_std(3.0)


@pytest.mark.filterwarnings("error")
def test_pairwise_std_of_values_near_1e300_is_finite():
    # Frozen paths' sums of squares reach about 1e300; their deviations
    # squared would overflow. Their row is scaled by a power of two, exactly.
    x = np.array([1e300, 3e300, 2e300, 4e300, 0.5e300])
    mean, std = numerics.pairwise_mean_std(x)
    assert mean == pytest.approx(2.1e300, rel=1e-15)
    assert std == np.ldexp(numerics.pairwise_mean_std(np.ldexp(x, -1000))[1], 1000)
    assert std == pytest.approx(np.std(x / 1e300, ddof=1) * 1e300, rel=1e-14)
    # Rows of small deviations keep their bits beside it.
    rows = np.vstack([x, [1.0, 2.0, 3.0, 4.0, 0.5]])
    means, stds = numerics.pairwise_mean_std(rows)
    assert (means[0], stds[0]) == (mean, std)
    assert (means[1], stds[1]) == numerics.pairwise_mean_std(rows[1])


# ---------------------------------------------------------------------------
# QR


def test_qr_identity():
    q, r = numerics.gram_schmidt_qr(np.eye(3))
    assert np.array_equal(q, np.eye(3))
    assert np.array_equal(r, np.eye(3))


def test_qr_upper_triangular_input_is_fixed_point():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    q, r = numerics.gram_schmidt_qr(m)
    assert np.allclose(q, np.eye(2), atol=1e-15)
    assert np.allclose(r, m, atol=1e-15)


def test_qr_invariants_random():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = rng.normal(size=(n, n))
        q, r = numerics.gram_schmidt_qr(m)
        assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-10
        assert np.linalg.norm(q @ r - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
        assert np.all(np.diag(r) > 0.0)
        assert np.allclose(r, np.triu(r))
    # A stack factors every matrix with the same bits as one call each.
    for n in (1, 2, 3, 5):
        stack = rng.normal(size=(7, 5, n, n))
        q, r = numerics.gram_schmidt_qr(stack)
        for idx in np.ndindex(7, 5):
            q1, r1 = numerics.gram_schmidt_qr(stack[idx])
            assert np.array_equal(q[idx], q1) and np.array_equal(r[idx], r1)


def test_qr_rank_deficiency_names_column():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(numerics.RankDeficientError) as info:
        numerics.gram_schmidt_qr(m)
    assert info.value.column == 1
    assert info.value.index == ()
    # Inside a stack the error names the first bad matrix in C order, even
    # when a later one fails at an earlier column.
    stack = np.tile(np.eye(2), (3, 4, 1, 1))
    stack[2, 0] = 0.0
    stack[1, 3] = m
    with pytest.raises(numerics.RankDeficientError, match=r"matrix \(1, 3\)") as info:
        numerics.gram_schmidt_qr(stack)
    assert info.value.index == (1, 3)
    assert info.value.column == 1


def test_qr_rejects_nonsquare_and_oversize():
    with pytest.raises(numerics.NumericsError):
        numerics.gram_schmidt_qr(np.ones((2, 3)))
    with pytest.raises(numerics.NumericsError):
        numerics.gram_schmidt_qr(np.eye(17))


# ---------------------------------------------------------------------------
# Blockwise symmetric square root


def test_spd_sqrt_blocks_commute_with_projector():
    rng = np.random.default_rng(7)
    n, k = 5, 2
    m = rng.normal(size=(n, n))
    gram = m.T @ m + 0.1 * np.eye(n)
    p = np.diag([1.0] * k + [0.0] * (n - k))
    root = numerics.spd_sqrt_commuting(gram, rank=k)
    target = p @ gram @ p + (np.eye(n) - p) @ gram @ (np.eye(n) - p)
    assert np.linalg.norm(root @ root - target) <= 1e-10 * np.linalg.norm(target)
    assert np.linalg.norm(p @ root - root @ p) == 0.0
    assert np.allclose(root, root.T)
    # A stack takes every root with the same bits as one call each.
    ms = rng.normal(size=(7, 5, n, n))
    grams = np.swapaxes(ms, -1, -2) @ ms + 0.1 * np.eye(n)
    roots = numerics.spd_sqrt_commuting(grams, rank=k)
    for idx in np.ndindex(7, 5):
        assert np.array_equal(roots[idx], numerics.spd_sqrt_commuting(grams[idx], rank=k))


def test_spd_sqrt_full_rank_is_plain_sqrt():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(3, 3))
    gram = m.T @ m + 0.5 * np.eye(3)
    root = numerics.spd_sqrt_commuting(gram, rank=3)
    assert np.linalg.norm(root @ root - gram) <= 1e-11 * np.linalg.norm(gram)


def test_spd_sqrt_rejects_asymmetric_and_indefinite():
    with pytest.raises(numerics.NumericsError, match="not symmetric"):
        numerics.spd_sqrt_commuting(np.array([[1.0, 2.0], [0.0, 1.0]]), rank=1)
    with pytest.raises(numerics.NumericsError, match="not positive definite"):
        numerics.spd_sqrt_commuting(np.diag([1.0, -0.5]), rank=1)
