"""RNG streams, Brownian sampling, reductions, and matrix kernels."""

import tracemalloc

import numpy as np
import pytest

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
        numerics.BrownianStreams(seed=1, n_paths=2, dt=dt)
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
def test_brownian_streams_blocks_equal_batch(block):
    # 1003 steps: blocks end at every position within Philox's 4-value counter.
    sizes = [block] * (1003 // block) + ([1003 % block] if 1003 % block else [])
    for seed in SEEDS:
        streams = numerics.BrownianStreams(seed=seed, n_paths=5, dt=0.01)
        drawn = np.concatenate([streams.draw(m) for m in sizes], axis=1)
        assert np.array_equal(drawn, _oracle(seed, 5, 0.01, 1003))
        assert np.array_equal(drawn, numerics.brownian_batch(seed, 5, 0.01, 1003))
    with pytest.raises(numerics.NumericsError):
        numerics.BrownianStreams(seed=3, n_paths=5, dt=0.0)


@pytest.mark.parametrize("key", [[0, 0], [5, 3], [2**64 - 5, 17]])
def test_bounded_integers_are_shifted_raw_values(key):
    # BrownianStreams reads raw Philox output where _normals asks the
    # Generator for integers in [0, 2^53); Lemire's method never rejects on
    # that range and returns raw >> 11.
    key = np.array(key, dtype=np.uint64)
    bounded = np.random.Generator(np.random.Philox(key=key)).integers(
        0, 2**53, size=1003, dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(1003)
    assert np.array_equal(bounded, raw >> np.uint64(11))


def test_brownian_streams_memory():
    tracemalloc.start()
    try:
        numerics.BrownianStreams(1, 10**5, 0.01)
        assert tracemalloc.get_traced_memory()[1] < 10e6
        streams = numerics.BrownianStreams(1, 10**4, 0.01)
        tracemalloc.reset_peak()
        block = streams.draw(50)
        assert tracemalloc.get_traced_memory()[1] <= 1.25 * block.nbytes
    finally:
        tracemalloc.stop()


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
