import math

import numpy as np
import pytest

from msd import engines
from msd.engines import (
    EngineError,
    ExplosionError,
    MomentCurve,
    MomentSurface,
    NonPsdError,
    TimeGrid,
    closed_scalar,
    curve_to_csv,
    curve_to_records,
    fundamental_at,
    mc_moment_curve,
    mc_second_moment,
    moment_ode,
    simulate_fundamental,
    simulate_vectors,
    surface_to_csv,
    transition_second_moment,
    triangular_fundamental,
)
from msd.model import LinearSde, gallery, make_projector
from msd.numerics import BrownianPath, RngStream, brownian, pairwise_mean_std

E2M1 = 0.17377394345044514  # exp(-1.75), scalar second moment at t=1


def _euler_matrix(system, path):
    """Reference Euler-Maruyama on an explicit path, matching the engine's
    update rule term for term."""
    n = system.dim
    times = path.times()
    a = system.drift_at(times[:-1])
    g = system.diffusion_at(times[:-1])
    out = np.empty((path.steps + 1, n, n))
    out[0] = np.eye(n)
    cur = np.eye(n)
    for k in range(path.steps):
        cur = cur + path.dt * (a[k] @ cur) + path.increments[k] * (g[k] @ cur)
        out[k + 1] = cur
    return out


def _coarsen(path, factor=2):
    agg = path.increments.reshape(-1, factor).sum(axis=1)
    return BrownianPath(t0=path.t0, dt=factor * path.dt, increments=agg)


def _halving_rate(pathwise_error, seed, n_paths=32):
    """Strong-convergence rate per dt halving, measured across two halvings
    on a shared Brownian motion so the levels are coupled."""
    sq = {1: [], 4: []}
    for pidx in range(n_paths):
        fine = brownian(0.0, 5e-4, 2000, RngStream(seed, pidx))
        for factor in (1, 4):
            path = fine if factor == 1 else _coarsen(fine, factor)
            sq[factor].append(np.mean(pathwise_error(path) ** 2))
    e_fine = math.sqrt(np.mean(sq[1]))
    e_coarse = math.sqrt(np.mean(sq[4]))
    return math.sqrt(e_coarse / e_fine)


# ---------------------------------------------------------------------------
# grids


def test_grid_basics():
    grid = TimeGrid.spanning(0.0, 1.0, 1e-3)
    assert grid.count == 1001 and grid.dt == pytest.approx(1e-3)
    assert grid.node_at(1.0) == 1000
    assert grid.node_at(0.0) == 0
    with pytest.raises(EngineError, match="not a grid node"):
        grid.node_at(0.00037)
    with pytest.raises(EngineError):
        TimeGrid(0.0, -0.1, 10)
    with pytest.raises(EngineError):
        TimeGrid(0.0, 0.1, 1)


# ---------------------------------------------------------------------------
# simulate_fundamental


def test_zero_system_is_identity():
    sys_ = LinearSde.from_strings(2, [["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]])
    ens = simulate_fundamental(sys_, TimeGrid(0.0, 0.1, 11), paths=3, seed=1)
    eye = np.eye(2)
    assert np.all(ens.phi == eye)
    assert np.all(ens.psi == eye)


def test_simulate_matches_reference_update():
    sys_ = gallery("triangular-2x2")
    grid = TimeGrid.spanning(0.0, 0.5, 1e-2)
    ens = simulate_fundamental(sys_, grid, paths=3, seed=11)
    for p in range(3):
        path = BrownianPath(0.0, grid.dt, ens.increments[p])
        ref = _euler_matrix(sys_, path)
        np.testing.assert_allclose(ens.phi[:, p], ref, atol=1e-13)


def test_closed_form_halving_rate_on_shared_noise():
    sys_ = gallery("gbm")

    def err(path):
        em = _euler_matrix(sys_, path)[:, 0, 0]
        closed = closed_scalar("a", "b", None, None, path, 1.0, sys_.params)
        return (em - closed) / (1.0 + np.abs(closed))

    assert 1.2 <= _halving_rate(err, seed=23) <= 2.2


def test_explosion_reports_location():
    sys_ = gallery("gbm", b=5.0)
    with pytest.raises(ExplosionError) as info:
        simulate_fundamental(sys_, TimeGrid(0.0, 10.0, 201), paths=4, seed=1)
    err = info.value
    assert "path" in str(err) and "entry" in str(err)
    assert 0 <= err.path < 4
    assert err.entry == (0, 0)
    assert err.node >= 1


def test_coupled_inverse_drift_small_gbm():
    # ||Psi Phi - Id|| is a discrete martingale in the quadratic-variation
    # error; at dt=1e-4 over [0,1] it stays within 0.01 here.
    ens = simulate_fundamental(gallery("gbm"), TimeGrid.spanning(0.0, 1.0, 1e-4), paths=8, seed=3)
    prod = np.einsum("kpij,kpjl->kpil", ens.psi, ens.phi)
    dev = np.abs(prod[:, :, 0, 0] - 1.0)
    assert dev.max() <= 0.01


def test_coupled_inverse_drift_shrinks_with_dt():
    devs = []
    for dt in (2e-4, 1e-4):
        ens = simulate_fundamental(gallery("gbm"), TimeGrid.spanning(0.0, 1.0, dt), paths=8, seed=5)
        prod = np.einsum("kpij,kpjl->kpil", ens.psi, ens.phi)
        devs.append(np.abs(prod[:, :, 0, 0] - 1.0).max())
    assert 1.2 <= devs[0] / devs[1] <= 2.2


def test_coupled_inverse_drift_perron():
    # The unit-diffusion block needs a finer grid for the same tolerance.
    sys_ = gallery("perron-sde")
    ens = simulate_fundamental(sys_, TimeGrid.spanning(1.0, 2.0, 1e-5), paths=2, seed=2)
    prod = np.einsum("kpij,kpjl->kpil", ens.psi, ens.phi)
    eye = np.eye(2)
    dev = np.linalg.norm(prod - eye, axis=(2, 3))
    assert dev.max() <= 0.01


def test_pathwise_duality_pairing():
    sys_ = gallery("perron-sde")
    ens = simulate_fundamental(sys_, TimeGrid.spanning(1.0, 2.0, 1e-5), paths=2, seed=2)
    u0 = np.array([1.0, 1.0]) / math.sqrt(2)
    v0 = np.array([1.0, -1.0]) / math.sqrt(2)
    u = ens.phi @ u0
    v = np.transpose(ens.psi, (0, 1, 3, 2)) @ v0
    pairing = np.sum(u * v, axis=2)
    assert np.abs(pairing - u0 @ v0).max() <= 0.01


# ---------------------------------------------------------------------------
# simulate_vectors


def test_vectors_match_ensemble_columns():
    sys_ = gallery("diag-2x2")
    grid = TimeGrid.spanning(0.0, 1.0, 1e-2)
    ens = simulate_fundamental(sys_, grid, paths=5, seed=9)
    nodes, vals = simulate_vectors(sys_, grid, paths=5, seed=9, x0=np.array([1.0, 0.0]))
    assert np.array_equal(nodes, np.arange(grid.count))
    np.testing.assert_allclose(vals, ens.phi[:, :, :, 0], atol=1e-12)


def test_vectors_record_subset():
    sys_ = gallery("gbm")
    grid = TimeGrid.spanning(0.0, 1.0, 1e-2)
    nodes, vals = simulate_vectors(sys_, grid, paths=2, seed=9, x0=np.array([2.0]),
                                   record_nodes=[0, 50, 100])
    assert list(nodes) == [0, 50, 100]
    assert vals.shape == (3, 2, 1)
    assert np.all(vals[0] == 2.0)
    with pytest.raises(EngineError, match="out of range"):
        simulate_vectors(sys_, grid, 2, 9, np.array([1.0]), record_nodes=[200])


# ---------------------------------------------------------------------------
# moment_ode


def test_moment_scalar_oracle():
    curve, final = moment_ode(gallery("gbm"), np.array([[1.0]]), 0.0, 1.0, dt=1e-3)
    assert final[0, 0] == pytest.approx(E2M1, rel=1e-8)
    assert curve.values[0] == 1.0
    assert curve.exact


def test_moment_zero_system_constant():
    sys_ = LinearSde.from_strings(2, [["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]])
    p0 = np.array([[2.0, 0.0], [0.0, 1.0]])
    curve, final = moment_ode(sys_, p0, 0.0, 2.0, dt=1e-2)
    assert np.allclose(curve.values, 3.0)
    np.testing.assert_allclose(final, p0)


def test_moment_skew_drift_conserves_trace():
    sys_ = LinearSde.from_strings(2, [["0", "1"], ["-1", "0"]], [["0", "0"], ["0", "0"]])
    curve, _ = moment_ode(sys_, np.eye(2), 0.0, 5.0, dt=1e-2)
    np.testing.assert_allclose(curve.values, 2.0, atol=1e-10)


@pytest.mark.parametrize("a,b", [(-1.0, 0.5), (0.3, 1.1), (-2.0, 0.0)])
def test_moment_matches_scalar_closed_form(a, b):
    sys_ = gallery("gbm", a=a, b=b)
    _, final = moment_ode(sys_, np.array([[1.0]]), 0.3, 1.3, dt=1e-3)
    assert final[0, 0] == pytest.approx(math.exp(2 * a + b * b), rel=1e-8)


def test_moment_input_validation():
    sys_ = gallery("diag-2x2")
    with pytest.raises(EngineError, match="symmetric"):
        moment_ode(sys_, np.array([[1.0, 0.5], [0.0, 1.0]]), 0.0, 1.0)
    with pytest.raises(NonPsdError):
        moment_ode(sys_, np.array([[1.0, 0.0], [0.0, -0.1]]), 0.0, 1.0)
    with pytest.raises(EngineError, match="t_to > t_from"):
        moment_ode(sys_, np.eye(2), 1.0, 1.0)
    with pytest.raises(EngineError, match="2x2"):
        moment_ode(sys_, np.eye(3), 0.0, 1.0)


# ---------------------------------------------------------------------------
# transition_second_moment


def test_transition_scalar_oracle():
    assert transition_second_moment(gallery("gbm"), 0.0, 1.0) == pytest.approx(E2M1, rel=1e-8)


def test_transition_at_equal_times():
    assert transition_second_moment(gallery("diag-2x2"), 0.7, 0.7) == 2.0
    p = make_projector(2, 1)
    assert transition_second_moment(gallery("diag-2x2"), 0.7, 0.7, p) == 1.0


def test_transition_backward_scalar_blocks():
    # Backward moments have closed form exp((-2a + 3g^2)(s - t)) per block.
    sys_ = gallery("diag-2x2")
    tau = 0.7
    v = transition_second_moment(sys_, 1.0, 0.3, make_projector(2, 1))
    assert v == pytest.approx(math.exp((4.0 + 3 * 0.09) * tau), rel=1e-6)
    full = transition_second_moment(sys_, 1.0, 0.3)
    expect = math.exp((2.0 + 3 * 0.04) * tau) + math.exp((4.0 + 3 * 0.09) * tau)
    assert full == pytest.approx(expect, rel=1e-6)


def test_transition_perron_block_exceeds_drift_only():
    # First block: drift integral telescopes to (-2a+2b)(t-s) + 4bs at these
    # times; the diffusion term adds g^2 (t-s) on top.
    sys_ = gallery("perron-sde")
    s = math.exp(math.pi / 2)
    t = math.exp(3 * math.pi / 2)
    delta = t - s
    got = transition_second_moment(sys_, s, t, make_projector(2, 1), dt=1e-2)
    closed = math.exp((-0.1 + 0.25) * delta + 4.0 * s)
    drift_only = math.exp(-0.1 * delta + 4.0 * s)
    assert got == pytest.approx(closed, rel=1e-4)
    assert got > 10.0 * drift_only


def test_transition_rejects_coupled_projector():
    with pytest.raises(EngineError, match="use Monte Carlo"):
        transition_second_moment(gallery("triangular-2x2"), 0.0, 1.0, make_projector(2, 1))


# ---------------------------------------------------------------------------
# Streaming Euler-Maruyama kernel


@pytest.mark.parametrize("chunk", [1, 100, None])
def test_kernel_results_do_not_depend_on_the_block_size(monkeypatch, chunk):
    # CHUNK_VALUES 1 steps one node per block, 100 gives ragged 6-step
    # blocks, None keeps the default (one block here). The held ensemble
    # draws its own increments block by block; the full one takes them from
    # brownian_batch.
    sys_ = gallery("perron-sde")
    grid = TimeGrid.spanning(1.0, 1.5, 1e-2)
    ens = simulate_fundamental(sys_, grid, paths=3, seed=4)
    x0 = np.array([0.6, -0.8])
    ref_nodes, ref_vals = simulate_vectors(sys_, grid, 3, 4, x0, record_nodes=[13, 50])
    if chunk is not None:
        monkeypatch.setattr(engines, "CHUNK_VALUES", chunk)
    again = simulate_fundamental(sys_, grid, paths=3, seed=4)
    assert np.array_equal(again.phi, ens.phi) and np.array_equal(again.psi, ens.psi)
    held = fundamental_at(sys_, grid, 3, 4, [50, 7, 0, 13, 7])
    assert held.increments is None and list(held.nodes) == [0, 7, 13, 50]
    assert np.array_equal(held.phi, ens.phi[held.nodes])
    assert np.array_equal(held.psi, ens.psi[held.nodes])
    nodes, vals = simulate_vectors(sys_, grid, 3, 4, x0, record_nodes=[13, 50])
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(vals, ref_vals)


def test_held_ensemble_serves_only_its_nodes():
    grid = TimeGrid.spanning(0.0, 1.0, 1e-2)
    full = simulate_fundamental(gallery("diag-2x2"), grid, paths=50, seed=8)
    held = fundamental_at(gallery("diag-2x2"), grid, 50, 8, [20, 90])
    p = make_projector(2, 1)
    assert mc_second_moment(held, 20, 90, p) == mc_second_moment(full, 20, 90, p)
    # The complement matrix is applied as given.
    assert (mc_second_moment(held, 90, 20, p.complement_matrix)
            == mc_second_moment(full, 90, 20, p.complement_matrix))
    with pytest.raises(EngineError, match="not held"):
        mc_second_moment(held, 0, 90)
    with pytest.raises(EngineError, match="out of range"):
        mc_second_moment(held, 20, 101)


@pytest.mark.parametrize("chunk", [40, None])
def test_streamed_moments_equal_ensemble_reduction(monkeypatch, chunk):
    # CHUNK_VALUES 40 reduces 8 paths in blocks of 5 nodes (51 nodes: the
    # last block has one) and steps 2 nodes per draw block.
    sys_ = gallery("triangular-2x2")
    grid = TimeGrid.spanning(0.0, 0.5, 1e-2)
    ens = simulate_fundamental(sys_, grid, paths=8, seed=6)
    means, stds = pairwise_mean_std(np.sum(ens.phi ** 2, axis=(2, 3)))
    if chunk is not None:
        monkeypatch.setattr(engines, "CHUNK_VALUES", chunk)
    curve = mc_moment_curve(sys_, grid, 8, 6)
    assert np.array_equal(curve.ts, grid.times())
    assert np.array_equal(curve.values, means)
    assert np.array_equal(curve.stderrs, stds / math.sqrt(8))


def test_em_weak_order_on_gbm():
    # For dX = a X dt + g X dw the Euler-Maruyama chain has
    # E X_N^2 = prod_k ((1 + a h)^2 + g^2 h) exactly; its gap to the true
    # exp((2a + g^2) T) halves with h (weak order one; Kloeden & Platen 1992).
    a, g = -1.0, 0.5
    exact = math.exp(2.0 * a + g * g)
    em = {h: ((1.0 + a * h) ** 2 + g * g * h) ** round(1.0 / h) for h in (0.1, 0.05, 0.025)}
    assert 1.8 <= (exact - em[0.1]) / (exact - em[0.05]) <= 2.2
    assert 1.8 <= (exact - em[0.05]) / (exact - em[0.025]) <= 2.2
    for h in (0.1, 0.05):
        curve = mc_moment_curve(gallery("gbm"), TimeGrid.spanning(0.0, 1.0, h), 40_000, seed=12)
        value, err = curve.values[-1], curve.stderrs[-1]
        assert abs(value - em[h]) <= 6.0 * err
        if h == 0.1:
            # The sample resolves the coarse step's bias: 5.6 stderr here.
            assert exact - value > 3.0 * err


# ---------------------------------------------------------------------------
# mc_second_moment


def test_mc_equal_nodes_exact():
    ens = simulate_fundamental(gallery("diag-2x2"), TimeGrid(0.0, 0.01, 11), paths=7, seed=21)
    value, err = mc_second_moment(ens, 5, 5)
    assert value == 2.0 and err == 0.0


def test_mc_matches_scalar_oracle():
    ens = simulate_fundamental(gallery("gbm"), TimeGrid.spanning(0.0, 1.0, 1e-3),
                               paths=10_000, seed=40)
    value, err = mc_second_moment(ens, 0, 1000)
    assert err > 0.0
    assert abs(value - E2M1) <= 3.0 * err


def test_mc_block_projector_matches_ode():
    sys_ = gallery("diag-2x2")
    grid = TimeGrid.spanning(0.0, 1.0, 2e-3)
    ens = simulate_fundamental(sys_, grid, paths=4000, seed=41)
    p = make_projector(2, 1)
    oracle = transition_second_moment(sys_, 0.5, 1.0, p)
    value, err = mc_second_moment(ens, grid.node_at(0.5), grid.node_at(1.0), p)
    assert abs(value - oracle) <= 3.0 * err + 2e-3
    assert mc_second_moment(ens, grid.node_at(0.5), grid.node_at(1.0), p.matrix) == (value, err)


def test_mc_inverse_side_none():
    ens = simulate_fundamental(gallery("gbm"), TimeGrid.spanning(0.0, 1.0, 1e-3),
                               paths=4000, seed=42)
    value, err = mc_second_moment(ens, 0, 1000, inverse_side="none")
    assert abs(value - E2M1) <= 3.0 * err


def test_mc_validation():
    ens = simulate_fundamental(gallery("gbm"), TimeGrid(0.0, 0.1, 3), paths=2, seed=1)
    with pytest.raises(EngineError, match="out of range"):
        mc_second_moment(ens, 0, 5)
    with pytest.raises(EngineError, match="inverse_side"):
        mc_second_moment(ens, 0, 1, inverse_side="middle")


# ---------------------------------------------------------------------------
# closed forms


def test_closed_scalar_constant():
    path = brownian(0.0, 0.125, 16, RngStream(1, 0))
    x = closed_scalar(None, None, None, None, path, 5.0)
    assert np.all(x == 5.0)


def test_closed_scalar_pure_drift_integral():
    path = brownian(0.0, 0.125, 16, RngStream(1, 0))
    x = closed_scalar(None, None, 1.0, None, path, 0.0)
    np.testing.assert_array_equal(x, path.times())


def test_closed_scalar_moment_across_paths():
    params = {"a": -1.0, "b": 0.5}
    finals = np.empty(10_000)
    for p in range(10_000):
        path = brownian(0.0, 1e-2, 100, RngStream(17, p))
        finals[p] = closed_scalar("a", "b", None, None, path, 1.0, params)[-1]
    second = finals**2
    mean = second.mean()
    stderr = second.std(ddof=1) / 100.0
    assert abs(mean - E2M1) <= 3.0 * stderr


def test_triangular_diagonal_collapse():
    sys_ = gallery("diag-2x2")
    path = brownian(0.0, 1e-2, 200, RngStream(5, 0))
    u, ut = triangular_fundamental(sys_, path)
    assert np.all(u[:, 0, 1] == 0.0) and np.all(u[:, 1, 0] == 0.0)
    d0 = closed_scalar("a1", "g1", None, None, path, 1.0, sys_.params)
    np.testing.assert_array_equal(u[:, 0, 0], d0)
    np.testing.assert_allclose(ut[:, 0, 0], 1.0 / d0, rtol=1e-12)


def test_triangular_initial_duality_exact():
    u, ut = triangular_fundamental(gallery("triangular-2x2"), brownian(0.0, 0.01, 10, RngStream(2, 0)))
    np.testing.assert_array_equal(ut[0].T @ u[0], np.eye(2))


def test_triangular_tracks_simulated_ensemble():
    sys_ = gallery("triangular-2x2")
    grid = TimeGrid.spanning(0.0, 1.0, 1e-3)
    ens = simulate_fundamental(sys_, grid, paths=4, seed=7)
    for p in range(4):
        path = BrownianPath(0.0, grid.dt, ens.increments[p])
        u, ut = triangular_fundamental(sys_, path)
        assert np.max(np.abs(u - ens.phi[:, p])) <= 0.05
        # The adjoint grows here, so compare relative to magnitude.
        psi_t = np.transpose(ens.psi[:, p], (0, 2, 1))
        scaled = np.abs(ut - psi_t) / (1.0 + np.abs(psi_t))
        assert scaled.max() <= 0.02


def test_triangular_adjoint_inverts_forward():
    sys_ = gallery("triangular-2x2")
    path = brownian(0.0, 1e-4, 10_000, RngStream(13, 0))
    u, ut = triangular_fundamental(sys_, path)
    prods = np.einsum("kji,kjl->kil", ut, u)  # Ut^T U
    dev = np.linalg.norm(prods - np.eye(2), axis=(1, 2))
    assert dev.max() <= 0.02


def test_triangular_halving_rate_against_euler():
    sys_ = gallery("triangular-2x2")

    def err(path):
        u, _ = triangular_fundamental(sys_, path)
        em = _euler_matrix(sys_, path)
        return (u - em) / (1.0 + np.abs(u))

    assert 1.2 <= _halving_rate(err, seed=29) <= 2.2


def test_triangular_rejects_lower_entries():
    bad = LinearSde.from_strings(2, [["-1", "0"], ["1", "-2"]], [["0", "0"], ["0", "0"]])
    with pytest.raises(EngineError, match="upper-triangular"):
        triangular_fundamental(bad, brownian(0.0, 0.1, 10, RngStream(1, 0)))


# ---------------------------------------------------------------------------
# engine agreement across the gallery


def _is_noiseless(system):
    return np.all(system.diffusion_at(np.array([0.3, 2.0, 7.0])) == 0.0)


@pytest.mark.parametrize("name", ["gbm", "perron-ode", "perron-sde", "triangular-2x2", "diag-2x2"])
def test_engine_agreement_on_grid(name):
    sys_ = gallery(name)
    t0 = 1.0 if name.startswith("perron") else 0.0
    grid = TimeGrid.spanning(t0, t0 + 1.0, 1e-3)
    paths = 200 if _is_noiseless(sys_) else 10_000
    ens = simulate_fundamental(sys_, grid, paths=paths, seed=99)
    nodes = [0, 250, 500, 750, 1000]
    times = grid.times()
    for sn in nodes:
        for tn in nodes:
            oracle = transition_second_moment(sys_, times[sn], times[tn], dt=1e-3)
            value, err = mc_second_moment(ens, sn, tn)
            if _is_noiseless(sys_):
                assert value == pytest.approx(oracle, rel=0.01)
            else:
                assert abs(value - oracle) <= 3.0 * err + 1e-3 * oracle


# ---------------------------------------------------------------------------
# serialization


def test_curve_csv_and_records():
    curve = MomentCurve(ts=np.array([0.0, 0.5]), values=np.array([1.0, 2.0]))
    text = curve_to_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "t,value,stderr"
    assert lines[1] == "0,1,0"
    recs = curve_to_records(curve)
    assert recs[1] == {"t": 0.5, "value": 2.0, "stderr": 0.0}


def test_surface_csv_header():
    surf = MomentSurface(ss=np.array([0.0]), ts=np.array([1.0]), values=np.array([3.0]),
                         stderrs=np.array([0.1]), sense="stable")
    lines = surface_to_csv(surf).strip().split("\n")
    assert lines[0] == "t,s,value,stderr"
    assert lines[1].startswith("1,0,3,")
