import math
import tracemalloc
import warnings

import numpy as np
import pytest

from msd import dichotomy, engines, perturb
from msd.dichotomy import dichotomy_surface
from msd.engines import (
    DivergenceError,
    EngineError,
    ExplosionError,
    FundamentalEnsemble,
    NonPsdError,
    euler_maruyama,
    TimeGrid,
    closed_scalar,
    constant_moment,
    fundamental_at,
    mc_moment_curve,
    mc_second_moment,
    moment_log_trace,
    moment_ode,
    simulate_fundamental,
    simulate_vectors,
    transition_second_moment,
    triangular_fundamental,
)
from msd.lyapunov import duality_defect
from msd.model import (LinearSde, PerturbationSpec, PerturbedSde, adjoint, gallery,
                       make_projector)
from msd.numerics import BrownianPath, RngStream, brownian, brownian_batch, pairwise_mean_std

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


@pytest.mark.parametrize("dt", [0.0, -0.5, math.inf, math.nan])
def test_spanning_rejects_a_step_that_is_not_positive_and_finite(dt):
    with pytest.raises(EngineError, match="dt must be positive and finite"):
        TimeGrid.spanning(0.0, 1.0, dt)


@pytest.mark.parametrize("t0, dt, match", [
    (0.0, math.nan, "dt must be positive and finite"),
    (0.0, math.inf, "dt must be positive and finite"),
    (0.0, 0.0, "dt must be positive and finite"),
    (math.nan, 0.1, "t0 must be finite"),
    (-math.inf, 0.1, "t0 must be finite"),
])
def test_grid_rejects_a_start_or_step_that_is_not_finite(t0, dt, match):
    with pytest.raises(EngineError, match=match):
        TimeGrid(t0, dt, 10)


@pytest.mark.parametrize("dt", [1e-300, 5e-324, 0.99e-7])
def test_grid_refuses_more_than_ten_million_steps(dt):
    # Refused before anything is allocated; 5e-324 makes the step ratio inf.
    with pytest.raises(EngineError, match="more than 1e\\+07 steps"):
        TimeGrid.spanning(0.0, 1.0, dt)
    assert TimeGrid.spanning(0.0, 1.0, 1e-7).steps == 10 ** 7


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
    with pytest.raises(EngineError, match=r"shape \(1,\)"):
        simulate_vectors(sys_, grid, 2, 9, np.ones((2, 1)))


@pytest.mark.parametrize("paths", [0, -1])
@pytest.mark.parametrize("entry", ["mc_moment_curve", "fundamental_at", "simulate_vectors",
                                   "simulate_fundamental", "dichotomy_surface"])
def test_path_count_checked_before_allocation(entry, paths):
    sys_ = gallery("gbm")
    grid = TimeGrid(0.0, 0.1, 11)
    calls = {
        "mc_moment_curve": lambda: mc_moment_curve(sys_, grid, paths, 1),
        "fundamental_at": lambda: fundamental_at(sys_, grid, paths, 1, [0, 10]),
        "simulate_vectors": lambda: simulate_vectors(sys_, grid, paths, 1, np.array([1.0])),
        "simulate_fundamental": lambda: simulate_fundamental(sys_, grid, paths, 1),
        "dichotomy_surface": lambda: dichotomy_surface(sys_, None, [(0.0, 0.5)], method="mc",
                                                       dt=0.1, paths=paths),
    }
    with pytest.raises(EngineError, match="at least one path"):
        calls[entry]()


# ---------------------------------------------------------------------------
# moment_ode


def test_moment_scalar_oracle():
    curve, final = moment_ode(gallery("gbm"), np.array([[1.0]]), 0.0, 1.0, dt=1e-3)
    assert final[0, 0] == pytest.approx(E2M1, rel=1e-8)
    assert curve.values[0] == 1.0
    assert curve.stderrs is None


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


def test_moment_ode_rejects_negative_step():
    # A negative step once ran gbm to t = 1 in one RK4 step (0.2788).
    with pytest.raises(EngineError, match="dt must be positive"):
        moment_ode(gallery("gbm"), np.eye(1), 0.0, 1.0, dt=-0.1)


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


def test_moment_log_trace_needs_a_positive_initial_trace():
    with pytest.raises(EngineError, match="positive initial trace"):
        moment_log_trace(gallery("diag-2x2"), np.zeros((2, 2)), 0.0, 1.0)


# A coupled, non-normal constant system for the exact oracle.
COUPLED = LinearSde.from_strings(2, [["-1", "3"], ["-2", "-0.5"]],
                                 [["0.3", "0.8"], ["-0.4", "0.2"]])


def _oracle_error(dt):
    exact = np.trace(constant_moment(COUPLED, np.eye(2), 2.0))
    curve, _ = moment_ode(COUPLED, np.eye(2), 0.0, 2.0, dt=dt)
    return abs(curve.values[-1] - exact) / exact


def test_constant_moment_oracle():
    np.testing.assert_allclose(constant_moment(gallery("gbm"), np.eye(1), 1.0), [[E2M1]],
                               rtol=1e-14)
    # Diagonal A and G: each entry M_ij grows at a_i + a_j + g_i g_j.
    diag = gallery("diag-2x2")
    m = constant_moment(diag, np.ones((2, 2)), 0.5)
    a, g = np.diag(diag.drift_at(0.0)), np.diag(diag.diffusion_at(0.0))
    np.testing.assert_allclose(m, np.exp(0.5 * (a[:, None] + a + np.outer(g, g))), rtol=1e-14)
    with pytest.raises(EngineError, match="constant in t"):
        constant_moment(gallery("perron-sde"), np.eye(2), 1.0)


def test_rk4_moment_order_against_the_exact_oracle():
    # Fourth order: halving dt cuts the error by about 16 (18.8 measured from
    # 0.05 to 0.025, 20.8 from 0.1 to 0.05).
    assert 14.0 <= _oracle_error(0.05) / _oracle_error(0.025) <= 22.0


def test_rk4_moment_accuracy_on_a_coupled_system():
    assert _oracle_error(1e-3) <= 1e-11        # 5.5e-13 measured


def test_moment_log_trace_matches_the_oracle_from_a_rank_one_start():
    v = np.array([0.6, 0.8])
    p0 = np.outer(v, v)
    exact = math.log(np.trace(constant_moment(COUPLED, p0, 2.0)) / np.trace(p0))
    curve = moment_log_trace(COUPLED, p0, 0.0, 2.0, dt=1e-3)
    assert curve.values[0] == 0.0
    assert abs(curve.values[-1] - exact) <= 1e-10     # 4.4e-12 measured


def test_moment_log_trace_rescales_by_powers_of_two_exactly():
    # M' = 400 M: RK4 multiplies M by R(h * 400) each step, with
    # R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so log trace M(2) is exactly
    # N log R(0.4) = 799.88; the trace crosses the 2^332 rescaling bound
    # three times on the way.
    sys_ = gallery("gbm", a=200.0, b=0.0)
    z = 0.4
    exact = 2000 * math.log(1 + z + z * z / 2 + z ** 3 / 6 + z ** 4 / 24)
    curve = moment_log_trace(sys_, np.eye(1), 0.0, 2.0, dt=1e-3)
    assert curve.values[-1] > 3 * 332 * math.log(2.0)
    assert curve.values[-1] == pytest.approx(exact, rel=1e-12)
    # The linear view cannot hold that trace in float64.
    with pytest.raises(EngineError, match="moment integration diverged at t="):
        moment_ode(sys_, np.eye(1), 0.0, 2.0, dt=1e-3)
    # A numeric failure, not bad input.
    with pytest.raises(DivergenceError):
        moment_ode(sys_, np.eye(1), 0.0, 2.0, dt=1e-3)


# ---------------------------------------------------------------------------
# The moment loop over a stack of starts


def _rank_one(*v):
    v = np.asarray(v, dtype=float)
    return np.outer(v, v)


def _solo(system, p0, t_from, t_to, dt):
    """One start through the moment loop alone, as row 0 of a stack of one."""
    ts, traces, exps, p = engines._moment_loop([system], p0[None], t_from, t_to, dt)
    return ts, traces[0], exps[0], p[0]


@pytest.mark.parametrize("name", ["diag-2x2", "perron-sde", "coupled"])
def test_each_row_of_a_stacked_pass_equals_its_start_alone(name):
    sys_ = COUPLED if name == "coupled" else gallery(name)
    adj = adjoint(sys_)
    systems = [sys_, adj, sys_, adj, sys_]
    starts = np.stack([_rank_one(0.6, 0.8), _rank_one(1.0, 0.0), _rank_one(0.0, 1.0),
                       _rank_one(-0.28, 0.96), np.eye(2)])
    ts, traces, exps, final = engines._moment_loop(systems, starts, 0.5, 3.0, 1e-2)
    curves = moment_log_trace(systems, starts, 0.5, 3.0, dt=1e-2)
    assert traces.shape == exps.shape == curves.values.shape == (5, len(ts))
    for j, (system, p0) in enumerate(zip(systems, starts)):
        solo_ts, solo_traces, solo_exps, solo_final = _solo(system, p0, 0.5, 3.0, 1e-2)
        assert np.array_equal(ts, solo_ts)
        assert np.array_equal(traces[j], solo_traces)
        assert np.array_equal(exps[j], solo_exps)
        assert np.array_equal(final[j], solo_final)
        alone = moment_log_trace(system, p0, 0.5, 3.0, dt=1e-2)
        assert np.array_equal(curves.values[j], alone.values)


def test_a_stacked_pass_rescales_each_start_by_its_own_power_of_two():
    # M' = 400 M crosses the 2^332 bound three times by t = 2; M' = -1.75 M
    # never leaves [2^-332, 2^332].
    hot, cold = gallery("gbm", a=200.0, b=0.0), gallery("gbm")
    starts = np.stack([np.eye(1), np.eye(1)])
    _, traces, exps, _ = engines._moment_loop([hot, cold], starts, 0.0, 2.0, 1e-3)
    assert exps[0, -1] >= 3 * 332 and not exps[1].any()
    for j, system in enumerate([hot, cold]):
        _, solo_traces, solo_exps, _ = _solo(system, starts[j], 0.0, 2.0, 1e-3)
        assert np.array_equal(traces[j], solo_traces)
        assert np.array_equal(exps[j], solo_exps)
    curves = moment_log_trace([hot, cold], starts, 0.0, 2.0, dt=1e-3)
    assert curves.values[0, -1] > 3 * 332 * math.log(2.0)
    assert curves.values[1, -1] == pytest.approx(-1.75 * 2.0, rel=1e-8)


@pytest.mark.parametrize("drift", [
    # The rank-one start wobbles beyond the full-rank start's tolerance.
    [["-1", "3"], ["-2", "-0.5"]],
    # The modes part at rate 19, so the full-rank start becomes numerically
    # singular too and its least eigenvalue dips below 0 at 8 checks: within
    # its tolerance, and never clamped, as it is not singular at the start.
    [["-1", "1"], ["1", "-20"]],
])
def test_a_rank_one_start_is_clamped_alone(monkeypatch, drift):
    # The clamp of a singular start calls eigh; a full-rank start never does.
    calls = []
    eigh = np.linalg.eigh

    def counting(m):
        calls.append(np.trace(m))
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    # Without noise a rank-one start stays rank one, and its zero eigenvalue
    # wobbles around 0 by rounding.
    sys_ = LinearSde.from_strings(2, drift, [["0", "0"], ["0", "0"]])
    rank_one, full = _rank_one(0.6, 0.8), np.eye(2)
    _, _, _, solo_rank_one = _solo(sys_, rank_one, 0.0, 10.0, 1e-2)
    clamps = len(calls)
    assert clamps > 0
    calls.clear()
    _, _, _, solo_full = _solo(sys_, full, 0.0, 10.0, 1e-2)
    assert calls == []
    _, _, _, final = engines._moment_loop([sys_, sys_], np.stack([full, rank_one]),
                                          0.0, 10.0, 1e-2)
    assert len(calls) == clamps
    assert np.array_equal(final[0], solo_full)
    assert np.array_equal(final[1], solo_rank_one)


def test_rk4_moment_order_holds_on_a_stack():
    # Each row of a stacked pass keeps fourth order against the exact oracle.
    systems = [COUPLED, adjoint(COUPLED), COUPLED]
    starts = np.stack([np.eye(2), _rank_one(0.6, 0.8), _rank_one(0.6, 0.8)])
    exact = [np.trace(constant_moment(s, p0, 2.0)) for s, p0 in zip(systems, starts)]

    def errors(dt):
        _, traces, exps, _ = engines._moment_loop(systems, starts, 0.0, 2.0, dt)
        values = np.ldexp(traces[:, -1], exps[:, -1])
        return np.abs(values - exact) / exact

    # About 2^4 per halving: 18.8, 22.1 and 14.8 measured.
    orders = np.log2(errors(0.05) / errors(0.025))
    assert np.all((3.7 <= orders) & (orders <= 4.6)), orders


def _non_psd(scale: float = 1.0) -> LinearSde:
    """A stiff drift whose RK4 step of 0.5 loses positive semidefiniteness."""
    return LinearSde.from_strings(2, [[str(-20 * scale), str(10 * scale)],
                                      ["0", str(-scale)]], [["0", "0"], ["0", "0"]])


def _blow_up(t_off: float) -> LinearSde:
    """A drift that grows so fast that RK4's trace stops being finite at the
    step of the grid [0, 1.5] by 0.5 that ends at t = 1 + t_off."""
    return LinearSde.from_strings(2, [[f"exp(400*t - {400 * t_off})", "0"], ["0", "0"]],
                                  [["0", "0"], ["0", "0"]])


def test_a_stacked_pass_reports_the_earliest_failure():
    late, early = _blow_up(0.5), _blow_up(0.0)
    starts = np.stack([np.eye(2)] * 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for system, t in ((late, "1.5"), (early, "1")):
            with pytest.raises(DivergenceError, match=f"diverged at t={t}$"):
                _solo(system, np.eye(2), 0.0, 1.5, 0.5)
        for systems in ([late, early], [early, late]):
            with pytest.raises(DivergenceError, match="diverged at t=1$"):
                engines._moment_loop(systems, starts, 0.0, 1.5, 0.5)


def test_a_stacked_pass_reports_the_lowest_index_of_a_tie():
    # Both starts fail the check at t = 1, with eigenvalues a factor 2 apart.
    sys_ = _non_psd()
    single, double = np.eye(2), 2.0 * np.eye(2)
    errors = []
    for p0 in (single, double):
        with pytest.raises(NonPsdError) as err:
            _solo(sys_, p0, 0.0, 1.0, 0.5)
        errors.append(str(err.value))
    assert errors[0] != errors[1]
    for order in ([0, 1], [1, 0]):
        starts = np.stack([(single, double)[j] for j in order])
        with pytest.raises(NonPsdError) as err:
            engines._moment_loop([sys_, sys_], starts, 0.0, 1.0, 0.5)
        assert str(err.value) == errors[order[0]]


def test_a_stacked_pass_checks_every_start_before_stepping():
    sys_ = gallery("diag-2x2")
    bad = np.array([[1.0, 0.0], [0.0, -0.1]])
    with pytest.raises(NonPsdError, match="min eigenvalue -1.000e-01"):
        moment_log_trace(sys_, np.stack([np.eye(2), bad]), 0.0, 1.0)
    with pytest.raises(EngineError, match="symmetric"):
        moment_log_trace(sys_, np.stack([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]]), 0.0, 1.0)
    with pytest.raises(EngineError, match="one system per initial moment matrix, got 1 for 2"):
        moment_log_trace([sys_], np.stack([np.eye(2)] * 2), 0.0, 1.0)
    with pytest.raises(EngineError, match="systems of one dimension"):
        moment_log_trace([sys_, gallery("gbm")], np.stack([np.eye(2)] * 2), 0.0, 1.0)


def test_a_stack_too_large_for_the_store_is_refused_before_it_steps():
    # 400 starts on the 10^6 steps of horizon 10^4 at dt 10^-2 would hold
    # three numbers per start and node: 9.6 GB, refused at once rather than
    # allocated or stepped.
    starts = np.stack([np.eye(2)] * 400)
    with pytest.raises(EngineError, match=r"^the moment traces of the stacked starts would "
                                          r"take 8\.94 GiB, more than the 1 GiB limit$"):
        moment_log_trace(gallery("diag-2x2"), starts, 0.0, 1e4, dt=1e-2)


@pytest.mark.parametrize("flow, starts, t_from, t_to", [
    # Different starts in time, one span.
    (gallery("diag-2x2"), [np.eye(2)] * 3, [0.5, 1.3, 2.0], [1.5, 2.3, 3.0]),
    # Steps that differ by an ulp of the span: 100 steps of 1e-2 and of
    # (1 + 2^-52) 1e-2.
    (gallery("diag-2x2"), [np.eye(2)] * 2, [0.0, 0.0], [1.0, math.nextafter(1.0, 2.0)]),
    # Time-dependent coefficients, tabulated on each start's own stage times.
    (gallery("perron-ode"), [np.eye(2), _rank_one(0.6, 0.8), np.eye(2)],
     [0.5, 1.0, 4.5], [1.0, 1.5, 5.0]),
    (adjoint(gallery("diag-2x2")), [np.eye(2), np.diag([0.0, 1.0])], [5.8, 8.2], [6.3, 8.7]),
    # A singular start beside a full-rank one: the clamp stays with its start.
    (LinearSde.from_strings(2, [["-1", "3"], ["-2", "-0.5"]], [["0", "0"], ["0", "0"]]),
     [_rank_one(0.6, 0.8), np.eye(2)], [0.0, 2.5], [10.0, 12.5]),
])
def test_each_start_of_a_stack_steps_on_its_own_span(flow, starts, t_from, t_to):
    starts = np.stack(starts)
    curve, final = moment_ode(flow, starts, t_from, t_to, dt=1e-2)
    assert curve.ts.shape == curve.values.shape == (len(starts), curve.ts.shape[1])
    ends = np.broadcast_to(t_to, len(starts))
    for j, (p0, t0, t1) in enumerate(zip(starts, t_from, ends)):
        alone, alone_final = moment_ode(flow, p0, t0, t1, dt=1e-2)
        assert np.array_equal(curve.ts[j], alone.ts)
        assert np.array_equal(curve.values[j], alone.values)
        assert np.array_equal(final[j], alone_final)


def test_a_stack_of_one_span_matches_its_starts_alone():
    # One float per bound is shared by every start; the curve is still [k, node].
    sys_ = gallery("perron-sde")
    starts = np.stack([np.eye(2), _rank_one(0.6, 0.8)])
    curve, final = moment_ode(sys_, starts, 0.5, 1.7, dt=1e-2)
    for j, p0 in enumerate(starts):
        alone, alone_final = moment_ode(sys_, p0, 0.5, 1.7, dt=1e-2)
        assert np.array_equal(curve.ts[j], alone.ts)
        assert np.array_equal(curve.values[j], alone.values)
        assert np.array_equal(final[j], alone_final)


def test_a_stack_with_mixed_step_counts_is_refused():
    sys_ = gallery("diag-2x2")
    starts = np.stack([np.eye(2)] * 2)
    with pytest.raises(EngineError, match=r"one step count, got \[100, 200\]"):
        moment_ode(sys_, starts, [0.0, 0.0], [1.0, 2.0], dt=1e-2)
    with pytest.raises(EngineError, match="one t_from and one t_to per start"):
        moment_ode(sys_, starts, [0.0, 0.5, 1.0], 2.0, dt=1e-2)
    with pytest.raises(EngineError, match="need t_to > t_from"):
        moment_ode(sys_, starts, [0.0, 2.0], 1.0, dt=1e-2)


def test_a_stacked_call_reports_the_earliest_overflow_step():
    # M' = 400 M leaves float64 in the linear view 1775 steps of 1e-3 after
    # its start from trace 1, and 1602 after its start from trace 2^100.
    hot = gallery("gbm", a=200.0, b=0.0)
    small, big = np.eye(1), np.eye(1) * 2.0 ** 100
    messages = []
    for p0, t0 in ((small, 0.0), (big, 0.5), (small, 0.5)):
        with pytest.raises(DivergenceError) as err:
            moment_ode(hot, p0, t0, t0 + 2.0, dt=1e-3)
        messages.append(str(err.value))
    assert len(set(messages)) == 3
    # Earliest step: the big start fails first, later in time.
    for order in ([0, 1], [1, 0]):
        starts = np.stack([(small, big)[j] for j in order])
        t_from = [(0.0, 0.5)[j] for j in order]
        with pytest.raises(DivergenceError) as err:
            moment_ode(hot, starts, t_from, [t + 2.0 for t in t_from], dt=1e-3)
        assert str(err.value) == messages[1]
    # A tie of steps: the lowest row is reported.
    for t_from, want in (([0.0, 0.5], messages[0]), ([0.5, 0.0], messages[2])):
        with pytest.raises(DivergenceError) as err:
            moment_ode(hot, np.stack([small, small]), t_from, [t + 2.0 for t in t_from],
                       dt=1e-3)
        assert str(err.value) == want


@pytest.mark.parametrize("chunk, generator", [(40, 18), (112, 36), (112, 2 ** 12)])
def test_rk4_coefficients_are_tabulated_in_blocks(monkeypatch, chunk, generator):
    # CHUNK_VALUES 40 holds 2 steps' stage coefficients on a 2x2 system, 112
    # holds 7, so blocks end inside the run. The generator on vech M is 3x3,
    # 18 values per step: _GENERATOR_VALUES 18 builds it a step at a time,
    # 36 two steps at a time, so stretches end inside a block and at its
    # end. The results stay bit for bit.
    sys_ = gallery("perron-sde")
    v = np.array([0.6, 0.8])
    ref_curve, ref_final = moment_ode(sys_, np.eye(2), 0.5, 1.7, dt=1e-2)
    ref_log = moment_log_trace(sys_, np.outer(v, v), 0.5, 1.7, dt=1e-2)
    monkeypatch.setattr(engines, "CHUNK_VALUES", chunk)
    monkeypatch.setattr(engines, "_GENERATOR_VALUES", generator)
    curve, final = moment_ode(sys_, np.eye(2), 0.5, 1.7, dt=1e-2)
    assert np.array_equal(curve.values, ref_curve.values)
    assert np.array_equal(final, ref_final)
    log = moment_log_trace(sys_, np.outer(v, v), 0.5, 1.7, dt=1e-2)
    assert np.array_equal(log.values, ref_log.values)


def test_rk4_memory_does_not_hold_every_stage_coefficient(monkeypatch):
    # 10^4 steps on a 2x2 system: 0.44 MB peak with 2^12-value coefficient
    # blocks, 1.84 MB when A and G were tabulated at all 2 * 10^4 + 1 stage
    # times up front (32 n^2 bytes per step).
    monkeypatch.setattr(engines, "CHUNK_VALUES", 2 ** 12)
    sys_ = gallery("perron-sde")
    moment_ode(sys_, np.eye(2), 1.0, 1.01, dt=1e-3)        # warm up
    tracemalloc.start()
    try:
        moment_ode(sys_, np.eye(2), 1.0, 2.0, dt=1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0e6


def test_the_generators_are_built_a_stretch_at_a_time():
    # 10^4 steps of the ode benchmark's moments run: 1.8 MB peak, most of it
    # the A and G tables; 7.8 MB when L and its build's buffers spanned the
    # whole run.
    sys_ = gallery("perron-sde")
    moment_ode(sys_, np.eye(2), 0.001, 0.01, dt=1e-3)       # warm up
    tracemalloc.start()
    try:
        moment_ode(sys_, np.eye(2), 0.001, 10.0, dt=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0e6


# ---------------------------------------------------------------------------
# The moment loop on vech M against the matrix loop


def _random_constant(n: int, seed: int) -> LinearSde:
    """A constant n x n system: a stable, coupled drift and full noise."""
    rng = np.random.default_rng(seed)
    drift = 0.4 * rng.standard_normal((n, n)) - np.eye(n)
    noise = 0.3 * rng.standard_normal((n, n))
    return LinearSde.from_strings(n, [[repr(float(x)) for x in row] for row in drift],
                                  [[repr(float(x)) for x in row] for row in noise])


def _both_routes(monkeypatch, run):
    """``run()`` on the vech route and on the matrix loop above it."""
    vech = run()
    with monkeypatch.context() as patch:
        patch.setattr(engines, "_VECH_MAX_N", 0)
        return vech, run()


def _close(got, want, rel=1e-13):
    """Each row of ``got`` within ``rel`` of ``want``'s largest entry in that row."""
    got, want = np.asarray(got), np.asarray(want)
    scale = np.abs(want).reshape(len(want), -1).max(axis=1)
    err = np.abs(got - want).reshape(len(want), -1).max(axis=1)
    assert np.all(err <= rel * scale), err / scale


_SINGULAR_DRIFT = LinearSde.from_strings(2, [["-1", "3"], ["-2", "-0.5"]],
                                         [["0", "0"], ["0", "0"]])

_VECH_CASES = {
    "gbm": ([gallery("gbm")], [np.eye(1)], 0.0, 2.0, 1e-3),
    "diag-2x2 and adjoint": ([gallery("diag-2x2"), adjoint(gallery("diag-2x2"))] * 2,
                             [np.eye(2), np.eye(2), _rank_one(0.6, 0.8), _rank_one(0.0, 1.0)],
                             0.5, 3.0, 1e-2),
    "perron-sde": ([gallery("perron-sde")] * 2, [np.eye(2), _rank_one(0.6, 0.8)],
                   0.5, 3.0, 1e-2),
    "triangular-2x2": ([gallery("triangular-2x2")], [np.eye(2)], 0.0, 3.0, 1e-2),
    "random n=3": ([_random_constant(3, 1)] * 2, [np.eye(3), _rank_one(0.6, 0.0, 0.8)],
                   0.0, 2.0, 1e-2),
    "random n=4": ([_random_constant(4, 2)] * 2, [np.eye(4), _rank_one(0.5, 0.5, 0.5, 0.5)],
                   0.0, 2.0, 1e-2),
    # No noise keeps a rank-one start rank one: its zero eigenvalue wobbles
    # below 0 and is clamped.
    "rank-one clamp": ([_SINGULAR_DRIFT] * 2, [_rank_one(0.6, 0.8), np.eye(2)],
                       0.0, 10.0, 1e-2),
    "per-start spans": ([gallery("perron-ode")] * 3, [np.eye(2), _rank_one(0.6, 0.8), np.eye(2)],
                        [0.5, 1.0, 4.5], [1.0, 1.5, 5.0], 1e-2),
}


@pytest.mark.parametrize("case", list(_VECH_CASES))
def test_the_vech_route_matches_the_matrix_loop(monkeypatch, case):
    systems, starts, t_from, t_to, dt = _VECH_CASES[case]
    starts = np.stack(starts)
    assert systems[0].dim <= engines._VECH_MAX_N
    (ts, traces, exps, final), (m_ts, m_traces, m_exps, m_final) = _both_routes(
        monkeypatch, lambda: engines._moment_loop(systems, starts, t_from, t_to, dt))
    assert np.array_equal(ts, m_ts)
    _close(np.ldexp(traces, exps), np.ldexp(m_traces, m_exps))
    _close(final, m_final)
    if np.ndim(t_from) == 0:
        logs, m_logs = _both_routes(monkeypatch, lambda: moment_log_trace(
            systems, starts, t_from, t_to, dt=dt).values)
        assert np.abs(logs - m_logs).max() <= 1e-13


def test_the_vech_route_clamps_what_the_matrix_loop_clamps(monkeypatch):
    # The rank-one start of the clamp case is clamped at the same checks on
    # both routes, and never the full-rank start beside it.
    systems, starts, t_from, t_to, dt = _VECH_CASES["rank-one clamp"]
    eigh = np.linalg.eigh
    calls = []

    def counting(m):
        calls.append(round(float(np.trace(m)), 6))
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    _both_routes(monkeypatch, lambda: engines._moment_loop(systems, np.stack(starts),
                                                           t_from, t_to, dt))
    assert calls and calls[:len(calls) // 2] == calls[len(calls) // 2:]


@pytest.mark.parametrize("n", [2, engines._VECH_MAX_N + 1])
def test_rk4_order_holds_on_both_sides_of_the_selection(monkeypatch, n):
    # Up to _VECH_MAX_N the loop steps vech M and never calls _moment_rhs;
    # above it, the matrix loop does. Each keeps fourth order against the
    # exact oracle (about 2^4 per halving: 18.8 at n = 2, 16.0 at n = 6).
    system = COUPLED if n == 2 else _random_constant(n, 3)
    rhs = engines._moment_rhs
    calls = []
    monkeypatch.setattr(engines, "_moment_rhs", lambda *args: calls.append(1) or rhs(*args))
    exact = np.trace(constant_moment(system, np.eye(n), 2.0))

    def error(dt):
        curve, _ = moment_ode(system, np.eye(n), 0.0, 2.0, dt=dt)
        return abs(curve.values[-1] - exact) / exact

    assert 14.0 <= error(0.05) / error(0.025) <= 22.0
    assert bool(calls) == (n > engines._VECH_MAX_N)


def test_the_vech_generator_is_the_moment_right_side():
    # L vech M = vech(A M + M A^T + G M G^T) for random A, G and symmetric M.
    rng = np.random.default_rng(5)
    for n in range(1, engines._VECH_MAX_N + 1):
        a, g, m = rng.standard_normal((3, 4, n, n))
        m = m + m.mT
        maps = engines._vech_maps(n)
        gen = engines._vech_generator(a, g, maps)
        rhs = engines._moment_rhs(a, g, m)
        got = (gen @ m[:, maps.rows, maps.cols, None])[..., 0]
        np.testing.assert_allclose(got, rhs[:, maps.rows, maps.cols], rtol=0, atol=1e-13)
        assert np.array_equal(m[:, maps.rows, maps.cols][:, maps.full], m)


def _four_stages(gen: np.ndarray, j: int, h, v: np.ndarray) -> np.ndarray:
    """The RK4 step of v' = L v from stage index j of ``gen``, stage by stage."""
    k1 = gen[j] @ v
    k2 = gen[j + 1] @ (v + h / 2.0 * k1)
    k3 = gen[j + 1] @ (v + h / 2.0 * k2)
    k4 = gen[j + 2] @ (v + h * k3)
    return v + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_the_transfer_matrix_is_the_four_stage_step():
    # One matvec with the folded transfer matrix R is the stage-by-stage RK4
    # step to rounding: for n = 1..6, one start or three, a shared step or one
    # per start, and generator tables shared by the starts or one per start.
    rng = np.random.default_rng(11)
    steps = 3
    for n in range(1, 7):
        d = n * (n + 1) // 2
        for k in (1, 3):
            for h in (0.1, rng.uniform(0.05, 0.2, (k, 1, 1))):
                for width in sorted({1, k}):
                    a, g = rng.standard_normal((2, 2 * steps + 1, width, n, n))
                    gen = engines._vech_generator(a, g, engines._vech_maps(n))
                    route = engines._VechSteps(n, h, k)
                    v = rng.standard_normal((k, d, 1))
                    for i in range(0, 2 * steps, 2):
                        want = _four_stages(gen, i, h, v)
                        _close(route.step(a, g, i, v), want, rel=1e-14)
                        v = want


def test_a_huge_start_is_checked_for_symmetry_without_overflow():
    # The norms of the check once squared entries of 1e200 and overflowed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve, _ = moment_ode(gallery("diag-2x2"), 1e200 * np.eye(2), 0.0, 0.1, dt=1e-2)
        assert curve.values[0] == 2e200
        with pytest.raises(EngineError, match="symmetric"):
            moment_ode(gallery("diag-2x2"), 1e200 * np.array([[1.0, 0.5], [0.0, 1.0]]),
                       0.0, 1.0)
        # Asymmetric within 1e-12 of its norm: accepted, at any scale.
        near = np.array([[1.0, 0.5 + 1e-13], [0.5, 1.0]])
        for scale in (1.0, 1e200):
            moment_ode(gallery("diag-2x2"), scale * near, 0.0, 0.1, dt=1e-2)
        with pytest.raises(EngineError, match="symmetric"):
            moment_ode(gallery("diag-2x2"), np.array([[1.0, 0.5 + 1e-11], [0.5, 1.0]]),
                       0.0, 1.0)


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
    # blocks, None keeps the default (one block here). Both ensembles step
    # on increments drawn block by block; the full one also keeps the whole
    # grid's brownian_batch.
    sys_ = gallery("perron-sde")
    grid = TimeGrid.spanning(1.0, 1.5, 1e-2)
    ens = simulate_fundamental(sys_, grid, paths=3, seed=4)
    x0 = np.array([0.6, -0.8])
    ref_nodes, ref_vals = simulate_vectors(sys_, grid, 3, 4, x0, record_nodes=[13, 50])
    if chunk is not None:
        monkeypatch.setattr(engines, "CHUNK_VALUES", chunk)
    again = simulate_fundamental(sys_, grid, paths=3, seed=4)
    assert np.array_equal(again.phi, ens.phi) and np.array_equal(again.psi, ens.psi)
    assert np.array_equal(again.increments, ens.increments)
    held = fundamental_at(sys_, grid, 3, 4, [50, 7, 0, 13, 7])
    assert held.increments is None and list(held.nodes) == [0, 7, 13, 50]
    assert np.array_equal(held.phi, ens.phi[held.nodes])
    assert np.array_equal(held.psi, ens.psi[held.nodes])
    nodes, vals = simulate_vectors(sys_, grid, 3, 4, x0, record_nodes=[13, 50])
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(vals, ref_vals)


def test_an_ensemble_always_names_its_nodes():
    grid = TimeGrid.spanning(0.0, 1.0, 1e-2)
    held = fundamental_at(gallery("diag-2x2"), grid, 3, 1, [0, 50, 100])
    full = fundamental_at(gallery("diag-2x2"), grid, 3, 1, range(grid.count))
    assert list(held.nodes) == [0, 50, 100] and held.position(50) == 1
    assert np.array_equal(full.nodes, np.arange(grid.count)) and full.position(50) == 50
    built = FundamentalEnsemble(system=full.system, grid=grid, paths=3, phi=full.phi,
                                psi=full.psi, increments=None)
    assert np.array_equal(built.nodes, np.arange(grid.count))
    with pytest.raises(EngineError, match="node 7 is not held"):
        held.position(7)


def _random_system(n, rng, scale=1.0, shift=0.0):
    """Time-dependent coefficients c0 + c1 * sin(t), c0 and c1 normal times
    ``scale`` (halved in G), plus ``shift`` on the diagonal of A."""
    def entries(size, diagonal):
        return [[f"{size * rng.normal():.17g} + {size * rng.normal():.17g} * sin(t)"
                 + (f" + {diagonal}" if i == j else "") for j in range(n)] for i in range(n)]

    return LinearSde.from_strings(n, entries(scale, shift), entries(0.5 * scale, 0.0))


def _reference_em(system, grid, incr, x0):
    """Euler-Maruyama with the per-path stacked products a @ Phi, g @ Phi,
    psi @ b and psi @ g, every node kept, and the first entry beyond the
    explosion threshold (Phi before Psi at each node) or None."""
    paths, n = incr.shape[0], system.dim
    a = system.drift_at(grid.times()[:-1])
    g = system.diffusion_at(grid.times()[:-1])
    b = -a + g @ g
    phi = np.tile(np.eye(n), (paths, 1, 1))
    psi = phi.copy()
    u = np.tile(x0, (paths, 1))
    out = {"phi": [phi], "psi": [psi], "u": [u]}
    with np.errstate(all="ignore"):
        for k in range(grid.steps):
            dw = incr[:, k]
            phi = phi + grid.dt * (a[k] @ phi) + dw[:, None, None] * (g[k] @ phi)
            psi = psi + grid.dt * (psi @ b[k]) - dw[:, None, None] * (psi @ g[k])
            u = u + grid.dt * (u @ a[k].T) + dw[:, None] * (u @ g[k].T)
            for which, arr in (("fundamental matrix", phi), ("coupled inverse", psi)):
                bad = np.argwhere(~np.isfinite(arr) | (np.abs(arr) > engines.EXPLOSION_THRESHOLD))
                if len(bad):
                    return out, (which, k + 1, int(bad[0][0]), tuple(int(i) for i in bad[0][1:]))
            out["phi"].append(phi)
            out["psi"].append(psi)
            out["u"].append(u)
    return {key: np.stack(val) for key, val in out.items()}, None


@pytest.mark.parametrize("chunk", [40, None])
@pytest.mark.parametrize("paths", [1, 7, 300])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_kernel_equals_stacked_reference_bitwise(monkeypatch, n, paths, chunk):
    # The kernel steps Phi paths-last, one GEMM per product for all paths;
    # every entry must still be the per-path stacked product's value.
    if chunk is not None:
        monkeypatch.setattr(engines, "CHUNK_VALUES", chunk)
        monkeypatch.setattr(engines, "_REDUCE_VALUES", chunk)
    rng = np.random.default_rng(100 * n + paths)
    sys_ = _random_system(n, rng)
    grid = TimeGrid(0.0, 0.01, 41)
    x0 = rng.normal(size=n)
    ref, blown = _reference_em(sys_, grid, brownian_batch(9, paths, grid.dt, grid.steps), x0)
    assert blown is None
    ens = fundamental_at(sys_, grid, paths, 9, np.arange(grid.count))
    assert np.array_equal(ens.phi, ref["phi"]) and np.array_equal(ens.psi, ref["psi"])
    assert ens.phi.flags.c_contiguous
    _, vals = simulate_vectors(sys_, grid, paths, 9, x0)
    assert np.array_equal(vals, ref["u"])
    curve = mc_moment_curve(sys_, grid, paths, 9)
    means, _ = pairwise_mean_std(np.sum(ref["phi"] ** 2, axis=(2, 3)))
    assert np.array_equal(curve.values, means)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("which, scale, shift", [("coupled inverse", 30.0, 0.0),
                                                 ("fundamental matrix", 1.0, 60.0)])
def test_kernel_explosion_names_the_reference_entry(n, which, scale, shift):
    rng = np.random.default_rng(n)
    sys_ = _random_system(n, rng, scale, shift)
    grid = TimeGrid(0.0, 0.01, 1001)
    _, blown = _reference_em(sys_, grid, brownian_batch(3, 20, grid.dt, grid.steps),
                             np.ones(n))
    assert blown is not None and blown[0] == which
    with pytest.raises(ExplosionError) as info:
        fundamental_at(sys_, grid, 20, 3, np.arange(grid.count))
    err = info.value
    assert (err.which, err.node, err.path, err.entry) == blown


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
    # 40-value blocks reduce 8 paths in blocks of 5 nodes (51 nodes: the
    # last block has one) and step 2 nodes per draw block.
    sys_ = gallery("triangular-2x2")
    grid = TimeGrid.spanning(0.0, 0.5, 1e-2)
    ens = simulate_fundamental(sys_, grid, paths=8, seed=6)
    means, stds = pairwise_mean_std(np.sum(ens.phi ** 2, axis=(2, 3)))
    if chunk is not None:
        monkeypatch.setattr(engines, "CHUNK_VALUES", chunk)
        monkeypatch.setattr(engines, "_REDUCE_VALUES", chunk)
    curve = mc_moment_curve(sys_, grid, 8, 6)
    assert np.array_equal(curve.ts, grid.times())
    assert np.array_equal(curve.values, means)
    assert np.array_equal(curve.stderrs, stds / math.sqrt(8))
    # From x0 the curve is E||u||^2 of the vector solutions.
    _, u = simulate_vectors(sys_, grid, 8, 6, [0.6, -0.8])
    means, stds = pairwise_mean_std(np.sum(u ** 2, axis=2))
    curve = mc_moment_curve(sys_, grid, 8, 6, x0=[0.6, -0.8])
    assert np.array_equal(curve.values, means)
    assert np.array_equal(curve.stderrs, stds / math.sqrt(8))
    assert curve.escaped == 0


def test_mean_squares_of_one_node_is_the_pairwise_reduction():
    # A [1, path] state sums to its single entry, so the one-node call
    # reduces the 1-D squares exactly.
    x = np.random.default_rng(4).normal(size=(1, 1001)) * 1e3
    mean, std = pairwise_mean_std(x[0] ** 2)
    means, stderrs = engines._mean_squares([x], 1, 1001)
    assert means[0] == mean and stderrs[0] == std / math.sqrt(1001)


@pytest.mark.parametrize("paths", [1, 7, 1001])
@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (8,), (16,),
                                   (1, 1), (2, 2), (3, 3), (5, 5), (16, 16)])
def test_mean_squares_of_paths_last_states_equal_the_paths_first_sum(monkeypatch, shape,
                                                                     paths):
    # From 1 to 256 entries: np.sum adds fewer than 8 one by one and 8 or
    # more pairwise, and the paths-last sums must follow it bit for bit.
    # _REDUCE_VALUES of three nodes reduces 7 nodes in three blocks.
    monkeypatch.setattr(engines, "_REDUCE_VALUES", 3 * paths)
    rng = np.random.default_rng(paths * len(shape) + shape[0])
    size = (7, paths, *shape)
    x = rng.normal(size=size) * 10.0 ** rng.uniform(-4, 4, size=size)
    mean, std = pairwise_mean_std(np.sum(x * x, axis=tuple(range(2, x.ndim))))
    states = [np.ascontiguousarray(np.moveaxis(node, 0, -1)) for node in x]
    means, stderrs = engines._mean_squares(states, len(x), paths)
    assert np.array_equal(means, mean) and np.array_equal(stderrs, std / math.sqrt(paths))


@pytest.mark.parametrize("nodes", [1, 3, None])
def test_mean_squares_do_not_depend_on_the_reducer_block(monkeypatch, nodes):
    # Blocks of one node, of three nodes (11 nodes: the last block has two)
    # and the default block (all 11 nodes) give the same bits.
    rng = np.random.default_rng(21)
    paths = 1001
    x = rng.normal(size=(11, 2, paths)) * 10.0 ** rng.uniform(-5, 5, size=(11, 2, paths))
    mean, std = pairwise_mean_std(np.sum(x * x, axis=1))
    if nodes is not None:
        monkeypatch.setattr(engines, "_REDUCE_VALUES", nodes * paths)
    means, stderrs = engines._mean_squares(iter(x), len(x), paths)
    assert np.array_equal(means, mean) and np.array_equal(stderrs, std / math.sqrt(paths))


def test_mean_squares_hold_a_cache_sized_block():
    # 5001 nodes of 1000 paths: 40 MB of sums in all, reduced in 2 MB node
    # blocks; the states come from a generator and none is kept.
    paths = 1000

    def states(count):
        rng = np.random.default_rng(8)
        for _ in range(count):
            yield rng.normal(size=(2, paths))

    engines._mean_squares(states(11), 11, paths)       # warm up
    tracemalloc.start()
    try:
        means, _ = engines._mean_squares(states(5001), 5001, paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert means.shape == (5001,) and np.all(means > 0.0)
    assert peak < 4e6


def test_kernel_keeps_the_states_it_yields():
    # Each step makes new state arrays, so the kept states of a run are
    # those of the run.
    sys_ = _random_system(3, np.random.default_rng(12))
    grid = TimeGrid(0.0, 0.01, 41)
    nodes = np.arange(grid.count)
    run = list(euler_maruyama(sys_, grid, 6, 4, nodes, inverse=True))
    ens = fundamental_at(sys_, grid, 6, 4, nodes)
    assert np.array_equal(np.stack([x for _, x, _ in run]), ens.phi.transpose(0, 2, 3, 1))
    assert np.array_equal(np.stack([y for _, _, y in run]), ens.psi.transpose(0, 3, 2, 1))


def _counted_draws(monkeypatch) -> list:
    """Record ``(n_paths, start, steps)`` of every draw the kernel makes."""
    calls = []
    draw = engines.brownian_batch

    def counted(seed, n_paths, dt, steps, start=0):
        calls.append((n_paths, start, steps))
        return draw(seed, n_paths, dt, steps, start)
    monkeypatch.setattr(engines, "brownian_batch", counted)
    return calls


def _drawn_steps(calls, paths: int) -> int:
    """Steps drawn per path by ``calls``, checked to be consecutive blocks
    of every path from step 0."""
    drawn = 0
    for n_paths, start, steps in calls:
        assert n_paths == paths and start == drawn
        drawn += steps
    return drawn


_PERRON_X0 = np.array([1.0, 0.0])

# Each route run on (system, grid, paths, seed), set up to step that grid
# to its last node.
_DRAWING_ROUTES = {
    "mc_moment_curve": lambda s, g, p, q: mc_moment_curve(s, g, p, q),
    "mc_moment_curve_perturbed": lambda s, g, p, q: mc_moment_curve(
        gallery("perron-sde-perturbed"), g, p, q, x0=_PERRON_X0),
    "simulate_vectors": lambda s, g, p, q: simulate_vectors(s, g, p, q, _PERRON_X0),
    "fundamental_at": lambda s, g, p, q: fundamental_at(s, g, p, q, [0, 7, g.steps]),
    "simulate_perturbed": lambda s, g, p, q: perturb.simulate_perturbed(
        gallery("perron-sde-perturbed"), _PERRON_X0, g, p, q),
    "duality_defect": lambda s, g, p, q: duality_defect(
        s, np.eye(2), np.eye(2), horizon=g.t0 + 0.3, dt=0.1, seed=q, t_start=g.t0,
        drift_paths=p, drift_dt=g.dt),
    "surface_mc": lambda s, g, p, q: dichotomy._surface_mc(
        s, None, [(g.t0, g.t0 + 0.1), (g.t0 + 0.1, g.t0 + 0.3)], "stable", g.dt, p, q),
}


@pytest.mark.parametrize("route", sorted(_DRAWING_ROUTES))
def test_every_route_draws_through_brownian_batch(monkeypatch, route):
    # 140-value blocks: 8 paths of a 2-d system draw blocks of 7 steps, the
    # last of 2.
    monkeypatch.setattr(engines, "CHUNK_VALUES", 140)
    calls = _counted_draws(monkeypatch)
    grid = TimeGrid.spanning(1.0, 1.3, 1e-2)
    _DRAWING_ROUTES[route](gallery("perron-sde"), grid, 8, 3)
    assert _drawn_steps(calls, 8) == grid.steps == 30


def test_simulate_fundamental_keeps_a_second_draw_of_the_same_increments(monkeypatch):
    monkeypatch.setattr(engines, "CHUNK_VALUES", 140)
    calls = _counted_draws(monkeypatch)
    grid = TimeGrid.spanning(1.0, 1.3, 1e-2)
    ens = simulate_fundamental(gallery("perron-sde"), grid, 8, 3)
    assert calls[-1] == (8, 0, grid.steps)
    assert _drawn_steps(calls[:-1], 8) == grid.steps
    assert np.array_equal(ens.increments, brownian_batch(3, 8, grid.dt, grid.steps))


def test_beyond_threshold_counts_non_finite_values_as_exploded():
    x = np.array([0.0, 1e150, np.nextafter(1e150, np.inf), np.inf, -np.inf, np.nan])
    assert engines._beyond_threshold(x).tolist() == [False, False, True, True, True, True]


def test_moment_curve_reduces_its_node_blocks_in_place(monkeypatch):
    # 2^16-value blocks and 200 paths: node blocks of 327 nodes, draw blocks
    # of 309 steps, 1201 nodes. Peaks measured: 1.70 MB when the reducer
    # copied each block and the last increments block lived on while the
    # next was drawn; 1.17 MB with a recursive pairwise tree; 1.27 MB with
    # the table tree, whose work rows take about a third of a node block.
    monkeypatch.setattr(engines, "CHUNK_VALUES", 2 ** 16)
    monkeypatch.setattr(engines, "_REDUCE_VALUES", 2 ** 16)
    sys_ = gallery("perron-sde")
    mc_moment_curve(sys_, TimeGrid(1.0, 1e-3, 11), 200, 5)     # warm up
    tracemalloc.start()
    try:
        mc_moment_curve(sys_, TimeGrid(1.0, 1e-3, 1201), 200, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.45e6


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


def test_em_weak_order_on_a_coupled_system():
    # The Euler-Maruyama chain's mean second moment follows
    # M <- (I + hA) M (I + hA)^T + h G M G^T exactly; its gap to the exact
    # oracle halves with h (2.46, 2.22, 2.11 measured), and the sample sits
    # on the recursion (-0.13 and -0.79 stderr), far from the oracle (104
    # and 74 stderr).
    a, g = COUPLED.drift_at(0.0), COUPLED.diffusion_at(0.0)
    exact = np.trace(constant_moment(COUPLED, np.eye(2), 1.0))

    def em(h):
        m, step = np.eye(2), np.eye(2) + h * a
        for _ in range(round(1.0 / h)):
            m = step @ m @ step.T + h * g @ m @ g.T
        return np.trace(m)

    gaps = [em(h) - exact for h in (0.1, 0.05, 0.025, 0.0125)]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.9 <= coarse / fine <= 2.6
    for h in (0.1, 0.05):
        curve = mc_moment_curve(COUPLED, TimeGrid.spanning(0.0, 1.0, h), 40_000, seed=3)
        value, err = curve.values[-1], curve.stderrs[-1]
        assert abs(value - em(h)) <= 4.0 * err
        assert abs(value - exact) > 50.0 * err


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
    # From s = 0 the inverse factor is Psi(0) = Id, so this is E||Phi(t)||^2.
    ens = simulate_fundamental(gallery("gbm"), TimeGrid.spanning(0.0, 1.0, 1e-3),
                               paths=4000, seed=42)
    value, err = mc_second_moment(ens, 0, 1000)
    assert abs(value - E2M1) <= 3.0 * err


def test_mc_validation():
    ens = simulate_fundamental(gallery("gbm"), TimeGrid(0.0, 0.1, 3), paths=2, seed=1)
    with pytest.raises(EngineError, match="out of range"):
        mc_second_moment(ens, 0, 5)


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
# store limit


def test_store_limit_admits_exactly_its_bytes():
    engines._check_store(engines._MAX_STORE_BYTES // 8, "a store")
    with pytest.raises(EngineError, match="a store would take 1 GiB, more than the 1 GiB limit"):
        engines._check_store(engines._MAX_STORE_BYTES // 8 + 1, "a store")


_GRID = TimeGrid(0.0, 0.01, 11)
_CUBIC = PerturbedSde(gallery("gbm"), PerturbationSpec.power_clipped(1.0, 3.0, 1.0),
                      PerturbationSpec.zero(), c=9.0, q=2.0)


@pytest.mark.parametrize("call, what", [
    (lambda: simulate_fundamental(gallery("gbm"), _GRID, 10 ** 8, 0),
     "the ensemble of Phi and Psi"),
    (lambda: fundamental_at(gallery("triangular-2x2"), _GRID, 10 ** 8, 0, [0, 10]),
     "the ensemble of Phi and Psi"),
    (lambda: simulate_vectors(gallery("gbm"), _GRID, 10 ** 9, 0, [1.0]),
     "the recorded vector solutions"),
    (lambda: perturb.simulate_perturbed(_CUBIC, [0.5], _GRID, 10 ** 8, 0),
     "the perturbed paths"),
    (lambda: mc_moment_curve(gallery("gbm"), _GRID, 10 ** 9, 0), "the per-path sums"),
    # One value per path, the least any run holds.
    (lambda: next(euler_maruyama(gallery("gbm"), _GRID, 2 ** 28, 0, [10], x0=[1.0])),
     "the per-path state"),
    (lambda: next(euler_maruyama(_CUBIC, _GRID, 2 ** 26, 0, [10], x0=[1.0])),
     "the per-path state"),
])
def test_stores_beyond_the_limit_are_refused_before_allocation(call, what):
    tracemalloc.start()
    try:
        with pytest.raises(EngineError, match=f"^{what} would take .* GiB, more than the "
                                              "1 GiB limit$"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
