"""Regularity bound and triangularization tests.

Analytic anchors: for a(t) = -1 - (sin log t + cos log t) the running
average is exactly -1 - sin log t (antiderivative t sin log t), so the tail
extremes are 0 and -2. Constant coefficients must report zero spread
exactly.
"""

import time

import numpy as np
import pytest

from msd import bounds
from msd.bounds import (
    BoundsError,
    bounds_report,
    diagonal_averages,
    lower_bound,
    triangularize_paths,
    unitary_invariance_check,
    upper_bound,
)
from msd.engines import FundamentalEnsemble, TimeGrid, simulate_fundamental
from msd.lyapunov import chi_estimate, regularity_estimate
from msd.model import LinearSde, adjoint, gallery

OSCILLATING = "-1 - (sin(log(t)) + cos(log(t)))"


def _scalar_oscillating():
    return LinearSde.from_strings(1, [[OSCILLATING]], [["0"]], {})


def _full_3x3():
    return LinearSde.from_strings(
        3,
        [["-1", "0.4", "sin(t)"], ["0.3", "-2", "0.5"], ["0.1", "t/(1 + t)", "-0.5"]],
        [["0.2", "0.1", "0"], ["0", "0.3", "0.1"], ["0.1", "0", "0.2"]],
        {},
    )


# ---------------------------------------------------------------------------
# diagonal averages


def test_constant_entries_collapse_exactly():
    sys_ = LinearSde.from_strings(
        2, [["-1.5", "2"], ["0", "0.25"]], [["0", "0"], ["0", "0"]], {}
    )
    davg = diagonal_averages(sys_, 50.0)
    assert davg.alpha_bar == davg.alpha_under
    assert davg.alpha_bar[0] == pytest.approx(-1.5, abs=1e-12)
    assert davg.alpha_bar[1] == pytest.approx(0.25, abs=1e-12)
    assert davg.ts[-1] == pytest.approx(50.0)


def test_oscillating_scalar_averages():
    davg = diagonal_averages(_scalar_oscillating(), 1e6)
    assert davg.alpha_bar[0] == pytest.approx(0.0, abs=0.1)
    assert davg.alpha_under[0] == pytest.approx(-2.0, abs=0.1)


def test_perron_sde_row_averages():
    davg = diagonal_averages(gallery("perron-sde"), 1e5)
    assert davg.alpha_bar[0] == pytest.approx(-0.05, abs=0.1)
    assert davg.alpha_under[0] == pytest.approx(-2.05, abs=0.1)
    assert davg.alpha_bar[1] == pytest.approx(-0.05, abs=0.1)
    assert davg.alpha_under[1] == pytest.approx(-2.05, abs=0.1)


def test_averages_ordering_invariant():
    for name in ("gbm", "perron-ode", "perron-sde", "triangular-2x2", "diag-2x2"):
        davg = diagonal_averages(gallery(name), 500.0)
        for bar, under in zip(davg.alpha_bar, davg.alpha_under):
            assert under <= bar


def test_horizon_validation():
    with pytest.raises(BoundsError):
        diagonal_averages(gallery("gbm"), 0.0)
    with pytest.raises(BoundsError):
        lower_bound(gallery("gbm"), -1.0)


def test_quadrature_refuses_a_level_beyond_its_interval_budget():
    # The absolute tolerance cannot be met on the segments of this drift at
    # horizon 1e4: the refinement once ran 24 s into a MemoryError at 2.5 GB.
    fast = LinearSde.from_strings(1, [["-1 + sin(10*t)"]], [["0"]], {})
    start = time.perf_counter()
    with pytest.raises(BoundsError, match="more than 1048576 intervals"):
        lower_bound(fast, 1e4)
    assert time.perf_counter() - start < 10.0
    assert np.isfinite(lower_bound(fast, 1e3))      # within the budget at 1e3


# ---------------------------------------------------------------------------
# lower and upper bounds


def test_lower_bound_constant_is_exactly_zero():
    sys_ = LinearSde.from_strings(2, [["-3", "1"], ["0", "2"]], [["0", "0"], ["0", "0"]], {})
    assert lower_bound(sys_, 100.0) == 0.0


@pytest.mark.parametrize("horizon", [1e6, 3e7, 1e9])
def test_lower_bound_oscillating_scalar(horizon):
    # From 3e7 on, the rounding noise of the top segments once exceeded the
    # absolute tolerance, and the refinement ran into its interval budget.
    start = time.perf_counter()
    assert lower_bound(_scalar_oscillating(), horizon) == pytest.approx(4.0, abs=0.2)
    assert time.perf_counter() - start < 2.0


def test_lower_bound_perron_sde_trace_cancels():
    # Row oscillations are opposite, so tr A = -2a is constant.
    assert lower_bound(gallery("perron-sde"), 1e4) == pytest.approx(0.0, abs=0.05)


def test_upper_bound_constant_triangular_is_zero():
    assert upper_bound(gallery("triangular-2x2"), 200.0) == 0.0


def test_upper_bound_perron_sde():
    assert upper_bound(gallery("perron-sde"), 1e5) == pytest.approx(8.0, abs=0.3)


def test_upper_bound_rejects_non_triangular():
    rot = LinearSde.from_strings(2, [["0", "1"], ["-1", "0"]], [["0", "0"], ["0", "0"]], {})
    with pytest.raises(BoundsError, match="triangular"):
        upper_bound(rot, 10.0)


def test_bounds_report_shape():
    rep = bounds_report(gallery("perron-sde"), 1e4)
    assert set(rep) == {"horizon", "lower", "upper", "rows"}
    assert len(rep["rows"]) == 2
    assert rep["lower"] == pytest.approx(0.0, abs=0.05)
    assert rep["upper"] == pytest.approx(8.0, abs=0.3)

    rot = LinearSde.from_strings(2, [["0", "1"], ["-1", "0"]], [["0", "0"], ["0", "0"]], {})
    assert bounds_report(rot, 10.0)["upper"] is None


def test_running_average_of_periodic_drift_is_exact():
    # (1/t) * integral_0^t (-1 + sin) = -1 + (1 - cos t)/t. The top
    # log-spaced segments are about 48 wide at this horizon, which a fixed
    # 16-point Gauss-Legendre rule misses by about 6e-5.
    davg = diagonal_averages(LinearSde.from_strings(1, [["-1 + sin(t)"]], [["0"]], {}),
                             1e3)
    late = davg.ts > 1.0
    ts = davg.ts[late]
    assert ts.size > 100
    exact = -1.0 + (1.0 - np.cos(ts)) / ts
    assert np.max(np.abs(davg.averages[late, 0] - exact)) <= 1e-12


def test_trace_average_is_the_sum_of_the_diagonal_ones(monkeypatch):
    # One quadrature per diagonal entry; the trace gets none of its own.
    calls = []
    run = bounds._running_average

    def counted(f, horizon):
        calls.append(horizon)
        return run(f, horizon)

    monkeypatch.setattr(bounds, "_running_average", counted)
    bounds_report(gallery("perron-sde"), 1e3)
    assert len(calls) == 2
    calls.clear()
    lower_bound(_scalar_oscillating(), 1e3)
    assert len(calls) == 1


@pytest.mark.parametrize("system", [
    gallery("perron-sde"),
    LinearSde.from_strings(2, [[OSCILLATING, "0"], ["0.5", "-1"]],
                           [["0", "0"], ["0", "0"]], {}),
], ids=["perron-sde", "non-triangular"])
def test_bounds_report_is_the_bound_functions(system):
    rep = bounds_report(system, 1e4)
    assert rep["lower"] == lower_bound(system, 1e4)
    if system.is_upper_triangular():
        assert rep["upper"] == upper_bound(system, 1e4)
    else:
        assert rep["upper"] is None


# ---------------------------------------------------------------------------
# pathwise triangularization


def test_triangularize_diagonal_flow_gives_identity():
    ens = simulate_fundamental(gallery("diag-2x2"), TimeGrid(0.0, 1e-3, 501), paths=6, seed=11)
    res = triangularize_paths(ens)
    assert np.array_equal(res.s, np.broadcast_to(np.eye(2), res.s.shape))
    assert np.array_equal(res.x, ens.phi)
    assert res.max_lower_magnitude == 0.0


def test_triangularize_scalar():
    ens = simulate_fundamental(gallery("gbm"), TimeGrid(0.0, 1e-3, 301), paths=4, seed=7)
    res = triangularize_paths(ens)
    assert np.array_equal(res.s, np.ones_like(res.s))
    assert np.array_equal(res.x, ens.phi)


def test_triangularize_full_system_residuals():
    ens = simulate_fundamental(_full_3x3(), TimeGrid(0.0, 1e-3, 1001), paths=8, seed=19)
    res = triangularize_paths(ens)
    assert res.max_orthogonality_defect <= 1e-8
    assert res.max_lower_magnitude <= 1e-8
    assert res.max_reconstruction_error <= 1e-6


def test_triangularize_reports_rank_deficiency_location():
    sys_ = gallery("diag-2x2")
    grid = TimeGrid(0.0, 0.1, 5)
    phi = np.tile(np.eye(2), (5, 2, 1, 1))
    phi[3, 1] = [[1.0, 2.0], [2.0, 4.0]]
    ens = FundamentalEnsemble(system=sys_, grid=grid, paths=2, phi=phi, psi=phi.copy(),
                              increments=np.zeros((2, 4)))
    with pytest.raises(BoundsError, match=r"node 3.*path 1"):
        triangularize_paths(ens)


def test_unitary_invariance_gaps():
    ens = simulate_fundamental(_full_3x3(), TimeGrid(0.0, 1e-3, 1001), paths=8, seed=19)
    rep = unitary_invariance_check(ens, triangularize_paths(ens))
    assert rep.max_column_norm_gap <= 1e-8
    assert rep.max_rotated_norm_gap <= 1e-8
    assert rep.max_trace_gap <= 1e-10
    assert rep.nodes == 1001


def test_unitary_invariance_rejects_foreign_result():
    ens3 = simulate_fundamental(_full_3x3(), TimeGrid(0.0, 1e-2, 51), paths=2, seed=1)
    ens2 = simulate_fundamental(gallery("diag-2x2"), TimeGrid(0.0, 1e-2, 51), paths=2, seed=1)
    with pytest.raises(BoundsError):
        unitary_invariance_check(ens2, triangularize_paths(ens3))


# ---------------------------------------------------------------------------
# column growth rates against the row averages

# Columns of the triangular representation solve the system itself, so the
# ODE-route exponent of each canonical start measures them exactly.


def test_column_rates_ordered_drift_only():
    sys_ = LinearSde.from_strings(2, [["-2", "1"], ["0", "-1"]], [["0", "0"], ["0", "0"]], {})
    davg = diagonal_averages(sys_, 200.0)
    assert davg.alpha_bar == pytest.approx((-2.0, -1.0), abs=1e-10)
    for j in range(2):
        chi = chi_estimate(sys_, np.eye(2)[j], horizon=60.0).chi
        spread = sum(davg.alpha_bar[m] - davg.alpha_under[m] for m in range(j))
        assert chi <= 2.0 * (davg.alpha_bar[j] + spread) + 0.1
    adj = adjoint(sys_)
    for j in range(2):
        chi = chi_estimate(adj, np.eye(2)[j], horizon=60.0).chi
        spread = sum(davg.alpha_bar[m] - davg.alpha_under[m] for m in range(j + 1, 2))
        assert chi <= 2.0 * (-davg.alpha_under[j] + spread) + 0.1


def test_column_rates_stochastic_triangular():
    # Diffusion shifts each row rate: forward by g_mm^2, adjoint by 3 g_mm^2.
    sys_ = gallery("triangular-2x2")
    davg = diagonal_averages(sys_, 200.0)
    g_sq = (0.25, 0.25)
    mu = [2.0 * davg.alpha_bar[m] + g_sq[m] for m in range(2)]
    mu_adj = [-2.0 * davg.alpha_under[m] + 3.0 * g_sq[m] for m in range(2)]
    for j in range(2):
        chi = chi_estimate(sys_, np.eye(2)[j], horizon=60.0).chi
        assert chi <= max(mu[: j + 1]) + 0.1
        chi_tilde = chi_estimate(adjoint(sys_), np.eye(2)[j], horizon=60.0).chi
        assert chi_tilde <= max(mu_adj[j:]) + 0.1


# ---------------------------------------------------------------------------
# bound sandwich across the gallery


@pytest.mark.parametrize("name", ["gbm", "perron-ode", "perron-sde", "triangular-2x2", "diag-2x2"])
def test_bound_sandwich(name):
    sys_ = gallery(name)
    rep = bounds_report(sys_, 1e4)
    assert rep["upper"] is not None
    assert rep["lower"] <= rep["upper"] + 0.3
    t_start = 1.0 if name.startswith("perron") else 0.0
    reg = regularity_estimate(sys_, [(np.eye(sys_.dim), np.eye(sys_.dim))],
                              horizon=50.0, t_start=t_start)
    assert reg.gamma_upper_estimate >= rep["lower"] - 0.3
