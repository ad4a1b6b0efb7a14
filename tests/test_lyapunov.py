import json
import math
import tracemalloc

import numpy as np
import pytest

from msd import engines, lyapunov
from msd.cli import dispatch
from msd.engines import EngineError, TimeGrid, euler_maruyama
from msd.lyapunov import (
    LyapunovError,
    chi_estimate,
    duality_defect,
    regularity_estimate,
    spectrum,
)
from msd.model import LinearSde, adjoint, gallery
from msd.numerics import NumericFailure


def _diag_system(*entries, g=0.0):
    n = len(entries)
    a = [[str(entries[i]) if i == j else "0" for j in range(n)] for i in range(n)]
    gm = [[str(g) if i == j else "0" for j in range(n)] for i in range(n)]
    return LinearSde.from_strings(n, a, gm)


def test_chi_of_a_coupled_constant_system_is_an_eigenvalue_of_the_moment_operator():
    # For constant A and G, vec M(t) = expm(t L) vec M(0) with
    # L = A (x) I + I (x) A + G (x) G, and M stays symmetric, so the
    # second-moment exponents are real parts of the eigenvalues of L on
    # symmetric matrices: here -1.0875 is the largest (-1.0917 measured).
    sys_ = LinearSde.from_strings(2, [["-1", "3"], ["-2", "-0.5"]],
                                  [["0.3", "0.8"], ["-0.4", "0.2"]])
    a, g, eye = sys_.drift_at(0.0), sys_.diffusion_at(0.0), np.eye(2)
    lop = np.kron(a, eye) + np.kron(eye, a) + np.kron(g, g)
    sym = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    on_symmetric = np.linalg.lstsq(sym, lop @ sym, rcond=None)[0]
    top = max(np.linalg.eigvals(on_symmetric).real)
    assert top == pytest.approx(-1.0875, abs=1e-4)
    assert chi_estimate(sys_, [1.0, 0.0], horizon=50.0).chi == pytest.approx(top, abs=0.02)

def test_chi_gbm_ode():
    est = chi_estimate(gallery("gbm"), [1.0], horizon=50.0)
    assert est.chi == pytest.approx(-1.75, abs=1e-6)
    assert est.method == "ode" and est.stderr is None
    assert est.window == (25.0, 50.0)
    tail = (est.ts >= est.window[0]) & (est.ts <= est.window[1])
    assert np.any(tail) and est.chi == np.max(est.values[tail])


def test_chi_zero_system_exact():
    sys_ = _diag_system(0, 0)
    est = chi_estimate(sys_, [1.0, 1.0], horizon=10.0)
    assert est.chi == 0.0


def test_chi_second_axis():
    est = chi_estimate(_diag_system(-1, -2), [0.0, 1.0], horizon=30.0)
    assert est.chi == pytest.approx(-4.0, abs=1e-6)


def test_chi_scale_invariance_exact():
    sys_ = _diag_system(-1, -2)
    u = np.array([0.3, 0.7])
    base = chi_estimate(sys_, u, horizon=20.0)
    doubled = chi_estimate(sys_, 2.0 * u, horizon=20.0)
    assert doubled.chi == base.chi
    assert np.array_equal(doubled.values, base.values)
    scaled = chi_estimate(sys_, 3.0 * u, horizon=20.0)
    assert scaled.chi == pytest.approx(base.chi, abs=1e-10)


def test_chi_validation():
    sys_ = gallery("gbm")
    with pytest.raises(LyapunovError, match="nonzero"):
        chi_estimate(sys_, [0.0], horizon=10.0)
    with pytest.raises(LyapunovError, match="horizon"):
        chi_estimate(sys_, [1.0], horizon=0.0)
    with pytest.raises(LyapunovError, match="length 1"):
        chi_estimate(sys_, [1.0, 2.0], horizon=10.0)
    with pytest.raises(LyapunovError, match="method"):
        chi_estimate(sys_, [1.0], horizon=10.0, method="exact")


@pytest.mark.parametrize("method", ["ode", "mc"])
@pytest.mark.parametrize("t_start", [-1.0, math.nan])
def test_chi_refuses_a_negative_start_before_any_pass(monkeypatch, method, t_start):
    # A start of -1 once gave NaN checkpoints, clipped to node 1, and read
    # chi -2.625 for gbm, whose exponent is -1.75.
    def reached(*args, **kwargs):
        raise AssertionError("a pass ran before t_start was checked")

    monkeypatch.setattr(lyapunov, "moment_log_trace", reached)
    monkeypatch.setattr(lyapunov, "simulate_vectors", reached)
    with pytest.raises(LyapunovError, match=f"^t_start must be non-negative, got {t_start!r}$"):
        chi_estimate(gallery("gbm"), [1.0], horizon=2.0, method=method, t_start=t_start)


@pytest.mark.parametrize("method", ["ode", "mc"])
def test_chi_reaches_its_pass_from_a_valid_start(monkeypatch, method):
    # The positive control of the test above: the patched names are the ones
    # a valid estimate runs through.
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(lyapunov, "moment_log_trace", reached)
    monkeypatch.setattr(lyapunov, "simulate_vectors", reached)
    with pytest.raises(Reached):
        chi_estimate(gallery("gbm"), [1.0], horizon=2.0, method=method, t_start=0.0)


def _counting_moment_loop(monkeypatch) -> list:
    """Record the number of starts of every pass of the moment loop."""
    passes = []
    loop = engines._moment_loop

    def counting(systems, p0, *args):
        passes.append(len(systems))
        return loop(systems, p0, *args)

    monkeypatch.setattr(engines, "_moment_loop", counting)
    return passes


@pytest.mark.parametrize("name,t_start", [("diag-2x2", 0.0), ("perron-sde", 0.5),
                                          ("coupled", 0.0)])
def test_a_stack_of_vectors_equals_each_vector_alone(monkeypatch, name, t_start):
    sys_ = (LinearSde.from_strings(2, [["-1", "3"], ["-2", "-0.5"]],
                                   [["0.3", "0.8"], ["-0.4", "0.2"]])
            if name == "coupled" else gallery(name))
    adj = adjoint(sys_)
    systems = [sys_, adj, sys_, adj]
    vectors = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, 2.0], [-0.28, 0.96]])
    alone = [chi_estimate(s, v, horizon=6.0, t_start=t_start) for s, v in zip(systems, vectors)]
    passes = _counting_moment_loop(monkeypatch)
    stacked = chi_estimate(systems, vectors, horizon=6.0, t_start=t_start)
    assert passes == [4]
    assert len(stacked) == 4
    for est, ref in zip(stacked, alone):
        assert est.chi == ref.chi
        assert np.array_equal(est.values, ref.values) and np.array_equal(est.ts, ref.ts)
        assert est.window == ref.window and est.stderr is None and est.method == "ode"


def test_a_stack_of_vectors_runs_each_on_its_seed_by_monte_carlo():
    sys_ = gallery("diag-2x2")
    vectors = np.array([[1.0, 0.0], [0.6, 0.8]])
    kwargs = dict(horizon=2.0, method="mc", dt=2e-2, paths=50)
    stacked = chi_estimate([sys_, adjoint(sys_)], vectors, seed=[3, 9], **kwargs)
    for est, system, v, seed in zip(stacked, [sys_, adjoint(sys_)], vectors, [3, 9]):
        ref = chi_estimate(system, v, seed=seed, **kwargs)
        assert est.chi == ref.chi and est.stderr == ref.stderr
    # One seed serves every row.
    same = chi_estimate(sys_, vectors, seed=3, **kwargs)
    assert same[0].chi == stacked[0].chi


def test_a_stack_of_vectors_is_checked_row_by_row():
    sys_ = gallery("diag-2x2")
    with pytest.raises(LyapunovError, match="nonzero and finite"):
        chi_estimate(sys_, [[1.0, 0.0], [0.0, 0.0]], horizon=2.0)
    with pytest.raises(LyapunovError, match="one system and one seed per vector, got 1 and 2"):
        chi_estimate([sys_], [[1.0, 0.0], [0.0, 1.0]], horizon=2.0)
    with pytest.raises(LyapunovError, match="nonempty stack"):
        chi_estimate(sys_, np.zeros((0, 2)), horizon=2.0)
    with pytest.raises(LyapunovError, match="vector of length 2"):
        chi_estimate([sys_, gallery("gbm")], [[1.0, 0.0], [0.0, 1.0]], horizon=2.0)


def test_spectrum_runs_every_probe_in_one_pass(monkeypatch):
    sys_ = _diag_system(-1, -2)
    probes = [np.eye(2)[0], np.eye(2)[1]]
    alone = spectrum(sys_, horizon=20.0, trials=4, seed=3)
    passes = _counting_moment_loop(monkeypatch)
    est = spectrum(sys_, horizon=20.0, trials=4, seed=3)
    assert passes == [4]
    assert est == alone
    for chi, v in zip(est.per_vector, probes):
        assert chi == chi_estimate(sys_, v, horizon=20.0).chi


def test_a_long_grid_splits_the_probes_over_passes_within_the_chunk(monkeypatch):
    # Horizon 10 at dt 10^-2 is 1001 nodes of three stored numbers per probe;
    # CHUNK_VALUES 6006 holds two probes, so five take passes of 2, 2 and 1
    # and every exponent is the one-pass exponent bit for bit.
    sys_ = _diag_system(-1, -2)
    alone = spectrum(sys_, horizon=10.0, trials=5, seed=3)
    passes = _counting_moment_loop(monkeypatch)
    monkeypatch.setattr(engines, "CHUNK_VALUES", 3 * 1001 * 2)
    est = spectrum(sys_, horizon=10.0, trials=5, seed=3)
    assert passes == [2, 2, 1]
    assert est == alone


def test_the_dual_exponents_of_a_basis_take_one_pass(monkeypatch):
    sys_ = gallery("perron-sde")
    theta = 0.6
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    chis = [chi_estimate(sys_, rot[:, i], horizon=10.0, t_start=0.5).chi for i in range(2)]
    chis_adj = [chi_estimate(adjoint(sys_), rot[:, i], horizon=10.0, t_start=0.5).chi
                for i in range(2)]
    passes = _counting_moment_loop(monkeypatch)
    rep = duality_defect(sys_, rot, rot, horizon=10.0, t_start=0.5)
    est = regularity_estimate(sys_, [(np.eye(2), np.eye(2)), (rot, rot)], horizon=10.0,
                              t_start=0.5)
    assert passes == [4, 8]
    assert list(rep.chis) == chis and list(rep.chis_adjoint) == chis_adj
    assert est.per_pair_sums[1] == tuple(float(x) for x in np.add(chis, chis_adj))


def test_every_candidate_pair_of_a_regularity_estimate_shares_one_pass(monkeypatch):
    sys_ = gallery("perron-sde")
    theta = 0.6
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    shear = np.array([[1.0, 0.5], [0.0, 1.0]])
    pairs = [(np.eye(2), np.eye(2)), (rot, rot), (shear, np.linalg.inv(shear).T)]
    alone = [regularity_estimate(sys_, [pair], horizon=10.0, t_start=0.5, seed=3 + 977 * p)
             for p, pair in enumerate(pairs)]
    passes = _counting_moment_loop(monkeypatch)
    est = regularity_estimate(sys_, pairs, horizon=10.0, t_start=0.5, seed=3)
    assert passes == [12]
    assert est.per_pair_sums == tuple(one.per_pair_sums[0] for one in alone)
    assert est.per_pair_max == tuple(one.per_pair_max[0] for one in alone)
    assert est.gamma_upper_estimate == min(one.gamma_upper_estimate for one in alone)


def test_the_lyapunov_command_runs_its_vector_in_the_spectrums_pass(monkeypatch, capsys):
    sys_ = gallery("diag-2x2")
    argv = ["lyapunov", "--system", "diag-2x2", "--horizon", "20", "--trials", "3",
            "--vector", "0.6,0.8"]
    alone = chi_estimate(sys_, [0.6, 0.8], horizon=20.0)
    probes = spectrum(sys_, horizon=20.0, trials=3)
    passes = _counting_moment_loop(monkeypatch)
    assert dispatch(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert passes == [4]
    assert payload["chi"]["chi"] == alone.chi
    assert payload["chi"]["window"] == list(alone.window)
    assert tuple(payload["spectrum"]["per_vector"]) == probes.per_vector
    assert dispatch([*argv[:-1], "1"]) == 1
    assert passes == [4]
    assert capsys.readouterr().err.endswith("error: validation: u0 must be a vector of "
                                            "length 2\n")


def test_chi_mc_route_gbm():
    est = chi_estimate(gallery("gbm"), [1.0], horizon=8.0, method="mc",
                       dt=1e-2, paths=10_000, seed=6)
    assert est.method == "mc" and est.stderr is not None and est.stderr > 0.0
    assert abs(est.chi - (-1.75)) <= max(0.05, 3.0 * est.stderr)


def test_chi_mc_refuses_a_zero_mean_square():
    # 1 - 100 * 0.01 = 0: the first EM step ends every path at exactly 0.
    with pytest.raises(NumericFailure, match="mean square at t=0.52 is 0.0"):
        chi_estimate(_diag_system(-100), [1.0], horizon=1.0, method="mc", dt=0.01, paths=10)


def test_chi_mc_agrees_with_ode():
    sys_ = gallery("diag-2x2")
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    ode = chi_estimate(sys_, u, horizon=8.0)
    mc = chi_estimate(sys_, u, horizon=8.0, method="mc", dt=1e-2, paths=10_000, seed=8)
    assert abs(ode.chi - mc.chi) <= max(0.05, 3.0 * mc.stderr)


def test_spectrum_two_blocks():
    # Random probes carry a log(c^2)/t transient toward the dominant
    # exponent; the horizon must be long enough to flush it below the
    # cluster tolerance.
    est = spectrum(_diag_system(-1, -2), horizon=200.0, trials=4, seed=3)
    assert len(est.values) == 2
    assert est.values[0] == pytest.approx(-4.0, abs=0.05)
    assert est.values[1] == pytest.approx(-2.0, abs=0.05)
    assert est.multiplicities == (1, 1)
    assert est.split_index == 2
    assert len(est.per_vector) == 4


def test_spectrum_scalar():
    est = spectrum(gallery("gbm"), horizon=40.0, trials=1)
    assert est.values == (pytest.approx(-1.75, abs=1e-6),)
    assert est.multiplicities == (1,)
    assert est.split_index == 1


def test_spectrum_zero_three_dim():
    est = spectrum(_diag_system(0, 0, 0), horizon=10.0, trials=5, seed=1)
    assert len(est.values) == 1
    assert est.values[0] == pytest.approx(0.0, abs=1e-9)
    assert sum(est.multiplicities) == 3
    assert est.split_index == 0


def test_probe_streams_are_disjoint_from_path_streams(monkeypatch):
    # Probe i's Monte Carlo run reads the path streams (seed + 31 i, m),
    # m < paths; random probe j reads (seed, first + j). A run with as many
    # paths as the first probe index, one value per path, is refused before
    # anything is allocated, so no path stream reaches a probe stream.
    keys, stream = [], lyapunov.RngStream

    def recorded(seed, index):
        keys.append((seed, index))
        return stream(seed, index)

    monkeypatch.setattr(lyapunov, "RngStream", recorded)
    spectrum(_diag_system(-1, -2), horizon=1.0, trials=5, method="mc", paths=20, seed=3)
    monkeypatch.undo()
    assert [seed for seed, _ in keys] == [3, 3, 3]
    first = min(index for _, index in keys)
    with pytest.raises(EngineError, match="limit"):
        next(euler_maruyama(gallery("gbm"), TimeGrid(0.0, 0.1, 2), first, 3, [1], x0=[1.0]))


def test_spectrum_requires_enough_trials():
    with pytest.raises(LyapunovError, match="trials"):
        spectrum(_diag_system(-1, -2), horizon=10.0, trials=1)


def test_duality_gbm_sum():
    # chi = 2a + b^2 and the adjoint gives -2a + 3b^2; the sum is 4b^2.
    rep = duality_defect(gallery("gbm"), np.eye(1), np.eye(1), horizon=40.0)
    assert rep.sums[0] == pytest.approx(1.0, abs=0.02)
    assert rep.chis[0] == pytest.approx(-1.75, abs=1e-6)
    assert rep.chis_adjoint[0] == pytest.approx(2.75, abs=1e-6)


def test_duality_deterministic_diagonal_zero_sums():
    sys_ = gallery("diag-2x2", g1=0.0, g2=0.0)
    rep = duality_defect(sys_, np.eye(2), np.eye(2), horizon=30.0)
    # Forward and adjoint runs discretize differently, so the cancellation
    # is only as good as the integrator.
    np.testing.assert_allclose(rep.sums, 0.0, atol=1e-7)


def test_duality_rejects_non_dual_bases():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(LyapunovError, match="not dual"):
        duality_defect(gallery("diag-2x2"), np.eye(2), swap, horizon=5.0)


def test_duality_pairing_drift_small():
    rep = duality_defect(gallery("diag-2x2"), np.eye(2), np.eye(2), horizon=10.0,
                         seed=4, drift_dt=1e-3, drift_paths=4)
    assert 0.0 <= rep.max_pairing_drift <= 0.05


def test_duality_pairing_drift_memory_does_not_grow_with_the_nodes(monkeypatch):
    # CHUNK_VALUES 2^15 and 100 paths: about 0.3 MB of increment blocks.
    # Phi, Psi and the increments kept at every node would take 6.4 MB at
    # 1001 nodes and 25.6 MB at 4001.
    monkeypatch.setattr(engines, "CHUNK_VALUES", 2 ** 15)
    diag = gallery("diag-2x2")

    def peak(drift_dt: float) -> int:
        tracemalloc.start()
        try:
            duality_defect(diag, np.eye(2), np.eye(2), horizon=2.0, drift_paths=100,
                           drift_dt=drift_dt)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0.1)       # warm up
    assert peak(2.5e-4) <= 1.25 * peak(1e-3)


@pytest.mark.parametrize("name,t_start,horizon", [
    ("gbm", 0.0, 30.0),
    ("diag-2x2", 0.0, 30.0),
    ("perron-ode", 1.0, 50.0),
    ("perron-sde", 1.0, 50.0),
])
def test_duality_sums_nonnegative_ode(name, t_start, horizon):
    # Pointwise E||u||^2 E||v||^2 >= 1 forces every ODE-route sum >= 0.
    sys_ = gallery(name)
    rep = duality_defect(sys_, np.eye(sys_.dim), np.eye(sys_.dim), horizon,
                         t_start=t_start)
    assert np.all(rep.sums >= -1e-9)


def test_regularity_gbm():
    est = regularity_estimate(gallery("gbm"), [(np.eye(1), np.eye(1))], horizon=40.0)
    assert est.gamma_upper_estimate == pytest.approx(1.0, abs=0.02)
    assert est.per_pair_max == (est.gamma_upper_estimate,)


def test_regularity_deterministic_diagonal():
    sys_ = gallery("diag-2x2", g1=0.0, g2=0.0)
    est = regularity_estimate(sys_, [(np.eye(2), np.eye(2))], horizon=30.0)
    assert est.gamma_upper_estimate == pytest.approx(0.0, abs=1e-7)


def test_regularity_perron_ode_window():
    sys_ = gallery("perron-ode")
    est = regularity_estimate(sys_, [(np.eye(2), np.eye(2))], horizon=600.0,
                              t_start=1.0, dt=2e-2)
    assert -0.05 <= est.gamma_upper_estimate <= 8.3


def test_regularity_picks_best_pair():
    sys_ = gallery("diag-2x2", g1=0.0, g2=0.0)
    theta = 0.6
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    est = regularity_estimate(sys_, [(np.eye(2), np.eye(2)), (rot, rot)], horizon=30.0)
    # Mixed directions pick up the dominant exponent both ways, so the
    # rotated pair cannot beat the canonical one here.
    assert est.gamma_upper_estimate == min(est.per_pair_max)
    assert est.per_pair_max[0] <= est.per_pair_max[1] + 1e-12


def test_regularity_requires_candidates():
    with pytest.raises(LyapunovError, match="candidate"):
        regularity_estimate(gallery("gbm"), [], horizon=10.0)
