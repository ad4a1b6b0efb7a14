"""Dichotomy surfaces, envelope fits, witnesses, and decoupling."""

import math

import numpy as np
import pytest

from msd import dichotomy, engines
from msd.dichotomy import (
    DichotomyError,
    decoupling_check,
    dichotomy_surface,
    fit_envelope,
    pair_grid,
    predicted_exponent,
    similarity_propagate,
    uniform_witness,
)
from msd.engines import (
    DivergenceError,
    EngineError,
    MomentSurface,
    TimeGrid,
    moment_ode,
    simulate_fundamental,
    transition_second_moment,
)
from msd.lyapunov import SpectrumEstimate, spectrum
from msd.model import LinearSde, adjoint, gallery, make_projector

A_PERRON, B_PERRON = 1.05, 1.0
S_WITNESS = 4.810477380965351      # exp(pi/2), where sin(log s) = +1
T_WITNESS = 111.31777848985622     # exp(3 pi / 2), where sin(log t) = -1


def _perron_closed_form(ss, ts):
    """Second moment of the perron-ode stable block, drift only."""
    ss = np.asarray(ss, dtype=float)
    ts = np.asarray(ts, dtype=float)
    s_term = np.where(ss > 0, ss * np.sin(np.log(np.maximum(ss, 1e-300))), 0.0)
    return np.exp(-2 * A_PERRON * (ts - ss)
                  - 2 * B_PERRON * (ts * np.sin(np.log(ts)) - s_term))


def _surface(pairs, values, sense="stable"):
    ss = np.array([s for s, _ in pairs])
    ts = np.array([t for _, t in pairs])
    return MomentSurface(ss=ss, ts=ts, values=np.asarray(values, dtype=float),
                         stderrs=None, sense=sense)


def _coupled_2x2():
    return LinearSde.from_strings(
        2, [["-1", "1"], ["-1", "-1"]], [["0.2", "0"], ["0", "0.2"]])


def _serial_chains(system, projector, pairs, sense, dt):
    """Surface values with one moment_ode call per segment, row after row:
    each row of pairs that share a start restarts at each end from that
    end's matrix."""
    n = system.dim
    flow, spans = system, pairs
    if sense == "unstable":
        flow, spans = adjoint(system), [(t, s) for s, t in pairs]
    p0 = (np.eye(n) if projector is None else projector.matrix if sense == "stable"
          else projector.complement_matrix)
    rows = {}
    for i, (start, end) in enumerate(spans):
        rows.setdefault(start, []).append((end, i))
    values = np.empty(len(pairs))
    for start, ends in rows.items():
        here, p = start, p0
        for end, i in sorted(ends):
            if end != here:
                _, p = moment_ode(flow, p, here, end, dt=dt)
                here = end
            values[i] = np.trace(p)
    return values


class TestSurface:
    def test_gbm_contraction_matches_scalar_oracle(self):
        surf = dichotomy_surface(gallery("gbm"), None,
                                 [(0.0, 1.0), (0.0, 2.0), (1.0, 2.0)])
        want = [math.exp(-1.75), math.exp(-3.5), math.exp(-1.75)]
        np.testing.assert_allclose(surf.values, want, rtol=1e-6)
        assert surf.sense == "stable"
        assert surf.stderrs is None

    def test_equal_time_pairs_count_dimension(self):
        surf = dichotomy_surface(gallery("diag-2x2"), None,
                                 [(0.5, 0.5), (2.0, 2.0), (0.5, 1.0)])
        assert surf.values[0] == 2.0
        assert surf.values[1] == 2.0
        proj = make_projector(2, 1)
        one = dichotomy_surface(gallery("perron-ode"), proj,
                                [(2.0, 2.0), (2.0, 3.0)])
        assert one.values[0] == 1.0

    def test_equal_time_unstable_counts_complement(self):
        surf = dichotomy_surface(gallery("diag-2x2"), make_projector(2, 1),
                                 [(0.5, 0.5), (0.5, 0.2)])
        assert surf.sense == "unstable"
        assert surf.values[0] == 1.0

    def test_coupled_projector_ode_route_errors(self):
        rot = LinearSde.from_strings(2, [["-1", "1"], ["-1", "-1"]],
                                     [["0", "0"], ["0", "0"]])
        with pytest.raises(EngineError, match="Monte Carlo"):
            dichotomy_surface(rot, make_projector(2, 1), [(0.0, 1.0), (0.0, 2.0)],
                              method="ode")

    def test_mixed_sense_pairs_rejected(self):
        with pytest.raises(DichotomyError, match="mix"):
            dichotomy_surface(gallery("gbm"), None, [(0.0, 1.0), (1.0, 0.5)])

    def test_empty_pairs_rejected(self):
        with pytest.raises(DichotomyError, match="pair"):
            dichotomy_surface(gallery("gbm"), None, [])

    def test_unknown_method_rejected(self):
        with pytest.raises(DichotomyError, match="method"):
            dichotomy_surface(gallery("gbm"), None, [(0.0, 1.0)], method="exact")

    def test_mc_route_matches_ode_forward(self):
        diag = gallery("diag-2x2")
        proj = make_projector(2, 1)
        pairs = [(0.0, 0.2), (0.1, 0.4), (0.2, 0.6), (0.0, 0.0)]
        ode = dichotomy_surface(diag, proj, pairs, method="ode", dt=1e-3)
        mc = dichotomy_surface(diag, proj, pairs, method="mc", dt=2e-3,
                               paths=800, seed=11)
        for k in range(3):
            assert abs(mc.values[k] - ode.values[k]) < 4.0 * mc.stderrs[k]
        # s = t = 0 is the projector itself on every path.
        assert mc.values[3] == 1.0
        assert mc.stderrs[3] == 0.0

    def test_mc_route_matches_ode_backward(self):
        diag = gallery("diag-2x2")
        proj = make_projector(2, 1)
        pairs = [(0.6, 0.2), (0.4, 0.1), (0.6, 0.6)]
        ode = dichotomy_surface(diag, proj, pairs, method="ode", dt=1e-3)
        mc = dichotomy_surface(diag, proj, pairs, method="mc", dt=2e-3,
                               paths=800, seed=12)
        assert mc.sense == "unstable"
        for k in range(2):
            assert abs(mc.values[k] - ode.values[k]) < 4.0 * mc.stderrs[k]
        # Equal-time product carries the coupled-inverse discretization bias,
        # so this is an absolute check rather than a stderr one.
        assert abs(mc.values[2] - 1.0) < 0.02

    def test_coupled_auto_falls_back_to_mc(self):
        surf = dichotomy_surface(_coupled_2x2(), make_projector(2, 1),
                                 [(0.0, 0.0), (0.0, 0.25), (0.0, 0.5)],
                                 paths=400, seed=7)
        assert surf.stderrs is not None
        # Phi(0) is the identity, so the s = t = 0 product is exact.
        assert surf.values[0] == 1.0
        assert surf.stderrs[0] == 0.0
        assert np.all(surf.values > 0)

    def test_auto_picks_its_route_before_any_work(self, monkeypatch):
        def reached(*args):
            raise AssertionError("a coupling projector entered the moment ODE route")

        monkeypatch.setattr(dichotomy, "_moment_rows", reached)
        surf = dichotomy_surface(_coupled_2x2(), make_projector(2, 1),
                                 [(0.0, 0.0), (0.0, 0.25)], paths=10, seed=7)
        assert surf.stderrs is not None

    def test_a_row_integrates_its_longest_gap_once(self, monkeypatch):
        # Ends at gaps 0, 0.5, 1, 2 and 4 from one start: one chained pass of
        # 4 / dt steps, where a pass per pair took 7.5 / dt.
        steps = []

        def counting(*args, **kwargs):
            curve, final = moment_ode(*args, **kwargs)
            steps.append(curve.ts.shape[-1] - 1)
            return curve, final

        monkeypatch.setattr(engines, "moment_ode", counting)
        dichotomy_surface(gallery("gbm"), None, pair_grid([0.3], [0.0, 0.5, 1.0, 2.0, 4.0]),
                          dt=1e-2)
        assert sum(steps) == 400

    @pytest.mark.parametrize("name, rank, pairs", [
        ("perron-sde", 1, pair_grid([1.0, 2.5], [0.0, 0.5, 1.0, 2.0, 4.0])),
        # Unstable sense: the rows are the pairs that share t.
        ("diag-2x2", 1, [(1.0, 0.2), (1.7, 0.2), (0.2, 0.2), (2.5, 0.2),
                         (1.5, 0.6), (2.5, 0.6)]),
        ("gbm", None, pair_grid([0.0, 1.0], [0.0, 0.25, 1.5, 3.0])),
        # Ends that are not multiples of dt.
        ("perron-sde", None, pair_grid([1.0], [0.0, 0.3337, 0.77071, 1.2345, 2.01])),
    ])
    def test_chained_rows_match_a_pass_per_pair(self, name, rank, pairs):
        system = gallery(name)
        proj = None if rank is None else make_projector(system.dim, rank)
        surf = dichotomy_surface(system, proj, pairs, method="ode", dt=1e-3)
        stable = surf.sense == "stable"
        p0 = (np.eye(system.dim) if proj is None
              else proj.matrix if stable else proj.complement_matrix)
        flow = system if stable else adjoint(system)
        nearest = {}
        for (s, t), value in zip(pairs, surf.values):
            start, end = (s, t) if stable else (t, s)
            want = np.trace(p0)
            if end != start:
                want = np.trace(moment_ode(flow, p0, start, end, dt=1e-3)[1])
            assert value == pytest.approx(want, rel=1e-12, abs=0.0)
            nearest[start] = min(nearest.get(start, (end, s, t, value)), (end, s, t, value))
        # The first end of every row is the pass transition_second_moment makes.
        for _, s, t, value in nearest.values():
            assert value == transition_second_moment(system, s, t, proj, dt=1e-3)

    @pytest.mark.parametrize("name, rank, pairs, dt", [
        ("perron-ode", 1, pair_grid([0.5, 1.0, 4.5], [0.0, 0.5, 1.0, 2.0]), 1e-2),
        ("diag-2x2", 1, pair_grid([6.3, 8.7], [0.0, 0.5, 1.0, 2.0, 4.0], "unstable"), 1e-2),
        ("perron-sde", None, pair_grid([1.0, 2.5], [0.0, 0.3337, 0.77071, 2.01]), 1e-2),
        ("diag-2x2", 1, [(1.0, 0.2), (1.7, 0.2), (0.2, 0.2), (2.5, 0.2),
                         (1.5, 0.6), (2.5, 0.6)], 1e-3),
    ])
    def test_rounds_equal_a_serial_chain_per_row(self, name, rank, pairs, dt):
        system = gallery(name)
        proj = None if rank is None else make_projector(system.dim, rank)
        surf = dichotomy_surface(system, proj, pairs, method="ode", dt=dt)
        assert np.array_equal(surf.values, _serial_chains(system, proj, pairs, surf.sense, dt))

    @pytest.mark.parametrize("name, pairs, dt, calls, steps", [
        # The ode benchmark's fit: two rows of two 2500-step segments.
        ("perron-ode", pair_grid([0.5, 4.5], [0.0, 50.0, 100.0]), 0.02, 2, 5000),
        # Ten rows of one pair each; the two of each gap share a call.
        ("diag-2x2", pair_grid([6.3, 8.7], [0.0, 0.5, 1.0, 2.0, 4.0], "unstable"), 1e-2,
         4, 750),
    ])
    def test_a_surface_takes_one_call_per_round_and_step_count(self, monkeypatch, name,
                                                               pairs, dt, calls, steps):
        made = []

        def counting(*args, **kwargs):
            curve, final = moment_ode(*args, **kwargs)
            made.append(curve.ts.shape[-1] - 1)
            return curve, final

        monkeypatch.setattr(engines, "moment_ode", counting)
        system = gallery(name)
        dichotomy_surface(system, make_projector(system.dim, 1), pairs, dt=dt)
        assert (len(made), sum(made)) == (calls, steps)

    def test_the_earliest_round_reports_its_failure(self):
        # M' = 400 M leaves float64 1.77 after a start of trace 1. The first
        # row fails in its second segment (round 1), the second row in its
        # first (round 0), so the second row's failure is the one reported,
        # where a row-by-row chain reported the first's.
        hot = gallery("gbm", a=200.0, b=0.0)
        pairs = [(0.0, 1.0), (0.0, 2.0), (10.0, 12.0)]
        errors = []
        # The restart at trace e^400 squares past float64 in its symmetry check.
        with np.errstate(over="ignore"):
            for s, t in pairs[1:]:
                with pytest.raises(DivergenceError) as err:
                    _serial_chains(hot, None, [(0.0, 1.0), (s, t)] if s == 0.0 else [(s, t)],
                                   "stable", 1e-3)
                errors.append(str(err.value))
            assert errors == ["moment integration diverged at t=1.775",
                              "moment integration diverged at t=11.775"]
            with pytest.raises(DivergenceError, match=f"^{errors[1]}$"):
                dichotomy_surface(hot, None, pairs, method="ode", dt=1e-3)

    def test_pair_grid_shapes_and_validation(self):
        fwd = pair_grid([0.0, 1.0], [0.0, 0.5], "stable")
        assert fwd == [(0.0, 0.0), (0.0, 0.5), (1.0, 1.0), (1.0, 1.5)]
        bwd = pair_grid([1.0], [0.5], "unstable")
        assert bwd == [(1.0, 0.5)]
        with pytest.raises(DichotomyError, match="nonnegative"):
            pair_grid([0.0], [-1.0])
        with pytest.raises(DichotomyError, match="sense"):
            pair_grid([0.0], [1.0], "sideways")


class TestFitEnvelope:
    def test_recovers_uniform_synthetic(self):
        pairs = pair_grid([0.001, 1.0, 2.0, 3.0], [0.0, 0.5, 1.0, 2.0, 4.0])
        ss = np.array([s for s, _ in pairs])
        ts = np.array([t for _, t in pairs])
        fit = fit_envelope(_surface(pairs, np.exp(-2.0 * (ts - ss))))
        assert abs(fit.k - 1.0) < 1e-6
        assert abs(fit.alpha - 2.0) < 2.0 / 200 + 1e-12
        assert fit.beta == 0.0
        assert fit.uniform
        assert fit.residual_max == 1.0
        # The exact exponential touches the envelope everywhere.
        assert len(fit.tight_points) == len(pairs)

    def test_recovers_nonuniform_synthetic(self):
        pairs = pair_grid([0.001, 1.0, 2.0, 3.0], [0.0, 0.5, 1.0, 2.0, 4.0])
        ss = np.array([s for s, _ in pairs])
        ts = np.array([t for _, t in pairs])
        fit = fit_envelope(_surface(pairs, np.exp(-2.0 * (ts - ss) + 0.5 * ss)))
        assert abs(fit.alpha - 2.0) < 2.0 / 200 + 1e-12
        assert abs(fit.beta - 0.5) < 0.5 / 200 + 1e-12
        assert abs(fit.k - 1.0) < 1e-2
        assert not fit.uniform
        assert fit.beta_below_alpha

    def test_scale_equivariance_is_exact(self):
        pairs = pair_grid([0.001, 1.0, 2.0, 3.0], [0.0, 0.5, 1.0, 2.0, 4.0])
        ss = np.array([s for s, _ in pairs])
        ts = np.array([t for _, t in pairs])
        v = np.exp(-2.0 * (ts - ss) + 0.5 * ss)
        base = fit_envelope(_surface(pairs, v))
        for c in (2.0 ** 7, 2.0 ** -7):
            scaled = fit_envelope(_surface(pairs, c * v))
            assert scaled.alpha == base.alpha
            assert scaled.beta == base.beta
            assert scaled.k == c * base.k
            assert scaled.tight_points == base.tight_points

    def test_needs_three_positive_points(self):
        with pytest.raises(DichotomyError, match="3 surface points"):
            fit_envelope(_surface([(0.0, 0.0), (0.0, 1.0)], [1.0, 0.5]))
        with pytest.raises(DichotomyError, match="positive"):
            fit_envelope(_surface([(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)],
                                  [1.0, 0.0, 0.5]))

    @pytest.mark.parametrize("lattice", [0, 1, 10_001])
    def test_lattice_outside_its_range_rejected(self, lattice):
        # Lattice 0 once ended in an IndexError, and a lattice of 10^9
        # allocated 7.45 GiB of alpha values.
        pairs = [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]
        with pytest.raises(DichotomyError, match="lattice must be between 2 and 10000"):
            fit_envelope(_surface(pairs, [1.0, 0.5, 0.25]), lattice=lattice)

    def test_sense_mismatch_rejected(self):
        pairs = [(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]
        with pytest.raises(DichotomyError, match="disagree"):
            fit_envelope(_surface(pairs, [1.0, 0.5, 0.25], sense="unstable"))

    def test_perron_drift_only_fit(self):
        # Stable block of the oscillating system with diffusion zeroed.
        proj = make_projector(2, 1)
        pairs = [(0.1, 0.1), (1.0, 1.0)]
        for s in (0.1, 1.0, S_WITNESS):
            for t in (S_WITNESS, 20.0, 60.0, T_WITNESS):
                if t > s:
                    pairs.append((s, t))
        surf = dichotomy_surface(gallery("perron-ode"), proj, pairs, dt=1e-2)
        want = _perron_closed_form(surf.ss, surf.ts)
        anchored = surf.ts > surf.ss
        np.testing.assert_allclose(surf.values[anchored], want[anchored], rtol=1e-4)
        fit = fit_envelope(surf, alpha_max=2.0, beta_max=4.0)
        assert abs(fit.alpha - 2 * (A_PERRON - B_PERRON)) <= 0.02
        assert 1.8 * B_PERRON <= fit.beta <= 4.4 * B_PERRON
        assert fit.residual_max <= 1.0 + 1e-9
        assert not fit.beta_below_alpha


class TestUniformWitness:
    def test_synthetic_uniform_flag(self):
        pairs = pair_grid([0.001, 1.0, 2.0, 3.0], [0.0, 0.5, 1.0, 2.0, 4.0])
        ss = np.array([s for s, _ in pairs])
        ts = np.array([t for _, t in pairs])
        rep = uniform_witness(_surface(pairs, np.exp(-2.0 * (ts - ss))))
        assert rep.flag == "uniform"
        assert rep.ratio == pytest.approx(1.0, abs=1e-6)

    def test_perron_ode_is_nonuniform(self):
        pairs = pair_grid([0.5, 1.5, 2.5, 3.5, 4.5],
                          [0.0, 25.0, 50.0, 75.0, 100.0])
        surf = dichotomy_surface(gallery("perron-ode"), make_projector(2, 1),
                                 pairs, dt=2e-2)
        rep = uniform_witness(surf)
        assert rep.flag == "nonuniform"
        assert rep.ratio > 1e3
        assert rep.s_values.shape == (5,)

    def test_witness_pair_is_tight_on_drift_only_fit(self):
        # Exact closed-form surface; the lattice tops put the canonical
        # rates on the grid and the anchor pins K near 1.
        pairs = [(0.0125, 0.0125), (S_WITNESS, T_WITNESS), (1.0, 20.0),
                 (S_WITNESS, 60.0)]
        ss = [s for s, _ in pairs]
        ts = [t for _, t in pairs]
        fit = fit_envelope(_surface(pairs, _perron_closed_form(ss, ts)),
                           alpha_max=0.1, beta_max=4.0)
        assert (S_WITNESS, T_WITNESS) in fit.tight_points
        assert fit.beta == 4.0
        assert abs(fit.alpha - 0.0995) < 1e-9
        assert fit.k == pytest.approx(math.exp(-4.0 * 0.0125), rel=1e-6)

    def test_single_s_surface_rejected(self):
        pairs = [(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)]
        with pytest.raises(DichotomyError, match="one s value"):
            uniform_witness(_surface(pairs, [1.0, 0.5, 0.25]))


class TestPredictedExponent:
    @staticmethod
    def _estimate(values, split):
        return SpectrumEstimate(values=tuple(values),
                                multiplicities=tuple(1 for _ in values),
                                split_index=split, tolerance=0.5,
                                per_vector=tuple(values))

    def test_two_branch_max(self):
        pe = predicted_exponent(self._estimate([-3.0, 1.0], 1), 0.1)
        assert pe.alpha == pytest.approx(2.9)
        assert pe.stable_rate == pytest.approx(2.9)
        assert pe.unstable_rate == pytest.approx(1.1)
        assert pe.beta is None

    def test_contraction_rate(self):
        pe = predicted_exponent(self._estimate([-1.75], 1), 0.05)
        assert pe.alpha == pytest.approx(1.70)
        assert pe.unstable_rate is None

    def test_regularity_supplies_beta(self):
        pe = predicted_exponent(self._estimate([-3.0, 1.0], 1), 0.1,
                                regularity=0.3)
        assert pe.beta == pytest.approx(0.5)

    def test_all_nonnegative_spectrum_rejected(self):
        with pytest.raises(DichotomyError, match="negative"):
            predicted_exponent(self._estimate([0.5, 1.0], 0), 0.1)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(DichotomyError, match="epsilon"):
            predicted_exponent(self._estimate([-2.0, 1.0], 1), -0.1)


class TestSimilarityPropagate:
    def test_shared_degree_example(self):
        out = similarity_propagate(_make_fit(1.0, 2.0, 0.5), 2.0)
        assert out.k == 4.0
        assert out.alpha == 1.5
        assert out.beta == 1.5

    def test_identity(self):
        fit = _make_fit(1.0, 2.0, 0.5)
        assert similarity_propagate(fit, 1.0, beta_s=0.0) == fit

    def test_beta_at_least_alpha_rejected(self):
        with pytest.raises(DichotomyError, match="violated"):
            similarity_propagate(_make_fit(1.0, 1.0, 1.5), 2.0)

    def test_norm_bound_below_one_rejected(self):
        with pytest.raises(DichotomyError, match=">= 1"):
            similarity_propagate(_make_fit(1.0, 2.0, 0.5), 0.5)


def _make_fit(k, alpha, beta):
    from msd.dichotomy import DichotomyFit
    return DichotomyFit(rank=1, k=k, alpha=alpha, beta=beta, sense="stable",
                        residual_max=1.0, tight_points=((0.0, 1.0),),
                        uniform=beta < 1e-6, beta_below_alpha=beta < alpha)


class TestDecoupling:
    @staticmethod
    def _ensemble(system, seed, paths=64, horizon=0.25):
        grid = TimeGrid.spanning(0.0, horizon, 2.5e-3)
        return simulate_fundamental(system, grid, paths, seed)

    def test_identity_projector_gives_orthogonal_s(self):
        rep = decoupling_check(self._ensemble(gallery("diag-2x2"), 3),
                               make_projector(2, 2))
        assert rep.max_commutator == 0.0
        assert rep.max_projection_gap < 1e-10
        assert rep.mean_s_norm_sq <= 2.0 + 0.05
        assert abs(rep.max_s_norm_sq - 1.0) < 1e-9
        assert rep.max_inverse_excess < 1e-9

    def test_block_diagonal_commutes_exactly(self):
        rep = decoupling_check(self._ensemble(gallery("diag-2x2"), 3),
                               make_projector(2, 1))
        assert rep.max_commutator == 0.0
        assert rep.max_projection_gap < 1e-10

    def test_coupled_system_residuals(self):
        rep = decoupling_check(self._ensemble(_coupled_2x2(), 4),
                               make_projector(2, 1))
        assert rep.max_commutator <= 1e-7
        assert rep.max_projection_gap <= 1e-7
        assert rep.max_s_norm_sq <= 2.0 + 1e-9
        assert rep.max_inverse_excess <= 1e-7

    def test_shear_flow_uses_the_norm_headroom(self):
        rep = decoupling_check(
            self._ensemble(gallery("triangular-2x2"), 5, paths=96, horizon=0.5),
            make_projector(2, 1))
        assert 1.2 < rep.max_s_norm_sq <= 2.0 + 1e-9
        assert rep.max_commutator == 0.0
        assert rep.max_projection_gap <= 1e-7
        assert rep.max_inverse_excess <= 1e-7
        assert rep.nodes == 201
        assert rep.paths == 96


class TestBlockSystemPrediction:
    def test_fitted_rates_meet_forecast(self):
        system = LinearSde.from_strings(
            3,
            [["-1", "0", "0"], ["0", "-2", "0"], ["0", "0", "1"]],
            [["0.1", "0", "0"], ["0", "0.1", "0"], ["0", "0", "0"]],
        )
        est = spectrum(system, horizon=50.0, trials=3)
        assert est.split_index == 2
        pe = predicted_exponent(est, 0.1)
        assert pe.alpha == pytest.approx(2.1, abs=1e-3)

        proj = make_projector(3, 2)
        stable = fit_envelope(dichotomy_surface(
            system, proj, pair_grid([0.0, 1.0], [0.0, 0.5, 1.0, 2.0, 4.0]),
            dt=1e-2))
        assert stable.alpha >= pe.alpha - 0.2
        assert stable.rank == 2

        unstable = fit_envelope(dichotomy_surface(
            system, proj,
            pair_grid([4.0, 5.0], [0.0, 0.5, 1.0, 2.0, 4.0], "unstable"),
            dt=1e-2))
        assert unstable.alpha >= pe.alpha - 0.2
        assert unstable.k == pytest.approx(1.0, abs=1e-6)
        assert unstable.rank == 1
