"""Tests for the nonlinear perturbation layer.

Monte Carlo assertions here use frozen seeds; tolerances were calibrated
against probe runs and sit several noise widths away from their thresholds.
"""

import json
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from msd import cli, engines, expr, perturb
from msd.engines import (EngineError, TimeGrid, euler_maruyama, fundamental_at,
                         mc_moment_curve, simulate_fundamental, simulate_vectors)
from msd.model import LinearSde, ModelError, PerturbationSpec, PerturbedSde, gallery
from msd.perturb import (
    PerturbError,
    check_condition_42,
    perron_instability,
    simulate_perturbed,
    stability_experiment,
    voc_solve,
)
from msd.numerics import brownian_batch, pairwise_mean_std
from tree_walk import apply_map

# Analytic growth lower bound at (a, b, lambda) = (1.05, 1, 1) with a 0.01
# window, and the deterministic second-component exponent from log-space
# quadrature out to e^{pi/2 + 2 pi}. Both are deterministic quantities.
GROWTH_BOUND = 0.0702149845559818
CHI_DET = 0.12810464600847116


def _cubic_clipped(base=None):
    base = base or gallery("gbm")
    return PerturbedSde(base, PerturbationSpec.power_clipped(1.0, 3.0, 1.0),
                        PerturbationSpec.zero(), c=9.0, q=2.0)


def _zero_perturbation(base):
    return PerturbedSde(base, PerturbationSpec.zero(), PerturbationSpec.zero(),
                        c=1.0, q=2.0)


def _reference_perturbed(psys, xi0, grid, incr):
    """The paths-first Euler-Maruyama loop simulate_perturbed once ran on its
    own, with the maps evaluated by the frozen tree walk: every node stored,
    a path frozen at its last state (and its escape time set) once its next
    state is beyond the explosion threshold."""
    paths, n = incr.shape[0], psys.base.dim
    params = psys.base.params
    times = grid.times()
    a_left = psys.base.drift_at(times[:-1])
    g_left = psys.base.diffusion_at(times[:-1])
    values = np.empty((grid.count, paths, n))
    values[0] = xi0
    escape = np.full(paths, np.nan)
    dt = grid.dt
    for k in range(grid.steps):
        t, cur = times[k], values[k]
        drift = cur @ a_left[k].T + apply_map(psys.f, params, t, cur)
        noise = cur @ g_left[k].T + apply_map(psys.h, params, t, cur)
        nxt = cur + drift * dt + noise * incr[:, k][:, None]
        escape[np.isnan(escape) & np.any(engines._beyond_threshold(nxt), axis=1)] = times[k + 1]
        values[k + 1] = np.where(np.isnan(escape)[:, None], nxt, cur)
    return values, escape


def _random_perturbed(n, kind, rng):
    """Coefficients c0 + c1 sin(t) and random maps: time-dependent products
    of the components, or clipped powers."""
    def num(scale=1.0):
        return f"{scale * rng.normal():.17g}"

    base = LinearSde.from_strings(
        n, [[f"{num()} + {num()} * sin(t)" for _ in range(n)] for _ in range(n)],
        [[f"{num(0.5)} + {num(0.5)} * cos(t)" for _ in range(n)] for _ in range(n)])
    if kind == "power_clipped":
        f = PerturbationSpec.power_clipped(float(rng.normal()), 3.0, 1.5)
        h = PerturbationSpec.power_clipped(float(0.5 * rng.normal()), 2.0, 1.0)
    else:
        comp = [f"u{i}" for i in rng.integers(1, n + 1, size=3 * n)]
        f = PerturbationSpec.exprs([f"{num(0.3)} * sin(t) * {comp[i]} * {comp[n + i]}"
                                    f" - {abs(rng.normal()):.17g} * u{i + 1}^3"
                                    for i in range(n)])
        h = PerturbationSpec.exprs([f"{num(0.3)} * cos(3 * t) * {comp[2 * n + i]} * u{i + 1}"
                                    for i in range(n)])
    return PerturbedSde(base, f, h, c=1.0, q=2.0)


def _escaping():
    """The system of TestSimulatePerturbed.test_explosion_recorded_not_fatal."""
    base = LinearSde.from_strings(1, [["2"]], [["0"]])
    return PerturbedSde(base, PerturbationSpec.power_clipped(10.0, 3.0, 1e6),
                        PerturbationSpec.zero(), c=1.0, q=2.0)


@pytest.fixture(scope="module")
def cubic_stability():
    base = LinearSde.from_strings(1, [["-1"]], [["0.2"]])
    return stability_experiment(_cubic_clipped(base), delta=0.01, horizon=8.0,
                                paths=2000, seed=21)


@pytest.fixture(scope="module")
def perron_report():
    return perron_instability(1.05, 1.0, 1.0, delta_window=0.01,
                              horizon=10.0, paths=400, seed=3)


class TestCondition42:
    def test_clipped_cubic_consistent_at_moderate_scale(self):
        rep = check_condition_42(_cubic_clipped(), 0.3, trials=1000, seed=0)
        assert rep.consistent
        assert 0.0 < rep.max_ratio <= 1.0
        assert rep.violations == ()
        assert rep.trials == 1000

    def test_clipped_cubic_consistent_at_small_scale(self):
        rep = check_condition_42(_cubic_clipped(), 0.1, trials=300, seed=5)
        assert rep.consistent

    def test_samples_beyond_the_store_limit_are_refused_before_a_draw(self, monkeypatch):
        def no_draws(self):
            raise AssertionError("drew before the store check")
        monkeypatch.setattr(perturb.RngStream, "generator", no_draws)
        with pytest.raises(EngineError, match="a falsifier trial's samples would take"):
            check_condition_42(_cubic_clipped(), 0.5, trials=100, samples=10 ** 9)

    def test_zero_perturbation_has_zero_ratios(self):
        rep = check_condition_42(_zero_perturbation(gallery("gbm")), 0.5,
                                 trials=100, seed=1)
        assert rep.max_ratio == 0.0
        assert rep.consistent

    def test_flat_nonlinearity_violates_at_small_scale(self):
        # A quadratic coupling declared with q = 2 is flatter than the
        # bound demands near the origin.
        quad = PerturbedSde(gallery("perron-sde"),
                            PerturbationSpec.exprs(["0", "u1^2"]),
                            PerturbationSpec.zero(), c=9.0, q=2.0)
        rep = check_condition_42(quad, 0.05, trials=300, seed=2)
        assert not rep.consistent
        assert rep.max_ratio > 1.0
        assert rep.violations
        assert rep.worst["ratio"] == rep.max_ratio

    def test_fast_growth_violates_at_large_scale(self):
        fast = PerturbedSde(gallery("gbm"), PerturbationSpec.exprs(["u1^3"]),
                            PerturbationSpec.zero(), c=9.0, q=1.5)
        rep = check_condition_42(fast, 3.0, trials=300, seed=2)
        assert not rep.consistent
        assert rep.max_ratio > 1.0

    def test_deterministic_given_seed(self):
        one = check_condition_42(_cubic_clipped(), 0.3, trials=100, seed=7)
        two = check_condition_42(_cubic_clipped(), 0.3, trials=100, seed=7)
        assert one.max_ratio == two.max_ratio
        assert one.worst == two.worst

    def test_constant_entry_rejected_at_construction(self):
        with pytest.raises(ModelError, match="does not vanish"):
            PerturbedSde(gallery("gbm"), PerturbationSpec.exprs(["1"]),
                         PerturbationSpec.zero(), c=1.0, q=2.0)

    def test_needs_enough_trials(self):
        with pytest.raises(PerturbError, match="100"):
            check_condition_42(_cubic_clipped(), 0.3, trials=50)

    def test_scale_must_be_positive(self):
        with pytest.raises(PerturbError, match="positive"):
            check_condition_42(_cubic_clipped(), 0.0, trials=100)

    def test_report_serializes(self):
        rep = check_condition_42(_cubic_clipped(), 0.3, trials=100, seed=0)
        # The condition payload is the report's fields, as the CLI writes it.
        json.dumps(asdict(rep))


class TestSimulatePerturbed:
    def test_zero_perturbation_matches_fundamental(self):
        base = gallery("triangular-2x2")
        grid = TimeGrid.spanning(0.0, 1.0, 1e-3)
        ens = simulate_fundamental(base, grid, paths=16, seed=42)
        xi0 = np.array([0.3, -0.7])
        pens = simulate_perturbed(_zero_perturbation(base), xi0, grid,
                                  paths=16, seed=42)
        linear = np.einsum("kpij,j->kpi", ens.phi, xi0)
        assert np.max(np.abs(pens.values - linear)) < 1e-12
        assert pens.escaped == 0

    def test_zero_initial_condition_stays_zero(self):
        grid = TimeGrid.spanning(0.0, 1.0, 1e-3)
        pens = simulate_perturbed(_cubic_clipped(), np.array([0.0]), grid,
                                  paths=3, seed=1)
        assert np.all(pens.values == 0.0)

    def test_explosion_recorded_not_fatal(self):
        base = LinearSde.from_strings(1, [["2"]], [["0"]])
        boom = PerturbedSde(base, PerturbationSpec.power_clipped(10.0, 3.0, 1e6),
                            PerturbationSpec.zero(), c=1.0, q=2.0)
        grid = TimeGrid.spanning(0.0, 1.0, 1e-4)
        pens = simulate_perturbed(boom, np.array([1.0]), grid, paths=4, seed=0)
        assert pens.escaped == 4
        # Cubic blow-up from u = 1 at rate 10 u^3 hits the threshold
        # just before t = 1 / 20.
        assert np.allclose(pens.escape_times, 0.048, atol=2e-3)
        assert np.all(np.isfinite(pens.values))

    def test_gallery_perturbed_growth_reported(self):
        pens = simulate_perturbed(gallery("perron-sde-perturbed"),
                                  np.array([1.0, 0.0]),
                                  TimeGrid.spanning(1e-4, 10.0, 5e-3),
                                  paths=200, seed=8)
        second_moment = float(np.mean(pens.values[-1, :, 1] ** 2))
        assert math.isfinite(second_moment)
        assert second_moment > 0.0
        assert pens.escaped == 0

    @pytest.mark.parametrize("chunk", [40, None])
    @pytest.mark.parametrize("paths", [1, 7, 300])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["expr", "power_clipped"])
    def test_kernel_equals_the_paths_first_loop_bitwise(self, monkeypatch, kind, n, paths,
                                                        chunk):
        # CHUNK_VALUES 40 steps and draws one to a dozen nodes per block.
        if chunk is not None:
            monkeypatch.setattr(engines, "CHUNK_VALUES", chunk)
        rng = np.random.default_rng(1000 * n + paths)
        psys = _random_perturbed(n, kind, rng)
        grid = TimeGrid(0.1, 0.01, 41)
        xi0 = rng.normal(size=n)
        ref, ref_escape = _reference_perturbed(
            psys, xi0, grid, brownian_batch(9, paths, grid.dt, grid.steps))
        assert np.all(np.isfinite(ref)) and np.any(ref[-1] != ref[0])
        pens = simulate_perturbed(psys, xi0, grid, paths, 9)
        assert np.array_equal(pens.values, ref)
        assert np.array_equal(pens.escape_times, ref_escape, equal_nan=True)
        streamed = list(euler_maruyama(psys, grid, paths, 9, np.arange(grid.count), x0=xi0))
        assert np.array_equal(np.stack([u.T for _, u, _ in streamed]), ref)
        assert np.array_equal(streamed[-1][2], ref_escape, equal_nan=True)

    @pytest.mark.parametrize("chunk", [40, None])
    def test_escapes_equal_the_paths_first_loop_bitwise(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(engines, "CHUNK_VALUES", chunk)
        grid = TimeGrid.spanning(0.0, 1.0, 1e-4)
        ref, ref_escape = _reference_perturbed(_escaping(), np.array([1.0]), grid,
                                               brownian_batch(0, 4, grid.dt, grid.steps))
        assert np.all(np.isfinite(ref_escape))
        pens = simulate_perturbed(_escaping(), np.array([1.0]), grid, paths=4, seed=0)
        assert np.array_equal(pens.values, ref)
        assert np.array_equal(pens.escape_times, ref_escape)

    @pytest.mark.parametrize("steps", [(0,), (19,), (39,), (0, 19, 39), (19, 19, 20)])
    @pytest.mark.parametrize("kind", ["expr", "power_clipped"])
    def test_escapes_at_any_step_equal_the_paths_first_loop_bitwise(self, monkeypatch, kind,
                                                                    steps):
        # With CHUNK_VALUES 150 a block holds 8 steps of 6 paths of a 2-d
        # system. An increment of 1e160 takes a path past the threshold at
        # the first step, inside the third block or at the last step; from
        # then on every path steps through the freeze rule.
        monkeypatch.setattr(engines, "CHUNK_VALUES", 150)
        rng = np.random.default_rng(77)
        psys = _random_perturbed(2, kind, rng)
        grid = TimeGrid(0.1, 0.01, 41)
        xi0 = rng.normal(size=2)
        incr = brownian_batch(9, 6, grid.dt, grid.steps)
        for path, step in enumerate(steps):
            incr[2 * path % 6, step] = 1e160
        ref, ref_escape = _reference_perturbed(psys, xi0, grid, incr)
        times = grid.times()
        assert sorted(ref_escape[np.isfinite(ref_escape)]) == sorted(
            times[np.array(steps) + 1])
        monkeypatch.setattr(engines, "brownian_batch",
                            lambda seed, n, dt, steps, start=0: incr[:, start:start + steps])
        streamed = list(euler_maruyama(psys, grid, 6, 0, np.arange(grid.count), x0=xi0))
        assert np.array_equal(np.stack([u.T for _, u, _ in streamed]), ref)
        assert np.array_equal(streamed[-1][2], ref_escape, equal_nan=True)

    def test_each_map_is_compiled_once_per_run(self, monkeypatch):
        psys = _random_perturbed(2, "expr", np.random.default_rng(5))
        entries = psys.f.entries + psys.h.entries
        calls = {"maps": 0, "entries": 0}
        compile_map, compile_tree = engines._compile_map, expr._compile

        def count_map(*args, **kwargs):
            calls["maps"] += 1
            return compile_map(*args, **kwargs)

        def count_tree(node, *args, **kwargs):
            calls["entries"] += any(node is e for e in entries)
            return compile_tree(node, *args, **kwargs)

        monkeypatch.setattr(engines, "_compile_map", count_map)
        monkeypatch.setattr(perturb, "_compile_map", count_map)
        monkeypatch.setattr(expr, "_compile", count_tree)
        grid, xi0 = TimeGrid(0.1, 0.01, 201), np.array([0.3, -0.2])
        simulate_perturbed(psys, xi0, grid, 3, 0)
        assert calls == {"maps": 2, "entries": 4}
        mc_moment_curve(psys, grid, 3, 0, x0=xi0)
        assert calls == {"maps": 4, "entries": 8}
        check_condition_42(psys, 0.3, trials=100)
        assert calls == {"maps": 6, "entries": 12}
        ens = simulate_fundamental(psys.base, grid, 1, 0)
        voc_solve(psys, xi0, ens)
        assert calls == {"maps": 8, "entries": 16}

    @pytest.mark.parametrize("name", ["triangular-2x2", "perron-sde"])
    def test_zero_perturbation_equals_the_linear_kernel_bitwise(self, name):
        base = gallery(name)
        grid = TimeGrid.spanning(1.0, 2.0, 1e-2)
        xi0 = np.array([0.3, -0.7])
        pens = simulate_perturbed(_zero_perturbation(base), xi0, grid, paths=16, seed=42)
        _, linear = simulate_vectors(base, grid, 16, 42, xi0)
        assert np.array_equal(pens.values, linear)

    def test_kernel_steps_a_perturbed_system_only_as_vectors(self):
        grid = TimeGrid.spanning(0.0, 0.1, 1e-2)
        with pytest.raises(EngineError, match="perturbed system"):
            next(euler_maruyama(_cubic_clipped(), grid, 2, 0, [0, 10]))
        with pytest.raises(EngineError, match="perturbed system"):
            next(euler_maruyama(_cubic_clipped(), grid, 2, 0, [0, 10], x0=np.ones(1),
                                inverse=True))

    def test_initial_condition_validation(self):
        grid = TimeGrid.spanning(0.0, 0.1, 1e-2)
        with pytest.raises(PerturbError, match="components"):
            simulate_perturbed(_cubic_clipped(), np.array([1.0, 2.0]), grid, 2, 0)
        with pytest.raises(PerturbError, match="finite"):
            simulate_perturbed(_cubic_clipped(), np.array([np.inf]), grid, 2, 0)
        with pytest.raises(PerturbError, match="path"):
            simulate_perturbed(_cubic_clipped(), np.array([1.0]), grid, 0, 0)


class TestVocSolve:
    def test_zero_perturbation_exact_on_first_sweep(self):
        base = gallery("triangular-2x2")
        grid = TimeGrid.spanning(0.0, 1.0, 1e-3)
        ens = simulate_fundamental(base, grid, paths=4, seed=42)
        xi0 = np.array([0.3, -0.7])
        sol = voc_solve(_zero_perturbation(base), xi0, ens, path_index=3)
        assert sol.iterations == 1
        assert sol.delta == 0.0
        assert np.array_equal(sol.values, ens.phi[:, 3] @ xi0)

    def test_cross_engine_discrepancy_shrinks_with_dt(self):
        psys = _cubic_clipped()
        xi0 = np.array([0.01])
        discs = []
        for dt in (2e-3, 1e-3, 5e-4):
            grid = TimeGrid.spanning(0.0, 1.0, dt)
            ens = simulate_fundamental(psys.base, grid, paths=128, seed=11)
            sim = simulate_perturbed(psys, xi0, grid, paths=128, seed=11)
            per_path = [np.max(np.abs(voc_solve(psys, xi0, ens, path_index=j).values
                                      - sim.values[:, j]))
                        for j in range(128)]
            discs.append(float(np.mean(per_path)))
        assert discs[0] < 1e-7
        # Shared increments leave a strong-order-1/2 residual from the
        # coupled inverse, so the per-halving ratio sits between sqrt(2)
        # and 2 rather than at 2.
        assert 1.2 <= discs[0] / discs[1] <= 2.2
        assert 1.2 <= discs[1] / discs[2] <= 2.2

    def test_agreement_on_gallery_perturbed_system(self):
        pg = gallery("perron-sde-perturbed")
        xi0 = np.array([1.0, 0.0])
        means = []
        for dt in (1e-3, 2.5e-4):
            grid = TimeGrid.spanning(1e-4, 1.0, dt)
            ens = simulate_fundamental(pg.base, grid, paths=4, seed=17)
            sim = simulate_perturbed(pg, xi0, grid, paths=4, seed=17)
            diffs = [np.max(np.abs(voc_solve(pg, xi0, ens, path_index=j).values
                                   - sim.values[:, j]))
                     for j in range(4)]
            assert max(diffs) < 0.1
            means.append(float(np.mean(diffs)))
        assert means[1] < means[0] / 1.3

    def test_nonconvergence_reports_last_delta(self):
        big = PerturbedSde(gallery("gbm"),
                           PerturbationSpec.power_clipped(5.0, 3.0, 10.0),
                           PerturbationSpec.zero(), c=9.0, q=2.0)
        grid = TimeGrid.spanning(0.0, 1.0, 1e-3)
        ens = simulate_fundamental(big.base, grid, paths=2, seed=9)
        with pytest.raises(PerturbError, match="did not converge"):
            voc_solve(big, np.array([5.0]), ens)

    def test_ensemble_needs_increments_and_every_node(self):
        base = gallery("triangular-2x2")
        grid = TimeGrid.spanning(0.0, 0.5, 1e-2)
        psys, xi0 = _zero_perturbation(base), np.array([1.0, 0.0])
        drawn = fundamental_at(base, grid, 3, 0, np.arange(grid.count))
        with pytest.raises(PerturbError, match="keeps no increments"):
            voc_solve(psys, xi0, drawn)
        incr = brownian_batch(0, 3, grid.dt, grid.steps)
        some = replace(fundamental_at(base, grid, 3, 0, [0, 10, 50]), increments=incr)
        with pytest.raises(PerturbError, match="holds 3 of the grid's 51 nodes"):
            voc_solve(psys, xi0, some)
        whole = replace(drawn, increments=incr)
        assert voc_solve(psys, xi0, whole).iterations == 1

    def test_input_validation(self):
        grid = TimeGrid.spanning(0.0, 0.5, 1e-2)
        ens2 = simulate_fundamental(gallery("triangular-2x2"), grid,
                                    paths=3, seed=0)
        with pytest.raises(PerturbError, match="dimension"):
            voc_solve(_cubic_clipped(), np.array([1.0]), ens2)
        with pytest.raises(PerturbError, match="path index"):
            voc_solve(_zero_perturbation(gallery("triangular-2x2")),
                      np.array([1.0, 0.0]), ens2, path_index=3)


class TestStabilityExperiment:
    def test_contraction_with_cubic_perturbation_passes(self, cubic_stability):
        rep = cubic_stability
        assert rep.fit.alpha == pytest.approx(1.96, abs=1e-6)
        assert rep.envelope_margin < 0.0
        assert rep.spectral_margin < 0.0
        assert rep.hypothesis_ok
        assert rep.verdict == "PASS"
        assert rep.tail_slope <= -1.5
        assert rep.k_tilde > 0.0

    def test_paths_beyond_the_store_limit_are_refused_before_the_fit(self, monkeypatch):
        def no_ode(*args, **kwargs):
            raise AssertionError("integrated moments before the store check")
        monkeypatch.setattr(engines, "_moment_loop", no_ode)
        with pytest.raises(EngineError, match="the per-path state would take 4.47 GiB"):
            stability_experiment(gallery("perron-sde-perturbed"), 0.01, 5.0,
                                 paths=100_000_000, seed=0)

    def test_the_stability_run_makes_eight_passes_through_the_moment_loop(self, monkeypatch):
        # The positive control of the test above: a run within the limit
        # reaches the patched name. The fit makes six one-start passes, the
        # spectrum one over both probes, and the regularity estimate one over
        # the basis and its dual on the adjoint.
        passes = []
        loop = engines._moment_loop

        def counting(systems, p0, *args):
            passes.append(len(systems))
            return loop(systems, p0, *args)

        monkeypatch.setattr(engines, "_moment_loop", counting)
        stability_experiment(gallery("perron-sde-perturbed"), 0.01, 0.5, paths=4, seed=0)
        assert passes == [1] * 6 + [2, 4]

    def test_moment_curve_shape(self, cubic_stability):
        rep = cubic_stability
        assert rep.ts.shape == rep.moments.shape == rep.stderrs.shape
        assert np.all(rep.moments >= 0.0)
        assert rep.moments[0] == pytest.approx(1e-4, rel=1e-12)
        assert rep.escaped == 0 and cli._stability_to_dict(rep)["escaped"] == 0

    @pytest.mark.parametrize("chunk", [30, None])
    def test_moment_curve_blocks_equal_whole_reduction(self, monkeypatch, chunk):
        # _REDUCE_VALUES 30 holds the sums of 5 paths for 6 nodes at a time
        # (101 nodes: the last block has five).
        grid = TimeGrid.spanning(0.0, 1.0, 1e-2)
        pens = simulate_perturbed(_zero_perturbation(gallery("diag-2x2")),
                                  np.array([0.3, -0.7]), grid, paths=5, seed=3)
        m, sd = pairwise_mean_std(np.sum(pens.values ** 2, axis=2))
        if chunk is not None:
            monkeypatch.setattr(engines, "_REDUCE_VALUES", chunk)
        moments, stderrs = engines._mean_squares(np.moveaxis(pens.values, 1, -1), grid.count, 5)
        assert np.array_equal(moments, m)
        assert np.array_equal(stderrs, sd / math.sqrt(5))

    def test_zero_perturbation_k_tilde_near_fit_constant(self):
        base = LinearSde.from_strings(1, [["-1"]], [["0.2"]])
        rep = stability_experiment(_zero_perturbation(base), delta=0.01,
                                   horizon=8.0, paths=2000, seed=22)
        assert rep.verdict == "PASS"
        assert rep.k_tilde == pytest.approx(rep.fit.k * 1e-4, rel=0.2)

    def test_violated_hypothesis_still_runs(self):
        osc = LinearSde.from_strings(
            1, [["-a - b*(sin(log(t)) + cos(log(t)))"]], [["0"]],
            {"a": 1.05, "b": 1.0})
        psys = _cubic_clipped(osc)
        s2 = 4.810477380965351
        pairs = [(0.5, 0.5), (0.5, 25.5), (0.5, 50.5),
                 (s2, s2), (s2, s2 + 25.0), (s2, s2 + 50.0)]
        rep = stability_experiment(psys, delta=0.01, horizon=2.0, paths=32,
                                   seed=23, dt=1e-3, t0=0.5, fit_pairs=pairs,
                                   fit_dt=2e-2, alpha_max=2.0, beta_max=4.0)
        assert rep.envelope_margin >= 0.0
        assert not rep.hypothesis_ok
        assert rep.note == "hypothesis not satisfied; experiment still run"
        assert rep.verdict is None
        assert rep.moments.shape == rep.ts.shape

    def test_delta_must_be_positive(self):
        with pytest.raises(PerturbError, match="positive"):
            stability_experiment(_cubic_clipped(), delta=0.0, horizon=1.0,
                                 paths=10, seed=0)

    @pytest.mark.parametrize("delta, paths, match", [
        (math.nan, 10, "delta must be positive and finite"),
        (math.inf, 10, "delta must be positive and finite"),
        (-0.5, 10, "delta must be positive and finite"),
        (0.01, 0, "at least one path"),
    ])
    def test_inputs_rejected_before_the_fit(self, monkeypatch, delta, paths, match):
        def reached(*args, **kwargs):
            raise AssertionError("the fit ran before the inputs were checked")

        monkeypatch.setattr(perturb, "dichotomy_surface", reached)
        with pytest.raises(PerturbError, match=match):
            stability_experiment(_cubic_clipped(), delta=delta, horizon=1.0,
                                 paths=paths, seed=0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
    def test_horizon_rejected_before_any_pass(self, monkeypatch, horizon):
        def reached(*args, **kwargs):
            raise AssertionError("a pass ran before the horizon was checked")

        for name in ("dichotomy_surface", "fit_envelope", "spectrum", "regularity_estimate"):
            monkeypatch.setattr(perturb, name, reached)
        with pytest.raises(PerturbError, match="horizon must be positive and finite"):
            stability_experiment(_cubic_clipped(), delta=0.01, horizon=horizon,
                                 paths=10, seed=0)

    @pytest.mark.parametrize("chunk", [40, None])
    @pytest.mark.parametrize("psys, xi0", [(_cubic_clipped(), [0.5]),
                                           (gallery("perron-sde-perturbed"), [1.0, 0.0]),
                                           (_escaping(), [1.0])])
    def test_streamed_moments_equal_the_stored_reduction(self, monkeypatch, chunk, psys,
                                                         xi0):
        # 40-value blocks reduce 8 paths five nodes at a time.
        grid = TimeGrid.spanning(1e-3, 0.201, 1e-3)
        pens = simulate_perturbed(psys, np.array(xi0), grid, 8, 4)
        means, stderrs = engines._mean_squares(np.moveaxis(pens.values, 1, -1), grid.count, 8)
        if chunk is not None:
            monkeypatch.setattr(engines, "CHUNK_VALUES", chunk)
            monkeypatch.setattr(engines, "_REDUCE_VALUES", chunk)
        curve = mc_moment_curve(psys, grid, 8, 4, x0=np.array(xi0))
        assert np.array_equal(curve.values, means) and np.array_equal(curve.stderrs, stderrs)
        assert curve.escaped == pens.escaped

    def test_streamed_moments_memory_does_not_grow_with_the_horizon(self, monkeypatch):
        # 2^15-value blocks and 100 paths: about 0.5 MB of increment and sum
        # blocks. Kept nodes and increments would take 1.6 MB at 1000 steps
        # and 6.4 MB at 4000.
        monkeypatch.setattr(engines, "CHUNK_VALUES", 2 ** 15)
        monkeypatch.setattr(engines, "_REDUCE_VALUES", 2 ** 15)
        psys, xi0 = _cubic_clipped(), np.array([0.5])

        def peak(steps: int) -> int:
            tracemalloc.start()
            try:
                mc_moment_curve(psys, TimeGrid(1e-3, 1e-3, steps + 1), 100, 5, x0=xi0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)        # warm up
        assert peak(4000) <= 1.25 * peak(1000)

    def test_report_serializes(self, cubic_stability):
        payload = cli._stability_to_dict(cubic_stability)
        json.dumps(payload)
        assert payload["verdict"] == "PASS"


class TestPerronInstability:
    def test_growth_bound_matches_formula(self, perron_report):
        formula = (-2 * 1.05 + 2 * 1.0
                   + 2 * ((1.0 + 2) * 1.0 * math.cos(0.01) - 1.0 * 1.05)
                   * math.exp(0.01 - math.pi))
        assert perron_report.growth_bound == pytest.approx(formula, rel=1e-12)
        assert perron_report.growth_bound == pytest.approx(GROWTH_BOUND, rel=1e-12)
        assert perron_report.growth_bound == pytest.approx(0.070, abs=5e-4)

    def test_deterministic_subcase_grows(self, perron_report):
        assert perron_report.chi_deterministic == pytest.approx(CHI_DET, rel=1e-9)
        # The analytic bound is a lower bound on the limsup exponent; the
        # finite-t quadrature already clears it.
        assert perron_report.chi_deterministic > perron_report.growth_bound
        assert perron_report.t_star == pytest.approx(math.exp(math.pi / 2
                                                              + 2 * math.pi))

    def test_log_sum_exp_matches_scipy(self):
        # The quadrature's log-space sum, on the (1.05, 1, 1) integrand and on
        # random arrays whose exponentials would overflow or underflow.
        from scipy.special import logsumexp

        t_star = math.exp(math.pi / 2 + 2.0 * math.pi)
        tau = np.arange(1e-6, t_star, 0.05)
        integrand = -1.05 * tau - 3.0 * tau * np.sin(np.log(tau)) + math.log(0.05)
        rng = np.random.default_rng(7)
        for x in [integrand, *rng.uniform(-700.0, 700.0, (5, 1000)),
                  rng.uniform(-700.0, -600.0, 50), rng.uniform(600.0, 700.0, 50)]:
            want = float(logsumexp(x))
            assert perturb._log_sum_exp(x) == pytest.approx(want, rel=4e-16)

    def test_mc_leg_reports_estimate_with_stderr(self, perron_report):
        assert math.isfinite(perron_report.chi_mc)
        assert perron_report.chi_mc_stderr > 0.0
        assert perron_report.mc_horizon == 10.0

    def test_stable_unstable_dichotomy(self, cubic_stability, perron_report):
        # Same pipeline, opposite conclusions: the contraction experiment
        # decays while the oscillating example grows.
        assert cubic_stability.tail_slope < 0.0 < perron_report.chi_deterministic

    def test_parameter_window_validation(self):
        with pytest.raises(PerturbError, match="b < a"):
            perron_instability(1.0, 1.0, 1.0)
        with pytest.raises(PerturbError, match="2e\\^-pi"):
            perron_instability(2.0, 1.0, 1.0)
        with pytest.raises(PerturbError, match="lambda < 2b"):
            perron_instability(1.05, 1.0, 20.0)
        with pytest.raises(PerturbError, match="0 < b"):
            perron_instability(1.05, -1.0, 1.0)
        with pytest.raises(PerturbError, match="0 < lambda"):
            perron_instability(1.05, 1.0, -0.5)
        with pytest.raises(PerturbError, match="delta window"):
            perron_instability(1.05, 1.0, 1.0, delta_window=1.0)

    @pytest.mark.parametrize("horizon", [1e-4, 0.0, -1.0, math.nan, math.inf])
    def test_horizon_must_pass_the_start(self, monkeypatch, horizon):
        def reached(*args, **kwargs):
            raise AssertionError("the Monte Carlo run started before the horizon was checked")

        monkeypatch.setattr(perturb, "simulate_perturbed", reached)
        with pytest.raises(PerturbError, match="horizon must be finite and above the "
                                               "Monte Carlo start 0.0001"):
            perron_instability(1.05, 1.0, 1.0, horizon=horizon)

    def test_report_serializes(self, perron_report):
        payload = cli._perron_to_dict(perron_report)
        json.dumps(payload)
        assert payload["growth_bound"] == perron_report.growth_bound
        assert payload["lambda"] == perron_report.lam and "lam" not in payload
