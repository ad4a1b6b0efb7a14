"""Output checks for the benchmark, computed apart from the msd package.

Every reference here comes from a closed form or from a quadrature written
in this file; nothing imports msd. Each check takes the text an operation
produced (CLI stdout, or the JSON rendering of a library report) plus the
operation's parameters, and raises :class:`CheckError` naming the first
violation. Tolerances are fixed from the numerical method's own error
order so that a check holds for every seed:

* RK4 moment curves: relative error within 1e-5 (about 1.4e-6 is seen at
  dt 1e-3 on perron-sde).
* Monte Carlo means: ``MC_SIGMAS`` standard errors plus the exact
  Euler-Maruyama weak bias of the diagonal system (Kloeden & Platen 1992,
  O(dt)), which for a diagonal linear system is a product over the steps.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# Gallery parameters the checks assume (msd.model.gallery defaults).
PERRON = {"a": 1.05, "b": 1.0, "lam": 1.0}
DIAG = {"a1": -1.0, "a2": -2.0, "g1": 0.2, "g2": 0.3}
TRIANGULAR_NOISE = 0.5          # triangular-2x2: G = 0.5 Id, A = [[-1, 1], [0, -2]]

MC_SIGMAS = 6.0
RK4_RTOL = 1e-5


class CheckError(AssertionError):
    """An output failed its check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def parse_curve_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    require(len(rows) >= 2 and rows[0] == ["t", "value", "stderr"],
            "moment CSV needs a t,value,stderr header and at least one row")
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    require(data.shape[1] == 3, "moment CSV rows need three columns")
    return data[:, 0], data[:, 1], data[:, 2]


# ---------------------------------------------------------------------------
# Closed forms


def osc_integral(t0, t):
    """Integral of sin(log tau) + cos(log tau) over [t0, t]: tau sin(log tau)."""
    return t * np.sin(np.log(t)) - t0 * np.sin(np.log(t0))


def perron_sde_coefficients(t):
    """Diagonal drifts and (constant) noises of perron-sde at times t."""
    a, b, lam = PERRON["a"], PERRON["b"], PERRON["lam"]
    osc = np.sin(np.log(t)) + np.cos(np.log(t))
    return (-a - b * osc, -a + b * osc), (1.0 / (lam + 1.0), 1.0)


def perron_sde_moment(ts, t0):
    """E||Phi(t)||_F^2 with Phi(t0) = Id: sum_i exp(int 2 a_ii + g_ii^2)."""
    a, b, lam = PERRON["a"], PERRON["b"], PERRON["lam"]
    span = ts - t0
    osc = osc_integral(t0, ts)
    g1 = 1.0 / (lam + 1.0)
    return (np.exp(-2.0 * a * span - 2.0 * b * osc + g1 * g1 * span)
            + np.exp(-2.0 * a * span + 2.0 * b * osc + span))


def perron_sde_em_moment(ts):
    """Exact Euler-Maruyama second moment on the grid ts (left-point drift).

    For one diagonal entry, E x_{k+1}^2 = E x_k^2 ((1 + a_k h)^2 + g^2 h).
    """
    h = np.diff(ts)
    (a1, a2), (g1, g2) = perron_sde_coefficients(ts[:-1])
    out = np.zeros(len(ts))
    for a_k, g in ((a1, g1), (a2, g2)):
        logs = np.log((1.0 + a_k * h) ** 2 + g * g * h)
        out += np.exp(np.concatenate([[0.0], np.cumsum(logs)]))
    return out


def perron_regularity_bracket(t0: float, horizon: float) -> tuple[float, float]:
    """Bracket of the ODE-route regularity estimate on perron-sde.

    chi(e_i) is the max over tail checkpoints t in [H/2, H] of
    (1/t) int_{t0}^t (2 a_ii + g_ii^2); the adjoint flips the drift to
    -a_ii + g_ii^2 and gives (1/t) int (-2 a_ii + 3 g_ii^2). The upper end
    is the supremum over the whole window; the lower end allows the first
    checkpoint to sit one log-step (at most 0.06, that is 128 log-spaced
    points over three decades) inside the window. H itself is always a
    checkpoint.
    """
    a, b, lam = PERRON["a"], PERRON["b"], PERRON["lam"]

    def best(lo):
        t = np.linspace(lo, horizon, 200_001)
        span = t - t0
        osc = osc_integral(t0, t)
        gammas = []
        for sign, g in ((-1.0, 1.0 / (lam + 1.0)), (1.0, 1.0)):
            drift = -2.0 * a * span + sign * 2.0 * b * osc
            chi = np.max((drift + g * g * span) / t)
            chi_adj = np.max((-drift + 3.0 * g * g * span) / t)
            gammas.append(chi + chi_adj)
        return max(gammas)

    return best(horizon / 2.0 * math.exp(0.06)), best(horizon / 2.0)


def triangular_surface(s, t):
    """E||Phi(t) P Phi(s)^-1||_F^2 on triangular-2x2 with P = diag(1, 0).

    G = c Id commutes with A, so the noise contributes the scalar factor
    exp(c^2 (t - s)) and e^{At} P e^{-As} = e^{-(t-s)} [[1, 1 - e^s], [0, 0]].
    """
    c2 = TRIANGULAR_NOISE ** 2
    gap = t - s
    return np.exp((c2 - 2.0) * gap) * (1.0 + (np.exp(s) - 1.0) ** 2)


def triangular_rel_sd(gap):
    """Relative standard deviation of one path's sample of the surface."""
    return np.sqrt(np.expm1(2.0 * TRIANGULAR_NOISE ** 2 * gap))


def perron_chi_deterministic(a: float, b: float, lam: float) -> float:
    """Exponent of the deterministic perron sub-case by Gauss-Legendre.

    2/t* (log Phi22(t*) + log int_0^t* exp(-lam a tau - (lam+2) b tau sin log tau)),
    t* = e^{pi/2 + 2 pi}; 24-point panels of unit width, summed in log space.
    """
    t_star = math.exp(math.pi / 2.0 + 2.0 * math.pi)
    x, w = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(0.0, t_star, int(t_star) + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    tau = (0.5 * (hi - lo) * x + 0.5 * (hi + lo)).ravel()
    weights = (0.5 * (hi - lo) * w).ravel()
    expo = tau * (-lam * a - (lam + 2.0) * b * np.sin(np.log(tau)))
    top = float(np.max(expo))
    log_integral = top + math.log(float(np.sum(weights * np.exp(expo - top))))
    log_phi22 = (-a + b * math.sin(math.log(t_star))) * t_star
    return 2.0 * (log_phi22 + log_integral) / t_star


def em_exponent(a: float, g: float, dt: float) -> float:
    """Second-moment exponent of Euler-Maruyama for dx = a x dt + g x dw."""
    return math.log((1.0 + a * dt) ** 2 + g * g * dt) / dt


# ---------------------------------------------------------------------------
# Checks, one per operation kind


def check_selftest(text: str, p: dict) -> None:
    out = parse_json(text)
    require(out.get("seed") == p["seed"], f"selftest echoed seed {out.get('seed')}")
    require(out.get("status") == "ok", f"selftest status {out.get('status')!r}")
    checks = out.get("checks", [])
    require(len(checks) == 10, f"selftest ran {len(checks)} checks, expected 10")
    for c in checks:
        require(c["pass"] and c["value"] <= c["bound"],
                f"selftest check {c['name']}: {c['value']} > {c['bound']}")


def check_fit_ode(text: str, p: dict) -> None:
    """The README quick-start fit on perron-ode (rank 1), on its pairs in p.

    The surface is exp(2 int_s^t a_11) = exp(-2a(t-s) - 2b osc(s, t));
    every pair must lie under the envelope and one pair must touch it.
    """
    out = parse_json(text)
    a, b = PERRON["a"], PERRON["b"]
    s = np.repeat(np.asarray(p["s_values"], dtype=float), len(p["deltas"]))
    gap = np.tile(np.asarray(p["deltas"], dtype=float), len(p["s_values"]))
    t = s + gap
    values = np.exp(-2.0 * a * gap - 2.0 * b * osc_integral(s, t))
    fit = out["fit"]
    require(out["pairs"] == len(s), f"fit used {out['pairs']} pairs, expected {len(s)}")
    require(fit["rank"] == 1 and fit["residual_max"] <= 1.0 + 1e-9,
            f"fit rank {fit['rank']} residual {fit['residual_max']}")
    ratios = values / (fit["K"] * np.exp(-fit["alpha"] * gap + fit["beta"] * s))
    tol = 1e-3   # RK4 at dt 2e-2 over gaps of 100
    require(np.max(ratios) <= 1.0 + tol,
            f"a surface point lies above the envelope (ratio {np.max(ratios):.6g})")
    require(np.max(ratios) >= 1.0 - tol,
            f"the envelope touches no surface point (max ratio {np.max(ratios):.6g})")
    wit = out["witness"]
    require(wit["flag"] == "nonuniform" and wit["ratio"] > 1e3,
            f"witness {wit['flag']} with ratio {wit['ratio']}")
    k_u = [np.max(values[s == sv] * np.exp(fit["alpha"] * gap[s == sv]))
           for sv in p["s_values"]]
    rel = np.abs(np.asarray(wit["k_u"]) / np.asarray(k_u) - 1.0)
    require(np.max(rel) <= tol, f"witness K_u off the closed form by {np.max(rel):.3g}")


def check_regularity(text: str, p: dict) -> None:
    out = parse_json(text)
    a, b = PERRON["a"], PERRON["b"]
    bounds = out["bounds"]
    require(abs(bounds["lower"]) <= 1e-12,
            f"lower bound {bounds['lower']} on perron-sde, expected 0")
    require(abs(bounds["upper"] - 8.0 * b) <= 0.01,
            f"upper bound {bounds['upper']} on perron-sde, expected 8b = {8.0 * b}")
    for row in bounds["rows"]:
        require(abs(row["alpha_bar"] - (-a + b)) <= 5e-3
                and abs(row["alpha_under"] - (-a - b)) <= 5e-3,
                f"row averages {row} off -a +- b")
    lo, hi = perron_regularity_bracket(p["t_start"], p["horizon"])
    gamma = out["regularity"]["gamma_upper_estimate"]
    require(lo - 1e-6 <= gamma <= hi + 1e-6,
            f"regularity estimate {gamma} outside the closed-form bracket [{lo}, {hi}]")


def _diag_exponents(dt: float | None) -> tuple[list[float], list[float]]:
    """Closed-form exponents 2a + g^2, and the Euler-Maruyama ones at dt."""
    pairs = ((DIAG["a2"], DIAG["g2"]), (DIAG["a1"], DIAG["g1"]))
    exact = [2.0 * a + g * g for a, g in pairs]
    em = exact if dt is None else [em_exponent(a, g, dt) for a, g in pairs]
    return exact, em


def check_lyapunov_ode(text: str, p: dict) -> None:
    out = parse_json(text)
    spec = out["spectrum"]
    exact, _ = _diag_exponents(None)
    require(spec["multiplicities"] == [1, 1] and spec["split_index"] == 2,
            f"diag-2x2 spectrum shape {spec['multiplicities']}, split {spec['split_index']}")
    err = max(abs(v - e) for v, e in zip(spec["values"], exact))
    require(err <= 1e-6, f"diag-2x2 exponents {spec['values']} off {exact} by {err:.3g}")


def check_lyapunov_mc(text: str, p: dict) -> None:
    """Monte Carlo exponents: closed form within the EM bias plus sampling.

    The estimate is the max over checkpoints t in [H/2, H] of
    (1/t) log(mean u^2). One path's u^2 has relative spread
    sqrt(exp(4 g^2 t) - 1), largest at t = H; MC_SIGMAS standard errors of
    the mean, taken through the log and divided by t >= H/2, bound the
    sampling error of the exponent.
    """
    out = parse_json(text)
    spec = out["spectrum"]
    exact, em = _diag_exponents(p["dt"])
    require(len(spec["values"]) == 2 and spec["split_index"] == 2,
            f"diag-2x2 Monte Carlo spectrum {spec['values']}")
    for v, e, m, g in zip(spec["values"], exact, em, (DIAG["g2"], DIAG["g1"])):
        rel = MC_SIGMAS * math.sqrt(math.expm1(4.0 * g * g * p["horizon"]) / p["paths"])
        require(rel < 0.9, f"{p['paths']} paths are too few to check the exponent")
        allowed = abs(m - e) - math.log1p(-rel) / (p["horizon"] / 2.0)
        require(abs(v - e) <= allowed,
                f"Monte Carlo exponent {v} off {e} by more than {allowed:.3g} "
                f"(EM bias {m - e:.3g})")


def check_moments_ode(text: str, p: dict) -> None:
    ts, values, errs = parse_curve_csv(text)
    require(abs(ts[0] - p["t0"]) <= 1e-12 and abs(ts[-1] - p["t1"]) <= 1e-9,
            f"curve spans [{ts[0]}, {ts[-1]}], expected [{p['t0']}, {p['t1']}]")
    require(np.all(errs == 0.0), "ODE curve reports a nonzero stderr")
    exact = perron_sde_moment(ts, p["t0"])
    rel = np.abs(values / exact - 1.0)
    worst = int(np.argmax(rel))
    require(rel[worst] <= RK4_RTOL,
            f"moment at t={ts[worst]} off the closed form by {rel[worst]:.3g}")


def check_moments_mc(text: str, p: dict) -> None:
    ts, values, errs = parse_curve_csv(text)
    require(len(ts) >= 2 and abs(ts[0] - p["t0"]) <= 1e-12,
            f"curve starts at {ts[0]}, expected {p['t0']}")
    exact = perron_sde_moment(ts, p["t0"])
    bias = np.abs(perron_sde_em_moment(ts) - exact)
    dev = np.abs(values - exact)
    allowed = MC_SIGMAS * errs + bias + 1e-12 * exact
    worst = int(np.argmax(dev - allowed))
    require(dev[worst] <= allowed[worst],
            f"Monte Carlo moment at t={ts[worst]} is {values[worst]}, closed form "
            f"{exact[worst]}, stderr {errs[worst]}, EM bias {bias[worst]:.3g}")


def check_fit_mc(text: str, p: dict) -> None:
    """Monte Carlo fit on triangular-2x2 with the rank-1 projector.

    The fitted envelope must cover the closed-form surface up to
    MC_SIGMAS relative standard errors of each point plus 2 % for the
    Euler-Maruyama bias, and the witness constants must match.
    """
    out = parse_json(text)
    s = np.repeat(np.asarray(p["s_values"], dtype=float), len(p["deltas"]))
    gap = np.tile(np.asarray(p["deltas"], dtype=float), len(p["s_values"]))
    values = triangular_surface(s, s + gap)
    tol = MC_SIGMAS * triangular_rel_sd(gap) / math.sqrt(p["paths"]) + 0.02
    fit = out["fit"]
    require(out["pairs"] == len(s) and fit["rank"] == 1
            and fit["residual_max"] <= 1.0 + 1e-9,
            f"fit pairs {out['pairs']}, rank {fit['rank']}, residual {fit['residual_max']}")
    ratios = values / (fit["K"] * np.exp(-fit["alpha"] * gap + fit["beta"] * s))
    require(np.all(ratios <= 1.0 + tol),
            f"a closed-form point lies above the envelope (ratio {np.max(ratios):.6g})")
    wit = out["witness"]
    for sv, k_u in zip(p["s_values"], wit["k_u"]):
        row = s == sv
        ref = np.max(values[row] * np.exp(wit["alpha"] * gap[row]))
        require(abs(k_u / ref - 1.0) <= np.max(tol[row]),
                f"witness K_u({sv}) = {k_u}, closed form {ref}")
    require((wit["flag"] == "nonuniform") == (wit["ratio"] > 1e3),
            f"witness flag {wit['flag']} disagrees with ratio {wit['ratio']}")


def check_triangularize(text: str, p: dict) -> None:
    out = parse_json(text)
    steps = math.ceil((p["t1"] - p["t0"]) / p["dt"] - 1e-12)
    require(out["nodes"] == steps + 1 and out["paths"] == p["paths"],
            f"triangularized {out['nodes']} nodes x {out['paths']} paths, "
            f"expected {steps + 1} x {p['paths']}")
    require(out["max_orthogonality_defect"] <= 1e-12,
            f"orthogonality defect {out['max_orthogonality_defect']}")
    require(out["max_lower_magnitude"] == 0.0,
            f"X has a nonzero entry below the diagonal ({out['max_lower_magnitude']})")
    require(out["max_reconstruction_error"] <= 1e-12,
            f"reconstruction error {out['max_reconstruction_error']}")
    for name, gap in out["invariance"].items():
        require(gap <= 1e-12, f"norm invariance {name} = {gap}")


def check_decoupling(text: str, p: dict) -> None:
    out = parse_json(text)
    require(out["nodes"] == p["nodes"] and out["paths"] == p["paths"],
            f"decoupled {out['nodes']} nodes x {out['paths']} paths")
    require(out["max_commutator"] == 0.0, f"commutator {out['max_commutator']}, expected 0")
    require(out["max_s_norm_sq"] <= 2.0, f"||S||^2 = {out['max_s_norm_sq']} above 2")
    require(out["mean_s_norm_sq"] <= out["max_s_norm_sq"],
            "mean ||S||^2 above its maximum")
    require(out["max_projection_gap"] <= 1e-8,
            f"projection gap {out['max_projection_gap']}")
    require(out["max_inverse_excess"] <= 1e-8,
            f"||S^-1||^2 exceeds its projector bound by {out['max_inverse_excess']}")


def check_stability(text: str, p: dict) -> None:
    out = parse_json(text)
    require(out["hypothesis_ok"] is True and out["envelope_margin"] < 0.0,
            f"hypothesis {out['hypothesis_ok']}, margin {out['envelope_margin']}")
    require(out["verdict"] == "PASS", f"stability verdict {out['verdict']!r}")
    # perron-sde-perturbed declares q = max(1.5, lambda).
    require(out["q"] == max(1.5, PERRON["lam"]), f"declared q {out['q']}")
    require(out["k_tilde"] > 0.0, f"k_tilde {out['k_tilde']}")


def check_condition(text: str, p: dict) -> None:
    out = parse_json(text)
    require(out["consistent"] is True and out["violations"] == [],
            f"falsifier found {len(out['violations'])} violations")
    require(0.0 < out["max_ratio"] <= 1.0, f"max_ratio {out['max_ratio']}")
    require(out["trials"] == p["trials"], f"ran {out['trials']} trials")


def check_perron(text: str, p: dict) -> None:
    out = parse_json(text)
    ref = perron_chi_deterministic(p["a"], p["b"], p["lam"])
    chi = out["chi_deterministic"]
    require(abs(chi - ref) <= 1e-7,
            f"chi_deterministic {chi}, Gauss-Legendre gives {ref}")
    require(chi >= out["growth_bound"],
            f"chi_deterministic {chi} below growth_bound {out['growth_bound']}")
    require(abs(out["t_star"] - math.exp(math.pi / 2.0 + 2.0 * math.pi)) <= 1e-9,
            f"t_star {out['t_star']}")
    require(math.isfinite(out["chi_mc"]) and out["chi_mc_stderr"] > 0.0,
            f"chi_mc {out['chi_mc']} +- {out['chi_mc_stderr']}")
