"""Command line front end, one subcommand per analysis pipeline.

Every run is a pure function of its argv: all randomness sits behind
``--seed``, the worker cap (``--threads``, or the ``MSD_THREADS``
environment variable) never changes results, and JSON is emitted with
sorted keys, so identical invocations produce byte-identical output.

Exit codes: 0 on success, 1 for validation problems (bad flags, bad
system files, parameter windows violated), 2 for numeric failures
(explosions, diverging integrations, lost rank, iterations that ran out of
budget). Errors are reported as a single ``error: <kind>: <message>`` line
on stderr; the class of an error picks its kind, numeric for a
:class:`~msd.numerics.NumericFailure` and validation for any other
:class:`~msd.numerics.MsdError`.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .bounds import (
    bounds_report,
    lower_bound,
    triangularize_paths,
    unitary_invariance_check,
)
from .dichotomy import (
    DichotomyFit,
    dichotomy_surface,
    fit_envelope,
    pair_grid,
    predicted_exponent,
    uniform_witness,
)
from .engines import (
    MomentCurve,
    MomentSurface,
    TimeGrid,
    mc_moment_curve,
    moment_ode,
    simulate_fundamental,
)
from .lyapunov import (
    chi_estimate,
    duality_defect,
    regularity_estimate,
    spectrum,
)
from .model import (
    GALLERY_NAMES,
    LinearSde,
    PerturbationSpec,
    PerturbedSde,
    from_dict,
    gallery,
    make_projector,
    to_dict,
)
from .numerics import MsdError, NumericFailure
from .perturb import (
    PerronReport,
    StabilityReport,
    check_condition_42,
    perron_instability,
    stability_experiment,
    voc_solve,
)

__all__ = ["build_parser", "dispatch", "main"]


class CliError(MsdError):
    """Flag combination that argparse alone cannot reject."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CliError(message)


class _UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """Argparse parser whose errors map to exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(message, self.format_usage())


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("common options")
    group.add_argument("--seed", type=int, default=0,
                       help="master RNG seed; all randomness derives from it (default 0)")
    group.add_argument("--threads", type=_positive_int, default=None,
                       help="worker cap, default MSD_THREADS or 1; results never depend on it")
    group.add_argument("--output", metavar="PATH", default=None,
                       help="write results to PATH instead of stdout")
    return common


_START_HELP = ("start time (default 0); the log-time gallery systems perron-ode, "
               "perron-sde and perron-sde-perturbed need a positive start, e.g. 0.001")


def _add_system_flag(parser, note: str = "") -> None:
    parser.add_argument("--system", required=True, metavar="NAME_OR_FILE",
                        help="gallery name (see `msd example list`) or path to a "
                             "system JSON file in the `example show` format" + note)


def build_parser() -> _Parser:
    parser = _Parser(prog="msd",
                     description="Mean-square dichotomy analysis for linear "
                                 "stochastic differential equations.")
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND", required=True)

    p = sub.add_parser("example", parents=[common],
                       help="list the built-in systems or show one as JSON")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("--system", metavar="NAME", help="gallery name (for show)")

    p = sub.add_parser("moments", parents=[common],
                       help="second-moment curve E||Phi(t)||_F^2 of the fundamental matrix")
    _add_system_flag(p)
    p.add_argument("--t0", type=float, default=0.0, help=_START_HELP)
    p.add_argument("--t1", type=float, required=True, help="end time")
    p.add_argument("--dt", type=float, default=1e-3, help="step size (default 1e-3)")
    p.add_argument("--method", choices=("ode", "mc"), default="ode",
                   help="exact moment ODE or Monte Carlo with stderr column (default ode)")
    p.add_argument("--paths", type=_positive_int, default=10_000,
                   help="Monte Carlo sample paths (default 10000)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")

    p = sub.add_parser("lyapunov", parents=[common],
                       help="mean-square Lyapunov spectrum, optionally one vector's exponent")
    _add_system_flag(p)
    p.add_argument("--horizon", type=float, default=50.0,
                   help="estimation horizon (default 50)")
    p.add_argument("--method", choices=("ode", "mc"), default="ode")
    p.add_argument("--dt", type=float, default=1e-2, help="step size (default 1e-2)")
    p.add_argument("--paths", type=_positive_int, default=10_000)
    p.add_argument("--trials", type=int, default=None,
                   help="probe vectors for the spectrum (default: system dimension)")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="clustering tolerance for distinct exponents (default 0.05)")
    p.add_argument("--t-start", type=float, default=0.0, help=_START_HELP)
    p.add_argument("--vector", type=_csv_floats, default=None, metavar="X1,X2,...",
                   help="also report this initial vector's exponent")
    p.add_argument("--epsilon", type=float, default=None,
                   help="also forecast the envelope rate chi +- epsilon")

    p = sub.add_parser("regularity", parents=[common],
                       help="regularity coefficient estimate plus integral exponent bounds")
    _add_system_flag(p)
    p.add_argument("--horizon", type=float, default=50.0,
                   help="exponent estimation horizon (default 50)")
    p.add_argument("--method", choices=("ode", "mc"), default="ode")
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--paths", type=_positive_int, default=10_000)
    p.add_argument("--t-start", type=float, default=0.0, help=_START_HELP)
    p.add_argument("--bound-horizon", type=float, default=1e4,
                   help="averaging horizon for the coefficient bounds (default 1e4)")

    p = sub.add_parser("fit", parents=[common],
                       help="sample a dichotomy surface and fit K e^{-alpha(t-s)+beta s}")
    _add_system_flag(p)
    p.add_argument("--s-values", type=_csv_floats, required=True, metavar="S1,S2,...",
                   help="starting times of the surface rows")
    p.add_argument("--deltas", type=_csv_floats, required=True, metavar="D1,D2,...",
                   help="gaps t-s sampled from each starting time")
    p.add_argument("--sense", choices=("stable", "unstable"), default="stable")
    p.add_argument("--rank", type=int, default=None,
                   help="leading-block projector rank (default: no projector)")
    p.add_argument("--method", choices=("auto", "ode", "mc"), default="auto")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--paths", type=_positive_int, default=1000)
    p.add_argument("--alpha-max", type=float, default=None,
                   help="cap of the decay-rate lattice (default: data-driven)")
    p.add_argument("--beta-max", type=float, default=None,
                   help="cap of the nonuniformity lattice (default: data-driven)")
    p.add_argument("--lattice", type=int, default=200,
                   help="lattice points per parameter axis (default 200)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="json: the fitted envelope (default); csv: the sampled surface")

    p = sub.add_parser("triangularize", parents=[common],
                       help="QR-triangularize a simulated flow and check norm invariance")
    _add_system_flag(p)
    p.add_argument("--t0", type=float, default=0.0, help=_START_HELP)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--paths", type=_positive_int, default=4)

    p = sub.add_parser("perturb", parents=[common],
                       help="falsify the smallness condition or run a stability experiment")
    _add_system_flag(p, note="; a linear system takes f(u) = u min(||u||, 1)^2, h = 0, "
                             "c = 9, q = 2, and a perturbed one carries its own")
    p.add_argument("--mode", choices=("condition", "stability"), required=True)
    p.add_argument("--scale", type=float,
                   help="sampler scale (condition mode, required)")
    p.add_argument("--trials", type=int,
                   help="falsifier trials (condition mode, default 1000)")
    p.add_argument("--samples", type=int,
                   help="Monte Carlo samples per falsifier trial (condition mode, default 8192)")
    p.add_argument("--delta", type=float,
                   help="initial condition size (stability mode, default 0.01)")
    p.add_argument("--horizon", type=float,
                   help="simulation horizon (stability mode, default 10)")
    p.add_argument("--paths", type=_positive_int,
                   help="sample paths (stability mode, default 2000)")
    p.add_argument("--dt", type=float, help="step size (stability mode, default 1e-3)")

    p = sub.add_parser("perron", parents=[common],
                       help="instability pipeline for the oscillating two-block example")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--delta-window", type=float, default=0.01,
                   help="margin inside the parameter window (default 0.01)")
    p.add_argument("--horizon", type=float, default=10.0,
                   help="Monte Carlo horizon (default 10)")
    p.add_argument("--paths", type=_positive_int, default=400)
    p.add_argument("--dt", type=float, default=5e-3)

    sub.add_parser("selftest", parents=[common],
                   help="run the built-in acceptance battery (exit 2 if any check fails)")

    return parser


# ---------------------------------------------------------------------------
# System loading and serialization

def _load_system(spec: str):
    if spec in GALLERY_NAMES:
        return gallery(spec)
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except UnicodeDecodeError as exc:
                raise CliError(f"system file is not UTF-8 text: {exc}") from None
        return from_dict(data)
    raise CliError(f"unknown system '{spec}': not a gallery name "
                   f"({', '.join(GALLERY_NAMES)}) and not a readable file")


def _base_of(system) -> LinearSde:
    return system.base if isinstance(system, PerturbedSde) else system


# ---------------------------------------------------------------------------
# Report writers: the library returns dataclasses, and only these turn them
# into output. A report whose fields are its payload goes through asdict;
# one that is cut down or renamed is written out here.

def _stderrs(report: MomentCurve | MomentSurface) -> np.ndarray:
    return report.stderrs if report.stderrs is not None else np.zeros_like(report.values)


def _to_csv(report: MomentCurve | MomentSurface) -> str:
    """One row per sample, each number to 17 significant digits: t, then s
    for a surface, then value and stderr."""
    columns = {"t": report.ts}
    if isinstance(report, MomentSurface):
        columns["s"] = report.ss
    columns["value"] = report.values
    columns["stderr"] = _stderrs(report)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    # Rows go into one buffer; a list of row strings would add about twice
    # the size of the text.
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for values in zip(*columns.values()):
        out.write(row % values)
    return out.getvalue()


def _curve_to_records(curve: MomentCurve) -> list[dict]:
    return [
        {"t": float(t), "value": float(v), "stderr": float(e)}
        for t, v, e in zip(curve.ts, curve.values, _stderrs(curve))
    ]


def _fit_to_dict(fit: DichotomyFit) -> dict:
    return {
        "rank": fit.rank,
        "K": fit.k,
        "alpha": fit.alpha,
        "beta": fit.beta,
        "residual_max": fit.residual_max,
        "tight_points": [[s, t] for s, t in fit.tight_points],
        "uniform": fit.uniform,
    }


def _stability_to_dict(rep: StabilityReport) -> dict:
    return {"fit": _fit_to_dict(rep.fit), "q": rep.q,
            "envelope_margin": rep.envelope_margin,
            "spectral_margin": rep.spectral_margin,
            "hypothesis_ok": rep.hypothesis_ok, "note": rep.note,
            "k_tilde": rep.k_tilde, "tail_slope": rep.tail_slope,
            "verdict": rep.verdict, "escaped": rep.escaped}


def _perron_to_dict(rep: PerronReport) -> dict:
    payload = asdict(rep)
    payload["lambda"] = payload.pop("lam")
    return payload


def _json_default(value):
    """The JSON form of a NumPy array in a payload: a list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns its report, a dict written as JSON or
# CSV text written as it is.

def _cmd_example(args):
    if args.action == "list":
        return {"systems": list(GALLERY_NAMES)}
    if not args.system:
        raise CliError("`example show` needs --system")
    return to_dict(_load_system(args.system))


def _cmd_moments(args):
    _require(args.dt > 0.0, "--dt must be positive")
    _require(args.t1 > args.t0, "--t1 must exceed --t0")
    system = _base_of(_load_system(args.system))
    if args.method == "ode":
        curve, _ = moment_ode(system, np.eye(system.dim), args.t0, args.t1, args.dt)
    else:
        grid = TimeGrid.spanning(args.t0, args.t1, args.dt)
        curve = mc_moment_curve(system, grid, args.paths, args.seed)
    if args.format == "csv":
        return _to_csv(curve)
    return {"system": args.system, "method": args.method,
            "points": _curve_to_records(curve)}


def _cmd_lyapunov(args):
    _require(args.dt > 0.0, "--dt must be positive")
    system = _base_of(_load_system(args.system))
    trials = args.trials if args.trials is not None else system.dim
    est = spectrum(system, args.horizon, trials, method=args.method, dt=args.dt,
                   paths=args.paths, seed=args.seed, t_start=args.t_start,
                   tolerance=args.tolerance)
    payload = {
        "system": args.system,
        "horizon": args.horizon,
        "method": args.method,
        "spectrum": asdict(est),
    }
    if args.vector is not None:
        chi = chi_estimate(system, np.asarray(args.vector), args.horizon,
                           method=args.method, dt=args.dt, paths=args.paths,
                           seed=args.seed, t_start=args.t_start)
        payload["chi"] = {
            "vector": [float(x) for x in args.vector],
            "chi": chi.chi,
            "stderr": chi.stderr,
            "window": [float(chi.window[0]), float(chi.window[1])],
        }
    if args.epsilon is not None:
        payload["predicted"] = asdict(predicted_exponent(est, args.epsilon))
    return payload


def _cmd_regularity(args):
    _require(args.dt > 0.0, "--dt must be positive")
    system = _base_of(_load_system(args.system))
    eye = np.eye(system.dim)
    reg = regularity_estimate(system, [(eye, eye)], args.horizon,
                              method=args.method, dt=args.dt, paths=args.paths,
                              seed=args.seed, t_start=args.t_start)
    return {
        "system": args.system,
        "horizon": args.horizon,
        "method": args.method,
        "regularity": {
            "gamma_upper_estimate": reg.gamma_upper_estimate,
            "kind": "upper",
            "per_pair_max": [float(v) for v in reg.per_pair_max],
        },
        "bounds": bounds_report(system, args.bound_horizon),
    }


def _cmd_fit(args):
    _require(args.dt > 0.0, "--dt must be positive")
    system = _base_of(_load_system(args.system))
    pairs = pair_grid(args.s_values, args.deltas, args.sense)
    projector = make_projector(system.dim, args.rank) if args.rank is not None else None
    surface = dichotomy_surface(system, projector, pairs, method=args.method,
                                dt=args.dt, paths=args.paths, seed=args.seed)
    if args.format == "csv":
        return _to_csv(surface)
    fit = fit_envelope(surface, rank=args.rank, alpha_max=args.alpha_max,
                       beta_max=args.beta_max, lattice=args.lattice)
    witness = None
    if np.unique(np.asarray(surface.ss)).size >= 2:
        witness = asdict(uniform_witness(surface, fit))
    return {
        "system": args.system,
        "sense": args.sense,
        "pairs": len(pairs),
        "fit": _fit_to_dict(fit),
        "witness": witness,
    }


def _cmd_triangularize(args):
    system = _base_of(_load_system(args.system))
    grid = TimeGrid.spanning(args.t0, args.t1, args.dt)
    ens = simulate_fundamental(system, grid, args.paths, args.seed)
    result = triangularize_paths(ens)
    invariance = unitary_invariance_check(ens, result)
    return {
        "system": args.system,
        "nodes": invariance.nodes,
        "paths": ens.paths,
        "max_orthogonality_defect": result.max_orthogonality_defect,
        "max_lower_magnitude": result.max_lower_magnitude,
        "max_reconstruction_error": result.max_reconstruction_error,
        "invariance": {
            "max_column_norm_gap": invariance.max_column_norm_gap,
            "max_rotated_norm_gap": invariance.max_rotated_norm_gap,
            "max_trace_gap": invariance.max_trace_gap,
        },
    }


def _default_perturbation(base: LinearSde) -> PerturbedSde:
    """``base`` with the map a linear system takes in ``perturb`` and in the
    selftest: f(u) = u min(||u||, 1)^2, h = 0, declared c = 9 and q = 2."""
    return PerturbedSde(base, PerturbationSpec.power_clipped(1.0, 3.0, 1.0),
                        PerturbationSpec.zero(), c=9.0, q=2.0)


# The flags of each perturb mode, with the value each takes when not given.
_MODE_FLAGS = {
    "condition": {"scale": None, "trials": 1000, "samples": 8192},
    "stability": {"delta": 0.01, "horizon": 10.0, "paths": 2000, "dt": 1e-3},
}


def _cmd_perturb(args):
    for mode, flags in _MODE_FLAGS.items():
        for name, default in flags.items():
            # A flag of the other mode would go unread.
            _require(mode == args.mode or getattr(args, name) is None,
                     f"--{name} is a flag of --mode {mode}, not of --mode {args.mode}")
            if getattr(args, name) is None:
                setattr(args, name, default)
    loaded = _load_system(args.system)
    psys = loaded if isinstance(loaded, PerturbedSde) else _default_perturbation(loaded)
    if args.mode == "condition":
        _require(args.scale is not None, "condition mode needs --scale")
        _require(args.samples >= 2, "--samples must be at least 2")
        report = check_condition_42(psys, args.scale, args.trials,
                                    seed=args.seed, samples=args.samples)
        return {"mode": "condition", "system": args.system, **asdict(report)}
    _require(args.dt > 0.0, "--dt must be positive")
    report = stability_experiment(psys, args.delta, args.horizon, args.paths,
                                  args.seed, dt=args.dt)
    return {"mode": "stability", "system": args.system,
            **_stability_to_dict(report)}


def _cmd_perron(args):
    report = perron_instability(args.a, args.b, args.lam,
                                delta_window=args.delta_window,
                                horizon=args.horizon, paths=args.paths,
                                seed=args.seed, dt=args.dt)
    return _perron_to_dict(report)


# ---------------------------------------------------------------------------
# Selftest battery

def _selftest_checks(seed: int) -> list[dict]:
    checks = []

    def record(name: str, value: float, bound: float) -> None:
        checks.append({"name": name, "value": float(value), "bound": float(bound),
                       "pass": bool(value <= bound)})

    gbm = gallery("gbm")
    curve, _ = moment_ode(gbm, np.eye(1), 0.0, 1.0, 1e-3)
    record("moment-oracle", abs(curve.values[-1] / math.exp(-1.75) - 1.0), 1e-6)

    # The duality check's chi(u) is chi_estimate(gbm, [1.0], 50.0): the ODE
    # route ignores the seed.
    dual = duality_defect(gbm, np.eye(1), np.eye(1), 50.0)
    record("chi-scalar", abs(dual.chis[0] + 1.75), 0.01)

    est = spectrum(gallery("diag-2x2"), 50.0, 2)
    record("spectrum-pair",
           max(abs(est.values[0] + 3.91), abs(est.values[1] + 1.96)), 0.05)

    record("duality-scalar", abs(float(dual.sums[0]) - 1.0), 0.02)

    ss, ts, values = [], [], []
    for s in (0.5, 1.0, 2.0):
        for gap in (0.0, 1.0, 2.0, 4.0):
            ss.append(s)
            ts.append(s + gap)
            values.append(math.exp(-2.0 * gap))
    surface = MomentSurface(ss=np.array(ss), ts=np.array(ts),
                            values=np.array(values), stderrs=None, sense="stable")
    fit = fit_envelope(surface)
    record("envelope-lattice",
           max(abs(fit.k - 1.0), abs(fit.alpha - 2.0), fit.beta), 0.05)

    ens = simulate_fundamental(gallery("triangular-2x2"),
                               TimeGrid.spanning(0.0, 0.25, 1e-2), 4, seed)
    tri = triangularize_paths(ens)
    record("triangular-residuals",
           max(tri.max_orthogonality_defect, tri.max_lower_magnitude), 1e-7)
    record("triangular-reconstruction", tri.max_reconstruction_error, 1e-6)

    oscillating = LinearSde.from_strings(
        1, [["-1 - (sin(log(t)) + cos(log(t)))"]], [["0"]])
    record("bound-oscillating", abs(lower_bound(oscillating, 1e5) - 4.0), 0.3)

    falsifier = check_condition_42(_default_perturbation(gbm), 0.3, 100, seed=seed)
    record("falsifier-consistent", falsifier.max_ratio, 1.0)

    # The zero perturbation must reproduce the linear flow bitwise.
    zero = PerturbedSde(gbm, PerturbationSpec.zero(), PerturbationSpec.zero(),
                        c=9.0, q=2.0)
    ens = simulate_fundamental(gbm, TimeGrid.spanning(0.0, 0.5, 1e-3), 2, seed)
    sol = voc_solve(zero, [1.0], ens, 0)
    reference = np.einsum("kij,j->ki", ens.phi[:, 0], np.array([1.0]))
    record("voc-zero-perturbation", float(np.max(np.abs(sol.values - reference))), 0.0)

    return checks


def _cmd_selftest(args):
    checks = _selftest_checks(args.seed)
    status = "ok" if all(c["pass"] for c in checks) else "fail"
    return {"seed": args.seed, "status": status, "checks": checks}


_HANDLERS = {
    "example": _cmd_example,
    "moments": _cmd_moments,
    "lyapunov": _cmd_lyapunov,
    "regularity": _cmd_regularity,
    "fit": _cmd_fit,
    "triangularize": _cmd_triangularize,
    "perturb": _cmd_perturb,
    "perron": _cmd_perron,
    "selftest": _cmd_selftest,
}


def _resolve_threads(args) -> int | None:
    if args.threads is not None:
        return args.threads
    raw = os.environ.get("MSD_THREADS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"MSD_THREADS must be an integer, got {raw!r}")
    if value < 1:
        raise CliError(f"MSD_THREADS must be positive, got {value}")
    return value


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    with open(output, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        sys.stderr.write(err.usage)
        sys.stderr.write(f"error: validation: {err}\n")
        return 1
    try:
        _resolve_threads(args)
        report = _HANDLERS[args.command](args)
        _emit(report if isinstance(report, str)
              else json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n",
              args.output)
    except NumericFailure as err:
        sys.stderr.write(f"error: numeric: {err}\n")
        return 2
    except (MsdError, OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: validation: {err}\n")
        return 1
    if args.command == "selftest" and report["status"] != "ok":
        sys.stderr.write("error: numeric: selftest found failing checks\n")
        return 2
    return 0


def main(argv=None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
