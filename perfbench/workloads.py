"""The benchmark's workloads: fixed lists of operations on msd.

An operation is either one ``msd`` command line, run in process through
``msd.cli.dispatch(argv)``, or one public library call where no command
exists. Each carries the parameters its output check needs. ``tiny``
selects the small sizes of the quick test instead of the benchmark's;
the operation list is the same at both.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable

import checks

WORKLOADS = ("ode", "mc", "perturb")


@dataclass
class Op:
    name: str                       # unique within the workload
    check: Callable[[str, dict], None]
    params: dict
    argv: list[str] | None = None   # CLI operation
    call: Callable[[], str] | None = None   # library operation, returns its text
    # Number path of one value that the quick test corrupts by 1.01.
    probe: tuple = ()
    prepare: Callable[[], None] | None = None   # untimed set-up, run once

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else "library"


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _ode_ops(seed: int, tiny: bool) -> list[Op]:
    # The README quick-start surface at its extreme s values and every other
    # delta: 6 of its 25 pairs, the same span and step.
    s_values = [0.5, 4.5]
    deltas = [0.0, 50.0, 100.0]
    reg = {"t_start": 0.001, "horizon": 10.0, "bound_horizon": 1e3}
    mom = {"t0": 0.001, "t1": 10.0 if not tiny else 1.0}
    sd = ["--seed", str(seed)]
    return [
        Op("selftest", checks.check_selftest, {"seed": seed}, argv=["selftest", *sd],
           probe=("seed",)),
        Op("fit", checks.check_fit_ode,
           {"s_values": s_values, "deltas": deltas},
           argv=["fit", "--system", "perron-ode", "--rank", "1",
                 "--s-values", _csv(s_values), "--deltas", _csv(deltas),
                 "--dt", "0.02", "--format", "json", *sd],
           probe=("fit", "K")),
        Op("regularity", checks.check_regularity, reg,
           argv=["regularity", "--system", "perron-sde",
                 "--t-start", repr(reg["t_start"]), "--horizon", repr(reg["horizon"]),
                 "--bound-horizon", repr(reg["bound_horizon"]), *sd],
           probe=("bounds", "upper")),
        Op("lyapunov", checks.check_lyapunov_ode, {},
           argv=["lyapunov", "--system", "diag-2x2", *sd],
           probe=("spectrum", "values", 0)),
        Op("moments", checks.check_moments_ode, mom,
           argv=["moments", "--system", "perron-sde",
                 "--t0", repr(mom["t0"]), "--t1", repr(mom["t1"]), *sd],
           probe=("row", -1)),
    ]


def _decoupling_call(seed: int, t1: float, paths: int) -> tuple[Callable[[], None],
                                                                 Callable[[], str]]:
    """decoupling_check on an ensemble simulated once, before timing starts."""
    import msd
    from msd.model import make_projector

    stored = {}

    def prepare() -> None:
        if "ens" not in stored:
            grid = msd.TimeGrid.spanning(0.0, t1, 1e-2)
            stored["ens"] = msd.simulate_fundamental(
                msd.gallery("triangular-2x2"), grid, paths, seed)

    def call() -> str:
        # Looked up at call time so a traced run sees the wrapped function.
        report = msd.decoupling_check(stored["ens"], make_projector(2, 1))
        return json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2) + "\n"

    return prepare, call


def _mc_ops(seed: int, tiny: bool) -> list[Op]:
    sd = ["--seed", str(seed), "--threads", "2"]
    mom = {"t0": 0.001, "t1": 0.501, "paths": 5000 if not tiny else 1000}
    fit = {"s_values": [0.0, 0.5, 1.0], "deltas": [0.0, 0.25, 0.5, 1.0],
           "paths": 500 if not tiny else 200}
    tri = {"t0": 0.0, "t1": 10.0 if not tiny else 1.0, "dt": 1e-2,
           "paths": 16 if not tiny else 4}
    # Fewer paths would leave the exponent check no error budget.
    lya = {"dt": 1e-2, "horizon": 10.0, "paths": 2000}
    dec = {"nodes": int(round(tri["t1"] / 1e-2)) + 1, "paths": tri["paths"]}
    prepare, call = _decoupling_call(seed, tri["t1"], tri["paths"])
    return [
        Op("moments", checks.check_moments_mc, mom,
           argv=["moments", "--system", "perron-sde", "--method", "mc",
                 "--t0", repr(mom["t0"]), "--t1", repr(mom["t1"]),
                 "--paths", str(mom["paths"]), *sd],
           probe=("row", 0)),
        Op("fit", checks.check_fit_mc, fit,
           argv=["fit", "--system", "triangular-2x2", "--rank", "1", "--method", "mc",
                 "--s-values", _csv(fit["s_values"]), "--deltas", _csv(fit["deltas"]),
                 "--paths", str(fit["paths"]), "--format", "json", *sd],
           probe=("fit", "residual_max")),
        Op("triangularize", checks.check_triangularize, tri,
           argv=["triangularize", "--system", "triangular-2x2",
                 "--t0", repr(tri["t0"]), "--t1", repr(tri["t1"]),
                 "--dt", repr(tri["dt"]), "--paths", str(tri["paths"]), *sd],
           probe=("paths",)),
        Op("lyapunov", checks.check_lyapunov_mc, lya,
           argv=["lyapunov", "--system", "diag-2x2", "--method", "mc",
                 "--horizon", repr(lya["horizon"]), "--dt", repr(lya["dt"]),
                 "--paths", str(lya["paths"]), *sd],
           probe=("spectrum", "split_index")),
        Op("decoupling", checks.check_decoupling, dec, call=call, prepare=prepare,
           probe=("paths",)),
    ]


def _perturb_ops(seed: int, tiny: bool) -> list[Op]:
    sd = ["--seed", str(seed)]
    stab = {"paths": 1000 if not tiny else 100, "horizon": 5.0}
    cond = {"trials": 1000 if not tiny else 100, "samples": 2048 if not tiny else 512}
    per = {"a": 1.05, "b": 1.0, "lam": 1.0, "paths": 400 if not tiny else 50}
    return [
        Op("stability", checks.check_stability, stab,
           argv=["perturb", "--system", "perron-sde-perturbed", "--mode", "stability",
                 "--paths", str(stab["paths"]), "--horizon", repr(stab["horizon"]), *sd],
           probe=("q",)),
        Op("condition", checks.check_condition, cond,
           argv=["perturb", "--system", "gbm", "--mode", "condition", "--scale", "0.5",
                 "--trials", str(cond["trials"]), "--samples", str(cond["samples"]), *sd],
           probe=("trials",)),
        Op("perron", checks.check_perron, per,
           argv=["perron", "--a", repr(per["a"]), "--b", repr(per["b"]),
                 "--lambda", repr(per["lam"]), "--paths", str(per["paths"]), *sd],
           probe=("chi_deterministic",)),
    ]


def operations(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    by_name = {"ode": _ode_ops, "mc": _mc_ops, "perturb": _perturb_ops}
    return by_name[workload](seed, tiny)
