"""Per-layer spans and counters, recorded from outside the msd package.

The tracer wraps public entry points of msd's modules. ``from .x import y``
copies a function into the importing module's namespace, so a wrapper is
installed at every place the function object is bound: each loaded
``msd`` module (and the package itself) is scanned for the original
object. Methods are wrapped once on their class. Uninstalling puts every
original back, so untraced passes run the unmodified code.

A span's self time is its duration minus the durations of the spans it
directly contains. A span key's inclusive time counts only the outermost
span of that key, so nested calls within one layer are not counted twice.
Counts come from each call's arguments and return value.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MB = 1e6


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_evaluate(args, kwargs, result):
    return {"expr.evaluate_points": np.size(_arg(args, kwargs, 1, "t"))}


def _count_brownian_batch(args, kwargs, result):
    paths = _arg(args, kwargs, 1, "n_paths")
    steps = _arg(args, kwargs, 3, "steps")
    return {"numerics.rng_draws": paths * steps, "numerics.rng_streams": paths}


def _count_reduce(args, kwargs, result):
    return {"numerics.reduce_values": np.size(_arg(args, kwargs, 0, "values"))}


def _count_fundamental(args, kwargs, result):
    return {"engines.em_path_steps": result.paths * result.grid.steps,
            "engines.ensemble_mb": (result.phi.nbytes + result.psi.nbytes
                                    + result.increments.nbytes) / MB}


def _count_vectors(args, kwargs, result):
    paths = _arg(args, kwargs, 2, "paths")
    steps = _arg(args, kwargs, 1, "grid").steps
    nodes, values = result
    # Increments are drawn for the whole grid; stepping stops at the last
    # recorded node.
    return {"engines.em_path_steps": paths * int(nodes[-1]),
            "engines.ensemble_mb": (values.nbytes + paths * steps * 8) / MB}


def _count_rk4_pair(args, kwargs, result):
    return {"engines.rk4_steps": len(result[0].ts) - 1}


def _count_rk4_curve(args, kwargs, result):
    return {"engines.rk4_steps": len(result.ts) - 1}


def _count_surface(args, kwargs, result):
    return {"dichotomy.surface_pairs": len(result.values)}


def _count_fit(args, kwargs, result):
    # Nominal lattice: alpha points times beta points (lattice + 1).
    lattice = _arg(args, kwargs, 5, "lattice", 200)
    return {"dichotomy.fit_lattice_points": lattice * (lattice + 1)}


def _count_perturbed(args, kwargs, result):
    return {"perturb.em_path_steps": result.paths * result.grid.steps,
            "perturb.values_mb": result.values.nbytes / MB,
            "perturb.escaped_paths": result.escaped}


def _count_falsifier(args, kwargs, result):
    trials = _arg(args, kwargs, 2, "trials")
    samples = _arg(args, kwargs, 4, "samples", 8192)
    return {"perturb.falsifier_samples": trials * samples}


# (module, attribute, span key, counter). An attribute "Class.method" is
# wrapped on the class.
ENTRY_POINTS = (
    ("msd.expr", "evaluate", "expr.evaluate", _count_evaluate),
    ("msd.expr", "evaluate_env", "expr.evaluate_env", None),
    ("msd.model", "LinearSde.drift_at", "model.coef_table", None),
    ("msd.model", "LinearSde.diffusion_at", "model.coef_table", None),
    ("msd.numerics", "brownian_batch", "numerics.rng", _count_brownian_batch),
    ("msd.numerics", "pairwise_mean_std", "numerics.reduce", _count_reduce),
    ("msd.numerics", "gram_schmidt_qr", "numerics.qr", None),
    ("msd.numerics", "spd_sqrt_commuting", "numerics.spd_sqrt", None),
    ("msd.engines", "simulate_fundamental", "engines.em", _count_fundamental),
    ("msd.engines", "simulate_vectors", "engines.em", _count_vectors),
    ("msd.engines", "moment_ode", "engines.rk4", _count_rk4_pair),
    ("msd.engines", "moment_log_trace", "engines.rk4", _count_rk4_curve),
    ("msd.engines", "mc_second_moment", "engines.mc_moment", None),
    ("msd.lyapunov", "chi_estimate", "lyapunov.chi", None),
    ("msd.bounds", "lower_bound", "bounds.quadrature", None),
    ("msd.bounds", "upper_bound", "bounds.quadrature", None),
    ("msd.bounds", "diagonal_averages", "bounds.quadrature", None),
    ("msd.bounds", "bounds_report", "bounds.quadrature", None),
    ("msd.bounds", "triangularize_paths", "bounds.triangularize", None),
    ("msd.dichotomy", "dichotomy_surface", "dichotomy.surface", _count_surface),
    ("msd.dichotomy", "fit_envelope", "dichotomy.fit", _count_fit),
    ("msd.dichotomy", "decoupling_check", "dichotomy.decoupling", None),
    ("msd.perturb", "simulate_perturbed", "perturb.em", _count_perturbed),
    ("msd.perturb", "check_condition_42", "perturb.falsifier", _count_falsifier),
)

# Entry points each workload must reach; a traced run that misses one fails.
EXPECTED = {
    "ode": ("expr.evaluate", "model.LinearSde.drift_at", "engines.moment_ode",
            "engines.moment_log_trace", "lyapunov.chi_estimate", "bounds.lower_bound",
            "bounds.bounds_report", "dichotomy.dichotomy_surface",
            "dichotomy.fit_envelope"),
    "mc": ("numerics.brownian_batch", "engines.simulate_fundamental",
           "engines.simulate_vectors", "engines.mc_second_moment",
           "numerics.pairwise_mean_std", "numerics.gram_schmidt_qr",
           "numerics.spd_sqrt_commuting", "bounds.triangularize_paths",
           "dichotomy.decoupling_check", "lyapunov.chi_estimate",
           "dichotomy.dichotomy_surface", "dichotomy.fit_envelope"),
    "perturb": ("perturb.simulate_perturbed", "perturb.check_condition_42",
                "expr.evaluate_env", "numerics.brownian_batch", "engines.moment_ode",
                "engines.moment_log_trace", "dichotomy.dichotomy_surface",
                "dichotomy.fit_envelope"),
}

# Reported per-layer metrics: name -> (unit, source). Sources: "calls:K",
# "incl:K" and "self:K" for span key K, "count:NAME" for a counter.
LAYER_METRICS = {
    "cli.selftest_s": ("s", "incl:cli.selftest"),
    "cli.fit_s": ("s", "incl:cli.fit"),
    "cli.regularity_s": ("s", "incl:cli.regularity"),
    "cli.lyapunov_s": ("s", "incl:cli.lyapunov"),
    "cli.moments_s": ("s", "incl:cli.moments"),
    "cli.triangularize_s": ("s", "incl:cli.triangularize"),
    "cli.perturb_s": ("s", "incl:cli.perturb"),
    "cli.perron_s": ("s", "incl:cli.perron"),
    "cli.output_bytes": ("bytes", "count:cli.output_bytes"),
    "expr.evaluate_calls": ("count", "calls:expr.evaluate"),
    "expr.evaluate_points": ("count", "count:expr.evaluate_points"),
    "expr.evaluate_s": ("s", "incl:expr.evaluate"),
    "expr.evaluate_env_calls": ("count", "calls:expr.evaluate_env"),
    "expr.evaluate_env_s": ("s", "incl:expr.evaluate_env"),
    "model.coef_table_calls": ("count", "calls:model.coef_table"),
    "model.coef_table_s": ("s", "incl:model.coef_table"),
    "numerics.rng_draws": ("count", "count:numerics.rng_draws"),
    "numerics.rng_streams": ("count", "count:numerics.rng_streams"),
    "numerics.rng_s": ("s", "incl:numerics.rng"),
    "numerics.reduce_calls": ("count", "calls:numerics.reduce"),
    "numerics.reduce_values": ("count", "count:numerics.reduce_values"),
    "numerics.reduce_s": ("s", "incl:numerics.reduce"),
    "numerics.qr_calls": ("count", "calls:numerics.qr"),
    "numerics.qr_s": ("s", "incl:numerics.qr"),
    "numerics.spd_sqrt_calls": ("count", "calls:numerics.spd_sqrt"),
    "numerics.spd_sqrt_s": ("s", "incl:numerics.spd_sqrt"),
    "engines.em_path_steps": ("count", "count:engines.em_path_steps"),
    "engines.em_self_s": ("s", "self:engines.em"),
    "engines.ensemble_mb": ("MB", "count:engines.ensemble_mb"),
    "engines.rk4_calls": ("count", "calls:engines.rk4"),
    "engines.rk4_steps": ("count", "count:engines.rk4_steps"),
    "engines.rk4_s": ("s", "incl:engines.rk4"),
    "engines.rk4_self_s": ("s", "self:engines.rk4"),
    "engines.mc_moment_calls": ("count", "calls:engines.mc_moment"),
    "engines.mc_moment_s": ("s", "incl:engines.mc_moment"),
    "lyapunov.chi_calls": ("count", "calls:lyapunov.chi"),
    "lyapunov.chi_self_s": ("s", "self:lyapunov.chi"),
    "bounds.quadrature_s": ("s", "incl:bounds.quadrature"),
    "bounds.quadrature_self_s": ("s", "self:bounds.quadrature"),
    "bounds.triangularize_self_s": ("s", "self:bounds.triangularize"),
    "dichotomy.surface_pairs": ("count", "count:dichotomy.surface_pairs"),
    "dichotomy.surface_s": ("s", "incl:dichotomy.surface"),
    "dichotomy.fit_lattice_points": ("count", "count:dichotomy.fit_lattice_points"),
    "dichotomy.fit_s": ("s", "incl:dichotomy.fit"),
    "dichotomy.decoupling_self_s": ("s", "self:dichotomy.decoupling"),
    "perturb.em_path_steps": ("count", "count:perturb.em_path_steps"),
    "perturb.em_self_s": ("s", "self:perturb.em"),
    "perturb.values_mb": ("MB", "count:perturb.values_mb"),
    "perturb.escaped_paths": ("count", "count:perturb.escaped_paths"),
    "perturb.falsifier_samples": ("count", "count:perturb.falsifier_samples"),
    "perturb.falsifier_s": ("s", "incl:perturb.falsifier"),
}


class Tracer:
    """Span stack plus per-key totals for one traced pass."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.entries_called: dict[str, int] = defaultdict(int)
        self.spans = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, key: str) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        self._depth[key] += 1
        return frame

    def _exit(self, key: str, frame: list[float], duration: float) -> None:
        self._stack.pop()
        self._depth[key] -= 1
        if self._stack:
            self._stack[-1][0] += duration
        if self._depth[key] == 0:
            self.inclusive[key] += duration
        self.self_time[key] += duration - frame[0]
        self.calls[key] += 1
        self.spans += 1

    @contextmanager
    def span(self, key: str):
        frame = self._enter(key)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(key, frame, time.perf_counter() - start)

    def _wrap(self, fn, key: str, entry: str, counter):
        enter, leave = self._enter, self._exit
        counts, entries = self.counts, self.entries_called
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(key)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(key, frame, clock() - start)
            entries[entry] += 1
            if counter is not None:
                for name, value in counter(args, kwargs, result).items():
                    counts[name] += value
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "msd" or name.startswith("msd."))]
        for module_name, attr, key, counter in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            entry = f"{module_name[4:]}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, meth, self._wrap(vars(owner)[meth], key, entry, counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, key, entry, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def missing(self, workload: str) -> list[str]:
        return [e for e in EXPECTED[workload] if self.entries_called[e] == 0]

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, (_, source) in LAYER_METRICS.items():
            kind, key = source.split(":", 1)
            table = {"calls": self.calls, "incl": self.inclusive,
                     "self": self.self_time, "count": self.counts}[kind]
            out[name] = float(table.get(key, 0.0))
        return out
