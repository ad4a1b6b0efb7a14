"""Failures classify themselves: every msd error derives from MsdError, and
exactly the numeric failures also derive from NumericFailure, so the command
line picks its exit code from the class alone."""

import importlib
import pkgutil

import msd
from msd import cli
from msd.numerics import MsdError, NumericFailure

NUMERIC = {
    "msd.bounds._RankDeficientFlowError",
    "msd.dichotomy._DegenerateSurfaceError",
    "msd.engines.DivergenceError",
    "msd.engines.ExplosionError",
    "msd.engines.NonPsdError",
    "msd.lyapunov._DegenerateMeanSquareError",
    "msd.perturb.NonConvergenceError",
}


def _exception_classes() -> dict[str, type]:
    """Every exception class defined in an ``msd.*`` module, by full name."""
    found = {}
    for info in pkgutil.iter_modules(msd.__path__, "msd."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_every_msd_error_derives_from_the_root():
    classes = _exception_classes()
    assert len(classes) >= 20 and "msd.cli.CliError" in classes
    strays = {name for name, cls in classes.items() if not issubclass(cls, MsdError)}
    assert strays == {"msd.cli._UsageError"}


def test_exactly_the_numeric_failures_carry_the_marker():
    numeric = {name for name, cls in _exception_classes().items()
               if issubclass(cls, NumericFailure) and cls is not NumericFailure}
    assert numeric == NUMERIC


def test_the_cli_names_no_other_modules_errors():
    foreign = {name for name, obj in vars(cli).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__.startswith("msd.") and obj.__module__ != "msd.cli"}
    assert foreign == {"MsdError", "NumericFailure"}
