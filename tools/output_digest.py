"""Digest the stdout of every benchmark operation and README command, and
the stderr of failing commands, for byte-identity checks.

Prints one ``workload operation seed sha256`` line per operation of
``perfbench/workloads.py`` at each seed, running the operations in process
as the benchmark's worker does: command lines through ``msd.cli.dispatch``
and library operations through their call. Then prints one
``readme ARGV sha256`` line per ``msd`` command in the README's shell
blocks, and per command of ``EXTRA``, run through ``msd.cli.dispatch``
too. Last it prints one ``error ARGV exit sha256`` line per command of
``ERRORS``, with its exit code and the digest of its stderr, run in a
temporary directory that holds the files of ``FILES``. To check that a
change leaves every output byte alone, run it on both checkouts (copy this
file into a checkout that lacks it) and compare:

    python3 tools/output_digest.py > after.txt      # in each checkout
    diff before.txt after.txt

Exits 1 if an operation or a README command exits non-zero or raises; its
line then carries the failure in place of a digest. A command of
``ERRORS`` that raises prints ``raised-TYPE`` in place of its exit code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import msd.cli  # noqa: E402
from workloads import WORKLOADS, Op, operations  # noqa: E402

# Output shapes that neither the benchmark nor the README's examples print.
EXTRA = (
    "moments --system gbm --t1 1.0 --format json",
    "fit --system gbm --s-values 0,1 --deltas 0,1,2 --format csv",
    # Too short a horizon for a tail slope: null, not NaN.
    "perturb --system gbm --mode stability --horizon 0.001 --paths 10 --seed 1",
    # Moment surfaces on the ODE route whose rows share the calls of a round:
    # unstable-sense rows of one pair each, and rank-1 chains of three
    # segments on time-dependent coefficients.
    "fit --system diag-2x2 --rank 1 --sense unstable --s-values 6.3,8.7 "
    "--deltas 0,0.5,1,2,4 --dt 0.01 --format csv",
    "fit --system perron-ode --rank 1 --s-values 0.5,1,4.5 --deltas 0,0.5,1,2 "
    "--dt 0.01 --format csv",
    *(f"example show --system {name}" for name in msd.cli.GALLERY_NAMES),
)


def _system(a, g, dim=1) -> bytes:
    return json.dumps({"dim": dim, "params": {}, "A": a, "G": g}).encode()


def _perturbed_gbm(f: dict) -> bytes:
    """The scalar system du = -u dt + 0.5 u dw with drift perturbation ``f``."""
    base = {"dim": 1, "params": {}, "A": [["-1"]], "G": [["0.5"]]}
    return json.dumps({"base": base, "c": 9, "q": 2, "f": f, "h": {"kind": "zero"}}).encode()


# System files the commands of ERRORS name, written before they run.
FILES = {
    "dim-fraction.json": _system([["-1"]], [["0"]], 1.7),
    "dim-17.json": _system([["0"] * 17] * 17, [["0"] * 17] * 17, 17),
    "corrupt.json": b"{",
    "hot.json": _system([["500"]], [["0"]]),
    "hot-2x2.json": _system([["-1", "500"], ["0", "500"]], [["0", "0"], ["0", "10"]], 2),
    "diverging.json": _system([["400"]], [["0"]]),
    "non-psd.json": _system([["-20", "10"], ["0", "-1"]], [["0", "0"], ["0", "0"]], 2),
    "superscript.json": _system([["-1 + \u00b2"]], [["0"]]),
    "overflow.json": _system([["1e999999"]], [["0"]]),
    "latin-1.json": '{"dim": 1, "params": {"\u00e9": 1}, "A": [["-1"]], "G": [["0"]]}'.encode(
        "latin-1"),
    "rank-deficient.json": _system([["1", "1"], ["0", "-1"]], [["0", "0"], ["0", "0"]], 2),
    "unknown-key.json": json.dumps({"dim": 1, "A": [["-1"]], "G": [["0.5"]],
                                    "parms": {"a": 3}, "B": [["9"]]}).encode(),
    "unparsable-f.json": _perturbed_gbm({"kind": "expr", "entries": ["u1+"]}),
    "unread-field.json": _perturbed_gbm({"kind": "expr", "entries": ["2*u1^3"], "coef": 50}),
    "vanishing.json": _system([["-100"]], [["0"]]),
}

# Failing commands: one per error class the command line reports, then the
# inputs that once failed as tracebacks, late or with the wrong kind (the
# next six; perturbed.json is what `example show` prints for
# perron-sde-perturbed, and it now loads), then flags, keys and values that
# the parser, the system reader or a library check now refuses (the next
# seven), then an explosion that names a path after the first and an
# entry off the diagonal, so the reported path and entry order are pinned,
# then two inputs that once printed NaN and -Infinity with exit 0, and last
# a Monte Carlo surface that vanishes, once refused as bad input. No
# command line reaches NonConvergenceError, which only voc_solve raises, on
# a perturbation the selftest never uses.
ERRORS = (
    "moments --system gbm",                                         # usage
    "example show",                                                 # CliError
    "moments --system dim-fraction.json --t1 1",                    # ModelError
    "moments --system gbm --t1 inf",                                # EngineError
    "lyapunov --system diag-2x2 --trials 1",                        # LyapunovError
    "regularity --system gbm --bound-horizon 0",                    # BoundsError
    "fit --system gbm --s-values 0,1 --deltas 0,1 --lattice 1",     # DichotomyError
    "perron --a 1 --b 2 --lambda 1",                                # PerturbError
    "moments --system dim-17.json --t1 1",                          # NumericsError
    "lyapunov --system perron-ode",                                 # DomainError
    "perturb --system unparsable-f.json --mode condition --scale 0.5",  # ParseError
    "example list --output missing/list.json",                      # OSError
    "moments --system corrupt.json --t1 1",                         # JSONDecodeError
    "moments --system hot.json --t1 2 --dt 0.01 --method mc --paths 2",  # ExplosionError
    "moments --system diverging.json --t1 1",                       # DivergenceError
    "moments --system non-psd.json --t1 1 --dt 0.5",                # NonPsdError
    "moments --system superscript.json --t1 0.01",
    "moments --system overflow.json --t1 0.01",
    "moments --system latin-1.json --t1 0.01",
    "perturb --system perron-sde-perturbed --mode stability --paths 100000000 --horizon 5",
    "perturb --system perturbed.json --mode condition --scale 0.5 --trials 100",
    "triangularize --system rank-deficient.json --t1 20 --paths 2",
    "lyapunov --system gbm --format json",
    "moments --system gbm --t1 1 --paths 0",
    "triangularize --system gbm --paths 0",
    "moments --system unknown-key.json --t1 0.002",
    "perturb --system gbm --mode condition --scale 0.5 --trials 100 --paths 7",
    "perturb --system unread-field.json --mode condition --scale 0.5 --trials 100",
    "lyapunov --system gbm --t-start -1 --horizon 2",
    "moments --system hot-2x2.json --t1 2 --dt 0.01 --method mc --paths 4",
    "fit --system gbm --s-values 0,inf --deltas 0,1",
    "lyapunov --system vanishing.json --method mc --horizon 1 --dt 0.01 --paths 10 --vector 1",
    "fit --system vanishing.json --method mc --s-values 0,0.5 --deltas 0,0.5 --dt 0.01 --paths 10",
)


def readme_commands() -> list[list[str]]:
    """The argv of every distinct ``msd`` command line in the README's
    ``sh`` blocks (a leading ``$ `` and a trailing comment dropped), in
    order, then those of ``EXTRA`` that the README lacks."""
    lines: list[list[str]] = []
    in_shell = False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_shell = line == "```sh"
            continue
        text = line.removeprefix("$ ")
        if in_shell and text.startswith("msd "):
            lines.append(shlex.split(text, comments=True)[1:])
    commands: list[list[str]] = []
    for argv in lines + [shlex.split(command) for command in EXTRA]:
        if argv not in commands:
            commands.append(argv)
    return commands


def stdout_of(op) -> tuple[int, str]:
    """(exit code, stdout text) of one operation; stderr is dropped."""
    if op.prepare is not None:
        op.prepare()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if op.argv is not None:
            return msd.cli.dispatch(list(op.argv)), out.getvalue()
        out.write(op.call())
    return 0, out.getvalue()


def report(label: str, op) -> bool:
    """Print ``label`` and the digest of the stdout of ``op``; True on a failure."""
    try:
        code, text = stdout_of(op)
        digest = f"exit-{code}" if code else hashlib.sha256(text.encode()).hexdigest()
    except Exception as exc:   # reported; the other operations still run
        print(f"{label}: {exc!r}", file=sys.stderr)
        code, digest = 1, f"raised-{type(exc).__name__}"
    print(f"{label} {digest}", flush=True)
    return code != 0


def error_lines() -> list[tuple[str, int | str, str]]:
    """(command, exit code, stderr text) of each command of ``ERRORS``, run
    in a new directory holding ``FILES``; ``raised-TYPE`` is the exit code
    of a command that raised."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, data in FILES.items():
            Path(name).write_bytes(data)
        msd.cli.dispatch(["example", "show", "--system", "perron-sde-perturbed",
                          "--output", "perturbed.json"])
        for command in ERRORS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = msd.cli.dispatch(shlex.split(command))
                except Exception as exc:   # a traceback at the command line
                    code = f"raised-{type(exc).__name__}"
            lines.append((command, code, err.getvalue()))
    return lines


def main() -> int:
    failed = 0
    for workload in WORKLOADS:
        for seed in (1, 2, 3):
            for op in operations(workload, seed):
                failed += report(f"{workload} {op.name} {seed}", op)
    for argv in readme_commands():
        failed += report(f"readme {shlex.join(argv)}",
                         Op("readme", check=None, params={}, argv=argv))
    for command, code, err in error_lines():
        print(f"error {command} {code} {hashlib.sha256(err.encode()).hexdigest()}",
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
