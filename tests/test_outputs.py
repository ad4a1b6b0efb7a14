"""The byte contract: every README and ``EXTRA`` command prints what
``tests/outputs.golden.json`` holds, every command of ``ERRORS`` exits and
reports as recorded, and every operation of ``perfbench/workloads.py`` at
seeds 1-3, run in process as the benchmark runs it, prints what the file
holds under its ``workload operation seed`` label.

Text outside numbers, and exit codes, must match exactly. Numbers must
match within a relative ``RTOL`` of 1e-9 or an absolute ``ATOL`` of 1e-12.
The outputs come from Monte Carlo and RK4 runs of up to 10^4 steps over
small-matrix BLAS products, which another CPU's kernels may round
differently by an ulp per operation: about 1e-13 relative over such a run,
four orders below RTOL. Some numbers are differences of nearly equal ones,
such as the selftest's moment-oracle error of 1.4e-13; rounding moves
those by about 1e-15 absolute, far beyond any relative bound, hence ATOL.
A change to a formula, a seed or a stream moves these numbers by far more
than either. Every JSON stdout must also parse strictly, without NaN or
Infinity.

To see whether a change moved any output, regenerate the file with

    PYTHONPATH=src python3 tests/test_outputs.py

It prints one ``label: verdict`` line per output against the file it
replaces: ``identical``, ``k of m numbers moved, largest relative change
r``, ``differs in more than number values``, ``new`` or ``gone``. It exits
1 and writes nothing if a README command or a benchmark operation fails.
A change that moves output on purpose commits the file and says in its
notes which outputs moved.
"""

import contextlib
import io
import json
import math
import re
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

import msd.cli

_ROOT = Path(__file__).resolve().parent.parent
# After the sources, so that the operations run the msd under test.
sys.path.append(str(_ROOT / "perfbench"))

from workloads import WORKLOADS, operations  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "outputs.golden.json"
RTOL, ATOL = 1e-9, 1e-12
SEEDS = (1, 2, 3)

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

# A number is not part of a word or of a quoted string.
_NUMBER = re.compile(r'(?<![\w."])-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?'
                     r'|NaN|Infinity|nan|inf)(?![\w."])')


def readme_commands() -> list[list[str]]:
    """The argv of every distinct ``msd`` command line in the README's
    ``sh`` blocks (a leading ``$ `` and a trailing comment dropped), in
    order, then those of ``EXTRA`` that the README lacks."""
    lines: list[list[str]] = []
    in_shell = False
    for line in (_ROOT / "README.md").read_text(encoding="utf-8").splitlines():
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


def benchmark_labels() -> list[str]:
    """``workload operation seed`` of every benchmark operation, in the
    order of ``perfbench/workloads.py``, seed by seed."""
    return [f"{workload} {op.name} {seed}" for workload in WORKLOADS for seed in SEEDS
            for op in operations(workload, seed)]


def stdout_of(command) -> tuple[int, str]:
    """(exit code, stdout text) of an argv run through ``msd.cli.dispatch``,
    or of a library call that returns its text; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if callable(command):
            out.write(command())
            return 0, out.getvalue()
        return msd.cli.dispatch(list(command)), out.getvalue()


def benchmark_output(label: str) -> tuple[int, str]:
    """(exit code, stdout text) of the benchmark operation ``label``, after
    its untimed set-up."""
    workload, name, seed = label.split()
    [op] = [op for op in operations(workload, int(seed)) if op.name == name]
    if op.prepare is not None:
        op.prepare()
    return stdout_of(op.argv if op.argv is not None else op.call)


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


def _outputs() -> tuple[dict, list[str]]:
    """What the golden file holds, computed in the current directory, and a
    ``label: why`` line per README command or benchmark operation that
    failed."""
    data = {"readme": {}, "errors": [], "benchmark": {}}
    failed = []

    def record(section, label, run):
        try:
            code, text = run()
        except Exception as exc:   # reported; the other outputs still run
            failed.append(f"{label}: {exc!r}")
            return
        if code:
            failed.append(f"{label}: exit {code}")
        else:
            data[section][label] = text

    for argv in readme_commands():
        record("readme", shlex.join(argv), lambda: stdout_of(argv))
    data["errors"] = [{"command": command, "exit": code, "stderr": err}
                      for command, code, err in error_lines()]
    for label in benchmark_labels():
        record("benchmark", label, lambda: benchmark_output(label))
    return data, failed


def compare(mine: str, theirs: str) -> str | None:
    """How the numbers of two outputs differ; None if anything else does."""
    if _NUMBER.sub("#", mine) != _NUMBER.sub("#", theirs):
        return None
    pairs = list(zip(_NUMBER.findall(mine), _NUMBER.findall(theirs)))
    moved = [(float(a), float(b)) for a, b in pairs if a != b]
    if not moved:
        return "identical"
    change = max(abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0 for a, b in moved)
    change = math.inf if math.isnan(change) else change
    return f"{len(moved)} of {len(pairs)} numbers moved, largest relative change {change:.2g}"


def _by_label(data: dict) -> dict[str, tuple[int | str, str]]:
    """(exit code, text) of every output of a golden file by its listing
    label: ``readme ARGV``, ``error ARGV`` or ``workload operation seed``."""
    out = {f"readme {argv}": (0, text) for argv, text in data.get("readme", {}).items()}
    out |= {f"error {e['command']}": (e["exit"], e["stderr"]) for e in data.get("errors", [])}
    return out | {label: (0, text) for label, text in data.get("benchmark", {}).items()}


def listing(old: dict, new: dict) -> list[str]:
    """One ``label: verdict`` line per output of the golden data ``new``
    against ``old``, then one per output of ``old`` that ``new`` lacks."""
    old, new = _by_label(old), _by_label(new)
    lines = []
    for label, (code, text) in new.items():
        if label not in old:
            verdict = "new"
        elif code == old[label][0]:
            verdict = compare(text, old[label][1]) or "differs in more than number values"
        else:
            verdict = "differs in more than number values"
        lines.append(f"{label}: {verdict}")
    return lines + [f"{label}: gone" for label in old if label not in new]


def _refuse(token):
    raise ValueError(f"non-JSON constant {token}")


def assert_matches(label: str, got: str, want: str) -> None:
    """``got`` equals ``want`` outside its numbers, and each number within
    RTOL or ATOL."""
    why = compare(got, want) or "differs in more than number values"
    assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want), f"{label}: {why}"
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        close = a == b or math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=ATOL)
        assert close, f"{label}: {why}"


def _assert_prints(label: str, code: int, text: str, want: str) -> None:
    """A command that exited 0 printed strict JSON, if JSON, matching ``want``."""
    assert code == 0, label
    if text.startswith("{"):
        json.loads(text, parse_constant=_refuse)
    assert_matches(label, text, want)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_readme_command_is_recorded(golden):
    assert list(golden["readme"]) == [shlex.join(argv) for argv in readme_commands()]


def test_every_benchmark_operation_is_recorded(golden):
    assert list(golden["benchmark"]) == benchmark_labels()


@pytest.mark.parametrize("argv", readme_commands(), ids=shlex.join)
def test_readme_command_prints_its_recorded_output(argv, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    label = shlex.join(argv)
    _assert_prints(label, *stdout_of(argv), golden["readme"][label])


@pytest.mark.parametrize("label", benchmark_labels())
def test_benchmark_operation_prints_its_recorded_output(label, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _assert_prints(label, *benchmark_output(label), golden["benchmark"][label])


def test_error_commands_exit_and_report_as_recorded(golden):
    got = error_lines()
    assert [command for command, _, _ in got] == [e["command"] for e in golden["errors"]]
    for (command, code, err), want in zip(got, golden["errors"]):
        assert code == want["exit"], command
        assert_matches(command, err, want["stderr"])


def test_numbers_compare_within_the_tolerance_only():
    assert_matches("same", '{"x": 1.0000000000001, "n": 3}', '{"x": 1.0, "n": 3}')
    assert_matches("residual", "error 1.4e-13", "error 1.5e-13")
    with pytest.raises(AssertionError, match="1 of 2 numbers moved"):
        assert_matches("moved", '{"x": 1.00001, "n": 3}', '{"x": 1.0, "n": 3}')
    with pytest.raises(AssertionError, match="more than number values"):
        assert_matches("text", '{"y": 1.0}', '{"x": 1.0}')


def test_the_listing_gives_each_verdict():
    old = {"readme": {"a": "x 1.0 2\n", "b": "y 2.0\n", "c": "z\n"},
           "errors": [{"command": "e", "exit": 1, "stderr": "error: 3\n"}],
           "benchmark": {"ode fit 1": "[1.0, 4.0, 5]\n", "ode fit 2": "w 1\n"}}
    new = {"readme": {"a": "x 1.0 2\n", "b": "y 2.5\n", "d": "new\n"},
           "errors": [{"command": "e", "exit": 2, "stderr": "error: 3\n"}],
           "benchmark": {"ode fit 1": "[1.0, 5.0, 6]\n", "ode fit 2": "v 1\n"}}
    assert listing(old, new) == [
        "readme a: identical",
        "readme b: 1 of 1 numbers moved, largest relative change 0.2",
        "readme d: new",
        "error e: differs in more than number values",
        "ode fit 1: 2 of 3 numbers moved, largest relative change 0.2",
        "ode fit 2: differs in more than number values",
        "readme c: gone",
    ]
    # A golden file that predates the benchmark section lists its outputs new.
    assert listing({}, {"benchmark": {"ode fit 1": "1\n"}}) == ["ode fit 1: new"]


def test_readme_commands_are_read_once_each():
    commands = readme_commands()
    assert ["example", "list"] in commands
    assert ["lyapunov", "--system", "gbm", "--vector", "1", "--epsilon", "0.05"] in commands
    # The fit example appears twice in the README and three fits are extras.
    assert sum(argv[0] == "fit" for argv in commands) == 4
    assert len(commands) == len({tuple(argv) for argv in commands})
    for argv in commands:
        msd.cli.build_parser().parse_args(argv)


def test_error_commands_each_end_in_one_error_line():
    lines = error_lines()
    loads = "perturb --system perturbed.json --mode condition --scale 0.5 --trials 100"
    for command, code, err in lines:
        if command == loads:
            # The perturbed file `example show` prints now loads.
            assert (code, err) == (0, "")
            continue
        kind = "numeric" if code == 2 else "validation"
        assert code in (1, 2) and err.endswith("\n"), command
        assert err.splitlines()[-1].startswith(f"error: {kind}: "), command
        assert err.count("error: ") == 1 and "Traceback" not in err, command
    assert sum(code == 2 for _, code, _ in lines) == 7


if __name__ == "__main__":
    # Regenerates the golden file from this checkout's msd and lists what moved.
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        data, failed = _outputs()
    for line in failed:
        print(line, file=sys.stderr)
    if failed:
        sys.exit(f"{len(failed)} outputs failed; {GOLDEN.relative_to(_ROOT)} left as it was")
    for line in listing(json.loads(GOLDEN.read_text(encoding="utf-8")), data):
        print(line)
    GOLDEN.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(_ROOT)}: {len(data['readme'])} commands, "
          f"{len(data['errors'])} failing commands, {len(data['benchmark'])} benchmark "
          "outputs", file=sys.stderr)
