"""The byte contract: every README and ``EXTRA`` command of
``tools/output_digest.py`` prints what ``tests/outputs.golden.json`` holds,
and every command of its ``ERRORS`` exits and reports as recorded.

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

After a change that moves output on purpose, regenerate the file with

    PYTHONPATH=src python3 tests/test_outputs.py

and say in the change's notes which outputs moved.
"""

import contextlib
import importlib.util
import io
import json
import math
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

import msd.cli

_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "outputs.golden.json"
RTOL, ATOL = 1e-9, 1e-12


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, _ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


output_digest = _load_tool("output_digest")
output_numbers = _load_tool("output_numbers")


def _stdout(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = msd.cli.dispatch(list(argv))
    return code, out.getvalue()


def _outputs() -> dict:
    """What the golden file holds, computed in the current directory."""
    readme = {}
    for argv in output_digest.readme_commands():
        code, text = _stdout(argv)
        if code:
            raise RuntimeError(f"msd {shlex.join(argv)} exited {code}")
        readme[shlex.join(argv)] = text
    errors = [{"command": command, "exit": code, "stderr": err}
              for command, code, err in output_digest.error_lines()]
    return {"readme": readme, "errors": errors}


def _refuse(token):
    raise ValueError(f"non-JSON constant {token}")


def assert_matches(label: str, got: str, want: str) -> None:
    """``got`` equals ``want`` outside its numbers, and each number within
    RTOL or ATOL."""
    number = output_numbers._NUMBER
    why = output_numbers.compare(got, want) or "differs in more than number values"
    assert number.sub("#", got) == number.sub("#", want), f"{label}: {why}"
    for a, b in zip(number.findall(got), number.findall(want)):
        close = a == b or math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=ATOL)
        assert close, f"{label}: {why}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_readme_command_is_recorded(golden):
    assert list(golden["readme"]) == [shlex.join(argv)
                                      for argv in output_digest.readme_commands()]


@pytest.mark.parametrize("argv", output_digest.readme_commands(), ids=shlex.join)
def test_readme_command_prints_its_recorded_output(argv, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    label = shlex.join(argv)
    code, text = _stdout(argv)
    assert code == 0, label
    if text.startswith("{"):
        json.loads(text, parse_constant=_refuse)
    assert_matches(label, text, golden["readme"][label])


def test_error_commands_exit_and_report_as_recorded(golden):
    got = output_digest.error_lines()
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


if __name__ == "__main__":
    # Regenerates the golden file from this checkout's msd.
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        data = _outputs()
    GOLDEN.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(_ROOT)}: {len(data['readme'])} commands, "
          f"{len(data['errors'])} failing commands", file=sys.stderr)
