"""Digest the stdout of every benchmark operation and README command, for
byte-identity checks.

Prints one ``workload operation seed sha256`` line per operation of
``perfbench/workloads.py`` at each seed, running the operations in process
as the benchmark's worker does: command lines through ``msd.cli.dispatch``
and library operations through their call. Then prints one
``readme ARGV sha256`` line per ``msd`` command in the README's shell
blocks, and per command of ``EXTRA``, run through ``msd.cli.dispatch``
too. To check that a change leaves every output byte alone, run it on both
checkouts (copy this file into a checkout that lacks it) and compare:

    python3 tools/output_digest.py > after.txt      # in each checkout
    diff before.txt after.txt

Exits 1 if an operation exits non-zero or raises; its line then carries the
failure in place of a digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import msd.cli  # noqa: E402
from workloads import WORKLOADS, Op, operations  # noqa: E402

# Output shapes that neither the benchmark nor the README's examples print.
EXTRA = (
    "moments --system gbm --t1 1.0 --format json",
    "fit --system gbm --s-values 0,1 --deltas 0,1,2 --format csv",
    "example show --system perron-sde-perturbed",
)


def readme_commands() -> list[list[str]]:
    """The argv of every distinct ``msd`` command line in the README's
    ``sh`` blocks (a leading ``$ `` and a trailing comment dropped), in
    order, then those of ``EXTRA``."""
    commands: list[list[str]] = []
    in_shell = False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_shell = line == "```sh"
            continue
        text = line.removeprefix("$ ")
        if in_shell and text.startswith("msd "):
            argv = shlex.split(text, comments=True)[1:]
            if argv not in commands:
                commands.append(argv)
    return commands + [shlex.split(command) for command in EXTRA]


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


def main() -> int:
    failed = 0
    for workload in WORKLOADS:
        for seed in (1, 2, 3):
            for op in operations(workload, seed):
                failed += report(f"{workload} {op.name} {seed}", op)
    for argv in readme_commands():
        failed += report(f"readme {shlex.join(argv)}",
                         Op("readme", check=None, params={}, argv=argv))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
