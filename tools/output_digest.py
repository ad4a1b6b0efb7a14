"""Digest the stdout of every benchmark operation, for byte-identity checks.

Prints one ``workload operation seed sha256`` line per operation of
``perfbench/workloads.py`` at each seed, running the operations in process
as the benchmark's worker does: command lines through ``msd.cli.dispatch``
and library operations through their call. To check that a change leaves
every output byte alone, run it on both checkouts and compare:

    python3 tools/output_digest.py > after.txt      # in each checkout
    diff before.txt after.txt

Exits 1 if an operation exits non-zero or raises; its line then carries the
failure in place of a digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import msd.cli  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402


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


def main() -> int:
    failed = 0
    for workload in WORKLOADS:
        for seed in (1, 2, 3):
            for op in operations(workload, seed):
                try:
                    code, text = stdout_of(op)
                    digest = f"exit-{code}" if code else hashlib.sha256(text.encode()).hexdigest()
                except Exception as exc:   # reported; the other operations still run
                    print(f"{workload} {op.name} {seed}: {exc!r}", file=sys.stderr)
                    code, digest = 1, f"raised-{type(exc).__name__}"
                failed += code != 0
                print(f"{workload} {op.name} {seed} {digest}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
