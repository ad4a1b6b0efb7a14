"""Run the benchmark and time msd's layers on a change and its parent in
alternating rounds, and record it all.

    python3 tools/bench_record.py --out BENCH_29.json [--parent PARENT_CHECKOUT] [--quick]

For this checkout (side ``change``) and, given ``--parent``, another (side
``parent``) it samples a fixed list of rows in ``ROUNDS`` rounds. Round r
samples every row once on each side, the parent first in even rounds and
the change first in odd ones, so a host that drifts drifts on both sides
alike. Each sample is a fresh process on the side's sources: a run of the
side's ``perfbench/run.py``, or else one of this file's ``_CHILD``
snippets, so that both sides of a row are measured by the same code. The
rows, by ``kind``:

* ``run``: per workload of ``BENCHMARK.json``, its ``command`` with
  ``--trace 0`` and its ``run_seconds`` at seed ``SEEDS[r % 3]``. Every run
  is kept, with its JSON line and the setup and pass times of its ``as
  measured`` stderr line, before calibration scales them; ``error`` says
  why a run exited non-zero, reported ``correct: false`` or failed an
  operation.
* ``rk4``: microseconds per grid step of ``moment_log_trace`` on k stacked
  starts of a constant n x n system (k = 1, 2, 4; n = 1, 2, 4, 5, 6, 8),
  all from t = 0, and at n = 5 and 6 with k = 2 and 4 also with
  ``per_start`` times, start j from t = j / 4, so that each start has its
  own coefficient tables and L and R are k rows wide, as in
  ``dichotomy_surface``; the median of ``repeats`` calls after a first.
* ``surface``: milliseconds per ``dichotomy_surface`` call on the ode
  workload's ``fit`` surface, the median of ``repeats`` calls after a first.
* ``draw``: nanoseconds per value of ``brownian_batch`` for ``paths`` paths
  over ``steps`` steps, the median of ``repeats`` calls after a first, which
  loads ``scipy.special``. 1000 x 4000 stands for the long blocks of the
  benchmark's Monte Carlo runs (mc's lyapunov draws 2000 x 1000, perturb's
  stability run blocks of 1000 x 2097); 10^5 x 41 for many paths over
  short blocks, where the per-path re-key weighs most (the block of a
  10^5-path run when ``CHUNK_VALUES`` was 2^22; it is 20 steps at 2^21).
* ``em``: nanoseconds per path-step of ``engines.euler_maruyama`` on
  ``system`` for ``paths`` paths over ``steps`` steps of 0.001 from
  t = 0.001, yielding the last node only, with or without the coupled
  ``inverse``; the median of ``repeats`` calls after a first. Each side
  draws its own blocks, so a block rule that slows a run of the CLI's
  default 10^4 paths shows here.
* ``startup``: the unscaled seconds of ``import msd.cli``, ``ru_maxrss``
  after it and whether it left ``scipy.special`` in ``sys.modules``.
* ``op``: per operation of each workload (``perfbench/workloads.py``) at
  seed 1, run as the benchmark's worker runs it: the wall time of a second
  call, so that the loads of the first (``scipy.special`` at the first
  draw) fall outside it, and ``ru_maxrss`` after ``import msd.cli`` and a
  first 3x3 stacked matmul (as the worker's calibration kernel makes one)
  and at the end, so that a ``peak_rss_mb`` rise they do not share shows as
  the worker's. The figures of a failed operation are None.

Every row but a run reports each of its figures as its :func:`quartiles`
over rounds, (first quartile, median, third quartile), so that a reader can
tell a row's move from its spread (None if a round failed it; a flag is
true if any round set it). Each side also records ``head`` and ``dirty``:
its ``git rev-parse HEAD`` and whether its tree differs from it, read
before the first round. A side whose HEAD differs after the last round was
not measured at one commit: the tool then exits 1, names both heads and
writes nothing.

With ``--parent`` and no failed run, ``summary`` holds per workload one
:func:`summarize` row per end-to-end metric and each side's medians of the
unscaled times, and stdout prints it. The host and the benchmark's known
faults are kept so that no reader takes them for msd's own. Format 11::

    {"format", "rounds", "host": {HOST_KEYS}, "known_faults": [...],
     "sides": {"change" | "parent": {"head", "dirty", "runs": [{RUN_KEYS}],
                                     "rows": [{ROW_KEYS[kind]}]}},
     "summary": {workload: {"end_to_end": [{SUMMARY_KEYS}],
                            "unscaled_medians": {UNSCALED: {side: median}}}}}

``--quick`` records one round: a 1 s mc run, three small rk4 rows (the
k = 2 one with ``per_start`` times), a small surface, a small draw, a small
em row, the start-up row and the mc operations, to check the tool. Exits 1
if any run or operation fails. Format 10 (``BENCH_29.json`` and
``BENCH_30.json``) kept only each row figure's median over rounds, format 9
(``BENCH_28.json``) had no em rows, format 8 (``BENCH_27.json``) no draw
rows either. Format 7 (``BENCH_26.json``) timed every row but the runs on
one side and then the other, each rk4 and surface row in one process per
side, the start-up row in 7, and the op rows with each side's own
``tools/op_peak.py``, the best of 3 calls in one process; the docstring of
this tool at the commit of each older BENCH file describes that file's
format.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The operation names are read from this checkout; listing them imports msd.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import operations  # noqa: E402

HOST_KEYS = ("nproc", "cpu_model", "python", "numpy", "scipy", "dont_write_bytecode")
SIDE_KEYS = ("head", "dirty", "runs", "rows")
UNSCALED = ("setup_unscaled_s", "pass_unscaled_s")
RUN_KEYS = ("workload", "pair", "seed", "seconds", "exit", "result", "error", *UNSCALED)
SUMMARY_KEYS = ("name", "parent", "change", "better", "worse", "worse_by", "spread", "verdict")
ROW_KEYS = {
    "rk4": ("kind", "k", "n", "per_start", "steps", "repeats", "us_per_step"),
    "surface": ("kind", "system", "rank", "s_values", "deltas", "dt", "repeats", "ms_per_call"),
    "draw": ("kind", "paths", "steps", "repeats", "ns_per_value"),
    "em": ("kind", "system", "paths", "steps", "inverse", "repeats", "ns_per_path_step"),
    "startup": ("kind", "import_unscaled_s", "rss_after_import_mb", "scipy_special"),
    "op": ("kind", "workload", "operation", "seed", "wall_s", "rss_after_import_mb",
           "rss_peak_mb"),
}
# Ten pairs is the fewest on which a gain may be claimed.
ROUNDS = 10
SEEDS = (1, 2, 3)
REPEATS = 5

# Benchmark faults that move its figures without any change in msd.
KNOWN_FAULTS = (
    "perfbench/worker.py keeps every pass's stdout, so peak_rss_mb grows with the number "
    "of passes a run fits: a faster msd reads a higher ode peak (ROADMAP item 1). In 25 s "
    "runs on a 2-core x86-64 host the ode worker read 84.1-84.5 MB at 27-28 passes at "
    "9c23543 and 91.6-92.2 MB at 47-48 passes with the RK4 step folded into one transfer "
    "matrix: about 0.37 MB per pass, the 384 KB that the moments operation prints.",
    "setup_s and wall_s are scaled by a calibration kernel timed beside them; on a shared "
    "host one side's unscaled pass times spread by tens of percent from run to run.",
    "With PYTHONDONTWRITEBYTECODE set (host dont_write_bytecode) each fresh interpreter "
    "compiles msd on import, so setup_s, peak_rss_mb and rss_after_import_mb grow with "
    "msd's source: +0.4-0.5 MB after import for 156 more lines of engines.py.",
)

# The child snippets run after _HEAD, which reads the row, and end by setting
# ``figures``; _TAIL prints them with the msd package the child imported.
_HEAD = "import json, sys, time\nrow = json.loads(sys.argv[1])\n"
_TAIL = '\nprint(json.dumps(figures | {"msd": sys.modules["msd"].__file__}))\n'

# The end of a timed child, which defines ``once()``, one call of what it
# times, and ``unit``: its figure's name and the factor that turns the
# median seconds of ``repeats`` calls after a first into that figure.
_TIMED = r"""
import statistics
once()
times = []
for _ in range(row["repeats"]):
    start = time.perf_counter()
    once()
    times.append(time.perf_counter() - start)
name, scale = unit
figures = {name: statistics.median(times) * scale}
"""

_RK4_CHILD = r"""
import numpy as np
from msd.engines import moment_log_trace
from msd.model import LinearSde

k, n, steps = row["k"], row["n"], row["steps"]
drift = [[str(-1.0 if i == j else 0.1 * (i - j)) for j in range(n)] for i in range(n)]
noise = [[str(0.2 if i == j else 0.0) for j in range(n)] for i in range(n)]
system = LinearSde.from_strings(n, drift, noise)
starts = np.stack([np.eye(n)] * k)
t_from = np.arange(k) / 4.0 if row["per_start"] else 0.0


def once():
    moment_log_trace([system] * k, starts, t_from, t_from + 1.0, dt=1.0 / steps)


unit = ("us_per_step", 1e6 / steps)
"""

# The surface of the ode workload's fit operation (perfbench/workloads.py).
SURFACE = {"system": "perron-ode", "rank": 1, "s_values": [0.5, 4.5],
           "deltas": [0.0, 50.0, 100.0], "dt": 0.02}

_SURFACE_CHILD = r"""
from msd.dichotomy import dichotomy_surface, pair_grid
from msd.model import gallery, make_projector

system = gallery(row["system"])
projector = make_projector(system.dim, row["rank"])
pairs = pair_grid(row["s_values"], row["deltas"])


def once():
    dichotomy_surface(system, projector, pairs, dt=row["dt"])


unit = ("ms_per_call", 1e3)
"""

_DRAW_CHILD = r"""
from msd.numerics import brownian_batch

paths, steps = row["paths"], row["steps"]


def once():
    brownian_batch(1, paths, 0.01, steps)


unit = ("ns_per_value", 1e9 / (paths * steps))
"""

_EM_CHILD = r"""
from msd.engines import TimeGrid, euler_maruyama
from msd.model import gallery

system, paths, steps = gallery(row["system"]), row["paths"], row["steps"]
grid = TimeGrid(0.001, 0.001, steps + 1)


def once():
    for _ in euler_maruyama(system, grid, paths, 1, [steps], inverse=row["inverse"]):
        pass


unit = ("ns_per_path_step", 1e9 / (paths * steps))
"""

_STARTUP_CHILD = r"""
import resource
start = time.perf_counter()
import msd.cli
elapsed = time.perf_counter() - start
figures = {"import_unscaled_s": elapsed,
           "rss_after_import_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "scipy_special": "scipy.special" in sys.modules}
"""

# sys.argv[2] is this checkout's perfbench directory, put after the side's
# sources so that the operations run the side's msd.
_OP_CHILD = r"""
import contextlib, io, resource
import numpy as np
import msd.cli
sys.path.append(sys.argv[2])
from workloads import operations


def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call(op):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if op.argv is not None:
            return msd.cli.dispatch(list(op.argv))
        op.call()
        return 0


[op] = [op for op in operations(row["workload"], row["seed"]) if op.name == row["operation"]]
np.ones((2, 3, 3)) @ np.ones((2, 3, 3))
after_import = peak_mb()
try:
    if op.prepare is not None:
        op.prepare()
    code = call(op)
    start = time.perf_counter()
    code = code or call(op)
    wall = time.perf_counter() - start
except Exception as exc:   # reported; the figures say it failed
    code = repr(exc)
if code:
    print(f"{row['workload']} {row['operation']} failed: {code}", file=sys.stderr)
    figures = dict.fromkeys(("wall_s", "rss_after_import_mb", "rss_peak_mb"))
else:
    figures = {"wall_s": wall, "rss_after_import_mb": after_import, "rss_peak_mb": peak_mb()}
"""

_CHILDREN = {"rk4": _RK4_CHILD + _TIMED, "surface": _SURFACE_CHILD + _TIMED,
             "draw": _DRAW_CHILD + _TIMED, "em": _EM_CHILD + _TIMED,
             "startup": _STARTUP_CHILD, "op": _OP_CHILD}


def host() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}


def git_state(checkout: Path) -> tuple[str | None, bool | None]:
    """HEAD of the checkout and whether its tree differs from it; None, None
    outside a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None, None
    return head.stdout.strip(), bool(git("status", "--porcelain").stdout.strip())


# perfbench/run.py's stderr line with setup_s and wall_s before calibration scales them.
_MEASURED = re.compile(r"^as measured: setup (\S+) s, pass (\S+) s;", re.MULTILINE)


def measured(stderr: str) -> dict:
    """The unscaled setup and pass times of a run's ``as measured`` line."""
    found = _MEASURED.findall(stderr)
    if not found:
        raise ValueError("no 'as measured' line on stderr")
    return dict(zip(UNSCALED, map(float, found[-1])))


def run_benchmark(checkout: Path, command: list[str], workload: str, pair: int, seed: int,
                  seconds: int) -> dict:
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    error, unscaled = None, dict.fromkeys(UNSCALED)
    if result is None:
        error = (proc.stderr.strip().splitlines() or ["no output"])[-1]
    elif not result["correct"] or result["failed"]:
        error = (f"correct {result['correct']}, {result['failed']} of "
                 f"{result['attempted']} operations failed")
    else:
        unscaled = measured(proc.stderr)
    return {"workload": workload, "pair": pair, "seed": seed, "seconds": seconds,
            "exit": proc.returncode, "result": result, "error": error} | unscaled


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Each side's quartiles, the pairs the change read better and worse (by
    the metric's ``better``), how much worse its median is and the parent's
    quartile spread, both relative to the parent's median, and the verdict:
    ``unresolved`` when that spread exceeds the metric's bound, else ``worse
    beyond bound`` or ``within bound``. ``metric`` is an ``end_to_end`` entry
    of ``BENCHMARK.json``; ``parent`` and ``change`` hold the same pairs' values."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p_q, c_q = quartiles(parent), quartiles(change)
    worse_by = sign * (c_q[1] - p_q[1]) / p_q[1]
    spread = (p_q[2] - p_q[0]) / p_q[1]
    if spread > metric["bound"]:
        verdict = "unresolved"
    elif worse_by > metric["bound"]:
        verdict = "worse beyond bound"
    else:
        verdict = "within bound"
    return {
        "name": metric["name"],
        "parent": p_q,
        "change": c_q,
        "better": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
        "worse": sum(sign * (c - p) > 0.0 for p, c in zip(parent, change)),
        "worse_by": worse_by,
        "spread": spread,
        "verdict": verdict,
    }


def summarize_runs(metrics: list[dict], parent: list[dict], change: list[dict]) -> dict:
    """One workload's :func:`summarize` row per end-to-end metric and each side's
    medians of the unscaled times, from the runs of each side in pair order."""
    def values(runs: list[dict], name: str) -> list[float]:
        return [run["result"]["metrics"][name]["value"] for run in runs]

    return {"end_to_end": [summarize(m, values(parent, m["name"]), values(change, m["name"]))
                           for m in metrics],
            "unscaled_medians": {name: {"parent": statistics.median(r[name] for r in parent),
                                        "change": statistics.median(r[name] for r in change)}
                                 for name in UNSCALED}}


def child(checkout: Path, code: str, row: dict) -> dict:
    """The figures that the snippet ``code`` prints for ``row`` in a fresh
    interpreter on the checkout's sources, and under ``msd`` the file of the
    msd package it imported."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", _HEAD + code + _TAIL, json.dumps(row),
                           str(ROOT / "perfbench")],
                          env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def sample(checkout: Path, row: dict, r: int) -> dict:
    """One sample of ``row`` in round ``r`` on the checkout: a benchmark run,
    or the figures of the row's child snippet."""
    if row["kind"] == "run":
        return run_benchmark(checkout, row["command"], row["workload"], r,
                             SEEDS[r % len(SEEDS)], row["seconds"])
    figures = child(checkout, _CHILDREN[row["kind"]], row)
    imported = Path(figures.pop("msd"))
    if not imported.is_relative_to(checkout / "src"):
        raise RuntimeError(f"{row['kind']} child imported {imported}, not {checkout}'s msd")
    return figures


def alternate(sides: dict[str, Path], rows: list[dict], rounds: int, sample) -> dict:
    """Per side and row, the ``sample(checkout, row, r)`` of each round r,
    taking every row on each side in turn, the parent first in even rounds."""
    out = {name: [[] for _ in rows] for name in sides}
    for r in range(rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for i, row in enumerate(rows):
            for name in (name for name in order if name in sides):
                out[name][i].append(sample(sides[name], row, r))
                sys.stderr.write(f"round {r} {name} {json.dumps(row)}: "
                                 f"{json.dumps(out[name][i][-1])}\n")
    return out


def figure_quartiles(samples: list[dict]) -> dict:
    """Each figure's :func:`quartiles` over a row's samples: None if one
    lacks it, and for a flag whether any sample set it."""
    out = {}
    for key in samples[0]:
        values = [figures[key] for figures in samples]
        out[key] = (None if None in values else any(values) if isinstance(values[0], bool)
                    else quartiles(values))
    return out


def plan(bench: dict, quick: bool) -> tuple[list[dict], int]:
    """The rows of a full or quick record, and its number of rounds."""
    if quick:
        workloads, seconds, rounds, steps = ["mc"], 1, 1, 100
        rk4_sizes = ((1, 1, False), (2, 2, True), (1, 8, False))
        surface = SURFACE | {"deltas": [0.0, 1.0, 2.0]}
        draws = ((200, 50),)
        ems = ((200, 50, True),)
    else:
        workloads = [workload["name"] for workload in bench["workloads"]]
        seconds, rounds, steps = bench["run_seconds"], ROUNDS, 1000
        rk4_sizes = (*((k, n, False) for n in (1, 2, 4, 5, 6, 8) for k in (1, 2, 4)),
                     *((k, n, True) for n in (5, 6) for k in (2, 4)))
        surface = SURFACE
        draws = ((1000, 4000), (100_000, 41))
        ems = ((10_000, 1000, False), (10_000, 1000, True))
    return [
        *({"kind": "run", "workload": workload, "command": bench["command"],
           "seconds": seconds} for workload in workloads),
        *({"kind": "rk4", "k": k, "n": n, "per_start": per_start, "steps": steps,
           "repeats": REPEATS} for k, n, per_start in rk4_sizes),
        {"kind": "surface"} | surface | {"repeats": REPEATS},
        *({"kind": "draw", "paths": paths, "steps": steps, "repeats": REPEATS}
          for paths, steps in draws),
        *({"kind": "em", "system": "perron-sde", "paths": paths, "steps": steps,
           "inverse": inverse, "repeats": REPEATS} for paths, steps, inverse in ems),
        {"kind": "startup"},
        *({"kind": "op", "workload": workload, "operation": op.name, "seed": SEEDS[0]}
          for workload in workloads for op in operations(workload, SEEDS[0])),
    ], rounds


def record(sides: dict[str, Path], bench: dict, rows: list[dict], rounds: int,
           sample=sample, state=git_state) -> dict:
    """The record of ``rows`` sampled in ``rounds`` rounds on each side, with
    each side's ``state(checkout)`` (head, dirty) as it stood before the
    first; raises SystemExit, exit status 1, if a side's head moved by the
    last round."""
    before = {name: state(checkout) for name, checkout in sides.items()}
    samples = alternate(sides, rows, rounds, sample)
    for name, checkout in sides.items():
        head = state(checkout)[0]
        if head != before[name][0]:
            raise SystemExit(f"error: the {name} side's HEAD moved from {before[name][0]} "
                             f"to {head} while it was sampled; nothing recorded")
    out = {}
    for name in sides:
        head, dirty = before[name]
        sampled = list(zip(rows, samples[name]))
        out[name] = {"head": head, "dirty": dirty,
                     "runs": [run for row, runs in sampled if row["kind"] == "run"
                              for run in runs],
                     "rows": [row | figure_quartiles(figures) for row, figures in sampled
                              if row["kind"] != "run"]}
    data = {"format": 11, "rounds": rounds, "host": host(), "known_faults": list(KNOWN_FAULTS),
            "sides": out}
    # A failed run leaves its pair without figures; the summary needs every pair.
    if "parent" in sides and not any(run["error"] for side in out.values()
                                     for run in side["runs"]):
        data["summary"] = {row["workload"]: summarize_runs(
            bench["end_to_end"], *([run for run in out[name]["runs"]
                                    if run["workload"] == row["workload"]]
                                   for name in ("parent", "change")))
            for row in rows if row["kind"] == "run"}
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    parser.add_argument("--parent", type=Path, help="checkout to record as the parent")
    parser.add_argument("--quick", action="store_true",
                        help="one round: a 1 s mc run, small rk4, surface, draw and em "
                             "rows, mc operations")
    args = parser.parse_args(argv)
    sides = {"change": ROOT}
    if args.parent is not None:
        if not (args.parent / "perfbench" / "run.py").is_file():
            parser.error(f"{args.parent} holds no perfbench/run.py")
        sides["parent"] = args.parent.resolve()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    data = record(sides, bench, *plan(bench, args.quick))
    args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    for workload, summary in data.get("summary", {}).items():
        print(workload, json.dumps(summary))
    failed = any(run["error"] is not None for side in data["sides"].values()
                 for run in side["runs"])
    failed |= any(row["kind"] == "op" and row["wall_s"] is None
                  for side in data["sides"].values() for row in side["rows"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
