"""Run the benchmark on a change and its parent in alternating pairs, time
the RK4 moment layer of each, and record it all.

    python3 tools/bench_record.py --out BENCH_26.json [--parent PARENT_CHECKOUT] [--quick]

For this checkout (side ``change``) and, given ``--parent``, another
(side ``parent``) it records:

* ``runs``: per workload of ``BENCHMARK.json``, ``PAIRS`` runs of its
  ``command`` with ``--trace 0`` and its ``run_seconds``. Pair i runs at seed
  ``SEEDS[i % 3]``, the parent first in even pairs and the change first in
  odd ones, so a host that drifts drifts on both sides alike. A run keeps
  its JSON line and the setup and pass times of its ``as measured`` stderr
  line, before calibration scales them; ``error`` says why a run exited
  non-zero, reported ``correct: false`` or failed an operation.
* ``rk4``: microseconds per grid step of ``moment_log_trace`` on k stacked
  starts of a constant n x n system (k = 1, 2, 4; n = 1, 2, 4, 5, 6, 8),
  all from t = 0, and at n = 5 and 6 with k = 2 and 4 also with
  ``per_start`` times, start j from t = j / 4, so that each start has its
  own coefficient tables and L and R are k rows wide, as in
  ``dichotomy_surface``; and ``surface``: milliseconds per
  ``dichotomy_surface`` call on the ode workload's ``fit`` surface; each the
  median of 7 calls in a fresh interpreter on the checkout's sources.
* ``startup``: ``import msd.cli`` in a fresh interpreter on the checkout's
  sources, 7 times: the medians of the unscaled import seconds and of
  ``ru_maxrss`` after the import, and whether an import left
  ``scipy.special`` in ``sys.modules``.
* ``op_peaks``: per workload, the rows of ``tools/op_peak.py WORKLOAD
  --repeat OP_REPEAT``, so that a ``peak_rss_mb`` rise they do not share
  shows as the worker's. Each wall time is the best of ``OP_REPEAT`` calls
  in one process: the first call of an operation that draws pays the
  ``scipy.special`` import, which one sample would report as its cost.
* ``head`` and ``dirty``: the checkout's ``git rev-parse HEAD`` and whether
  its tree differs from it.

With ``--parent`` and no failed run, ``summary`` holds per workload one
:func:`summarize` row per end-to-end metric and each side's medians of the
unscaled times, and stdout prints it. The host and the benchmark's known
faults are kept so that no reader takes them for msd's own. Format 7::

    {"format", "host": {HOST_KEYS}, "known_faults": [...],
     "sides": {"change" | "parent": {SIDE_KEYS}},
     "summary": {workload: {"end_to_end": [{SUMMARY_KEYS}],
                            "unscaled_medians": {UNSCALED: {side: median}}}}}
    runs: [{RUN_KEYS}]    rk4: [{RK4_KEYS}]    surface: {SURFACE_KEYS}
    startup: {STARTUP_KEYS}    op_peaks: {workload: [{OP_PEAK_KEYS}]}

``--quick`` records one 1 s mc run at seed 1, three small rk4 rows (the
k = 2 one with ``per_start`` times), a small surface, the start-up row and
the op peaks of mc at one call each, to check the tool. Exits 1 if any run
or operation fails. Format 6 (``BENCH_25.json``) had no start-up row, no
``per_start`` rk4 rows and one call per op peak; format 5 (``BENCH_24.json``)
ran one pair per seed 1-3, with no unscaled times, summary or bytecode flag;
the docstring of this tool at the commit of each older BENCH file describes
that file's format.
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

HOST_KEYS = ("nproc", "cpu_model", "python", "numpy", "scipy", "dont_write_bytecode")
SIDE_KEYS = ("head", "dirty", "runs", "rk4", "surface", "startup", "op_peaks")
UNSCALED = ("setup_unscaled_s", "pass_unscaled_s")
RUN_KEYS = ("workload", "pair", "seed", "seconds", "exit", "result", "error", *UNSCALED)
SUMMARY_KEYS = ("name", "parent", "change", "better", "worse", "worse_by", "spread", "verdict")
RK4_KEYS = ("k", "n", "per_start", "steps", "repeats", "us_per_step")
SURFACE_KEYS = ("system", "rank", "s_values", "deltas", "dt", "repeats", "ms_per_call")
STARTUP_KEYS = ("repeats", "import_unscaled_s", "rss_after_import_mb", "scipy_special")
OP_PEAK_KEYS = ("operation", "repeat", "wall_s", "rss_after_import_mb", "rss_peak_mb")
# Ten pairs is the fewest on which a gain may be claimed.
PAIRS = 10
SEEDS = (1, 2, 3)
OP_REPEAT = 3

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

# Timed in a fresh interpreter with the checkout's sources first on the path.
_RK4_CHILD = r"""
import json, statistics, sys, time
import numpy as np
from msd.engines import moment_log_trace
from msd.model import LinearSde

k, n, per_start, steps, repeats = (int(x) for x in sys.argv[1:6])
drift = [[str(-1.0 if i == j else 0.1 * (i - j)) for j in range(n)] for i in range(n)]
noise = [[str(0.2 if i == j else 0.0) for j in range(n)] for i in range(n)]
system = LinearSde.from_strings(n, drift, noise)
starts = np.stack([np.eye(n)] * k)
t_from = np.arange(k) / 4.0 if per_start else 0.0
dt = 1.0 / steps
moment_log_trace([system] * k, starts, t_from, t_from + 1.0, dt=dt)
times = []
for _ in range(repeats):
    start = time.perf_counter()
    moment_log_trace([system] * k, starts, t_from, t_from + 1.0, dt=dt)
    times.append(time.perf_counter() - start)
print(json.dumps({"us_per_step": statistics.median(times) / steps * 1e6}))
"""

# The surface of the ode workload's fit operation (perfbench/workloads.py).
SURFACE = {"system": "perron-ode", "rank": 1, "s_values": [0.5, 4.5],
           "deltas": [0.0, 50.0, 100.0], "dt": 0.02}

_SURFACE_CHILD = r"""
import json, statistics, sys, time
from msd.dichotomy import dichotomy_surface, pair_grid
from msd.model import gallery, make_projector

spec, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
system = gallery(spec["system"])
projector = make_projector(system.dim, spec["rank"])
pairs = pair_grid(spec["s_values"], spec["deltas"])
dichotomy_surface(system, projector, pairs, dt=spec["dt"])
times = []
for _ in range(repeats):
    start = time.perf_counter()
    dichotomy_surface(system, projector, pairs, dt=spec["dt"])
    times.append(time.perf_counter() - start)
print(json.dumps({"ms_per_call": statistics.median(times) * 1e3}))
"""


_STARTUP_CHILD = r"""
import json, resource, sys, time
start = time.perf_counter()
import msd.cli
elapsed = time.perf_counter() - start
print(json.dumps({"import_unscaled_s": elapsed,
                  "rss_after_import_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "scipy_special": "scipy.special" in sys.modules}))
"""


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


def time_in_child(checkout: Path, code: str, *args: str) -> dict:
    """The JSON line ``code`` prints in a fresh interpreter on the checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def startup(checkout: Path, repeats: int) -> dict:
    """Medians of ``repeats`` imports of ``msd.cli``, each in a fresh
    interpreter, and whether any of them loaded ``scipy.special``."""
    rows = [time_in_child(checkout, _STARTUP_CHILD) for _ in range(repeats)]
    return {"repeats": repeats,
            "import_unscaled_s": statistics.median(row["import_unscaled_s"] for row in rows),
            "rss_after_import_mb": statistics.median(row["rss_after_import_mb"] for row in rows),
            "scipy_special": any(row["scipy_special"] for row in rows)}


def op_peaks(checkout: Path, workload: str, repeat: int) -> list[dict]:
    """The rows ``tools/op_peak.py WORKLOAD --repeat REPEAT`` prints in the
    checkout, one per operation; figures of a failed operation are None."""
    proc = subprocess.run([sys.executable, "tools/op_peak.py", workload, "--repeat", str(repeat)],
                          cwd=checkout, stdout=subprocess.PIPE, text=True)
    rows = []
    for line in proc.stdout.splitlines():
        name, *rest = line.split()
        figures = dict(zip(rest[::2], rest[1::2]))
        failed = not rest or rest[0] == "failed"
        rows.append({"operation": name, "repeat": repeat} | {
            key: None if failed else float(figures[key]) for key in OP_PEAK_KEYS[2:]})
    return rows


def record(sides: dict[str, Path], bench: dict, workloads: list[str], pairs: int,
           seconds: int, rk4_sizes: tuple, steps: int, surface: dict, repeats: int,
           op_repeat: int) -> dict:
    names = list(sides)
    out = {name: {"runs": [], "rk4": []} for name in names}
    for workload in workloads:
        for i in range(pairs):
            seed = SEEDS[i % len(SEEDS)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in (name for name in order if name in sides):
                run = run_benchmark(sides[name], bench["command"], workload, i, seed, seconds)
                out[name]["runs"].append(run)
                sys.stderr.write(f"{name} {workload} pair {i} seed {seed}: "
                                 f"{json.dumps(run['result'] or run['error'])}\n")
    for k, n, per_start in rk4_sizes:
        for name in names:
            row = {"k": k, "n": n, "per_start": per_start, "steps": steps,
                   "repeats": repeats} | time_in_child(
                sides[name], _RK4_CHILD, str(k), str(n), str(int(per_start)), str(steps),
                str(repeats))
            out[name]["rk4"].append(row)
            sys.stderr.write(f"{name} rk4 k={k} n={n} per_start={per_start}: "
                             f"{row['us_per_step']:.1f} us/step\n")
    for name in names:
        out[name]["surface"] = surface | {"repeats": repeats} | time_in_child(
            sides[name], _SURFACE_CHILD, json.dumps(surface), str(repeats))
        sys.stderr.write(f"{name} surface: {out[name]['surface']['ms_per_call']:.1f} ms\n")
        out[name]["startup"] = startup(sides[name], repeats)
        sys.stderr.write(f"{name} startup: {json.dumps(out[name]['startup'])}\n")
        out[name]["op_peaks"] = {workload: op_peaks(sides[name], workload, op_repeat)
                                 for workload in workloads}
        sys.stderr.write(f"{name} op peaks: {json.dumps(out[name]['op_peaks'])}\n")
        out[name]["head"], out[name]["dirty"] = git_state(sides[name])
        out[name] = {key: out[name][key] for key in SIDE_KEYS}
    data = {"format": 7, "host": host(), "known_faults": list(KNOWN_FAULTS), "sides": out}
    # A failed run leaves its pair without figures; the summary needs every pair.
    if "parent" in sides and not any(run["error"] for side in out.values()
                                     for run in side["runs"]):
        data["summary"] = {workload: summarize_runs(
            bench["end_to_end"], *([run for run in out[name]["runs"] if run["workload"] == workload]
                                   for name in ("parent", "change")))
            for workload in workloads}
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    parser.add_argument("--parent", type=Path, help="checkout to record as the parent")
    parser.add_argument("--quick", action="store_true",
                        help="one 1 s mc run, small rk4 and surface rows, one-call op peaks")
    args = parser.parse_args(argv)
    sides = {"change": ROOT}
    if args.parent is not None:
        if not (args.parent / "perfbench" / "run.py").is_file():
            parser.error(f"{args.parent} holds no perfbench/run.py")
        sides["parent"] = args.parent.resolve()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.quick:
        workloads, pairs, seconds, op_repeat = ["mc"], 1, 1, 1
        rk4_sizes, steps = ((1, 1, False), (2, 2, True), (1, 8, False)), 100
        surface = SURFACE | {"deltas": [0.0, 1.0, 2.0]}
    else:
        workloads = [workload["name"] for workload in bench["workloads"]]
        pairs, seconds, op_repeat = PAIRS, bench["run_seconds"], OP_REPEAT
        rk4_sizes = (*((k, n, False) for n in (1, 2, 4, 5, 6, 8) for k in (1, 2, 4)),
                     *((k, n, True) for n in (5, 6) for k in (2, 4)))
        steps = 1000
        surface = SURFACE
    data = record(sides, bench, workloads, pairs, seconds, rk4_sizes, steps, surface,
                  repeats=7, op_repeat=op_repeat)
    args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    for workload, summary in data.get("summary", {}).items():
        print(workload, json.dumps(summary))
    failed = any(run["error"] is not None for side in data["sides"].values()
                 for run in side["runs"])
    failed |= any(row["rss_peak_mb"] is None for side in data["sides"].values()
                  for rows in side["op_peaks"].values() for row in rows)
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main())
