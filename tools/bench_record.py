"""Record the benchmark and the RK4 moment layer of one or two checkouts.

    python3 tools/bench_record.py --out BENCH_24.json [--parent PARENT_CHECKOUT] [--quick]

For this checkout (side ``change``) and, given ``--parent``, for another
checkout (side ``parent``) it records:

* ``runs``: one ``perfbench/run.py --trace 0`` line per workload of this
  checkout's ``BENCHMARK.json`` and seed 1, 2 and 3, run in that checkout
  as it is for the ``run_seconds`` of that file. The two sides alternate
  which runs first, so a host that drifts drifts on both alike.
* ``rk4``: microseconds per step of the RK4 moment loop for k starts on a
  constant n x n system (k = 1, 2, 4; n = 1, 2, 4, 5, 6, 8), the median of 7
  timed calls of ``moment_log_trace`` on a stack of the k starts, in a
  fresh interpreter on that checkout's sources. Per step means per grid
  step, whatever k is. The loop steps vech M up to n = 5 and M itself
  above, so n = 6 and 8 time the matrix loop. A checkout whose
  ``moment_log_trace`` takes no stack fails the timing, and the tool with
  it.
* ``surface``: milliseconds per ``dichotomy_surface`` call on the surface
  of the ode workload's ``fit`` operation (perron-ode, rank 1, s = 0.5 and
  4.5, gaps 0, 50 and 100, dt 0.02), the median of 7 timed calls in a
  fresh interpreter on that checkout's sources.
* ``op_peaks``: for each workload of the runs, one row per operation from
  ``tools/op_peak.py WORKLOAD`` run in that checkout, each operation in a
  fresh process: its best wall time and its peak resident set after
  ``import msd.cli`` and at the end, in MB. A run's ``peak_rss_mb`` that
  rises while these do not comes from the benchmark's worker, not from msd
  (the first known fault).
* ``head`` and ``dirty``: ``git rev-parse HEAD`` of the checkout, and
  whether its tree differs from that commit.

It also records the host (``nproc``, the CPU model, the Python, numpy and
scipy versions) and the benchmark's known faults, so that a later reader
does not take them for msd's own. The file's layout::

    {"format", "host": {HOST_KEYS}, "known_faults": [...],
     "sides": {"change" | "parent": {SIDE_KEYS}}}
    runs: [{RUN_KEYS}]    rk4: [{RK4_KEYS}]    surface: {SURFACE_KEYS}
    op_peaks: {workload: [{OP_PEAK_KEYS}]}

``result`` of a run is its JSON line, or null when it exited non-zero (its
last stderr line is kept in ``error``). An operation that ``op_peak.py``
reports failed keeps null figures. ``--quick`` records one 1 s mc run at
seed 1, the loop at (k, n) = (1, 1), (2, 2) and (1, 8) over 100 steps,
the surface at gaps 0, 1 and 2, and the op peaks of mc, to check the tool
itself. Exits 1 if any run or operation fails. This is format 5; format 4
(``BENCH_23.json``) keeps ``op_peaks`` as the one list of the ode workload,
format 3 (``BENCH_22.json``) has no ``op_peaks`` and no rk4 rows above n = 4,
format 2 has no ``surface``, and the rk4 rows of format 1
(``BENCH_21.json``) also carry ``stacked``, false where a checkout without
stacks was timed by k calls of one start each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HOST_KEYS = ("nproc", "cpu_model", "python", "numpy", "scipy")
SIDE_KEYS = ("head", "dirty", "runs", "rk4", "surface", "op_peaks")
RUN_KEYS = ("workload", "seed", "seconds", "exit", "result", "error")
RK4_KEYS = ("k", "n", "steps", "repeats", "us_per_step")
SURFACE_KEYS = ("system", "rank", "s_values", "deltas", "dt", "repeats", "ms_per_call")
OP_PEAK_KEYS = ("operation", "wall_s", "rss_after_import_mb", "rss_peak_mb")
SEEDS = (1, 2, 3)

# Benchmark faults that move its figures without any change in msd.
KNOWN_FAULTS = (
    "perfbench/worker.py keeps every pass's stdout, so peak_rss_mb grows with the "
    "number of passes a run fits: a faster msd reads a higher ode peak "
    "(ROADMAP item 1). In 25 s runs at seeds 1-3 on a 2-core x86-64 host, the "
    "ode worker read 84.5/84.1/84.4 MB at 28/28/27 passes at 9c23543, and "
    "91.9/92.2/91.6 MB at 48/48/47 passes with each RK4 moment step folded into "
    "one transfer matrix: about 0.37 MB per pass, the 384 KB that the moments "
    "operation prints. The rise grows with the host's speed: +9 % here, and "
    "+5 to +8 % when the host was slower and 17-19 passes fit against 30-34.",
    "setup_s and wall_s are scaled by a calibration kernel timed beside them; on a "
    "shared host the unscaled pass times of one side spread by tens of percent, "
    "so compare sides over several seeds and in alternating order.",
)

# Timed in a fresh interpreter with the checkout's sources first on the path.
_RK4_CHILD = r"""
import json, statistics, sys, time
import numpy as np
from msd.engines import moment_log_trace
from msd.model import LinearSde

k, n, steps, repeats = (int(x) for x in sys.argv[1:5])
drift = [[str(-1.0 if i == j else 0.1 * (i - j)) for j in range(n)] for i in range(n)]
noise = [[str(0.2 if i == j else 0.0) for j in range(n)] for i in range(n)]
system = LinearSde.from_strings(n, drift, noise)
starts = np.stack([np.eye(n)] * k)
dt = 1.0 / steps
moment_log_trace([system] * k, starts, 0.0, 1.0, dt=dt)
times = []
for _ in range(repeats):
    start = time.perf_counter()
    moment_log_trace([system] * k, starts, 0.0, 1.0, dt=dt)
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
            "scipy": scipy.__version__}


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


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    ok = proc.returncode == 0 and bool(lines)
    errors = proc.stderr.strip().splitlines()
    return {"workload": workload, "seed": seed, "seconds": seconds, "exit": proc.returncode,
            "result": json.loads(lines[-1]) if ok else None,
            "error": None if ok else (errors[-1] if errors else "no output")}


def time_rk4(checkout: Path, k: int, n: int, steps: int, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", _RK4_CHILD, str(k), str(n), str(steps),
                           str(repeats)], env=env, stdout=subprocess.PIPE, text=True,
                          check=True)
    return {"k": k, "n": n, "steps": steps, "repeats": repeats} | json.loads(proc.stdout)


def time_surface(checkout: Path, surface: dict, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", _SURFACE_CHILD, json.dumps(surface),
                           str(repeats)], env=env, stdout=subprocess.PIPE, text=True,
                          check=True)
    return surface | {"repeats": repeats} | json.loads(proc.stdout)


def op_peaks(checkout: Path, workload: str) -> list[dict]:
    """The rows ``tools/op_peak.py WORKLOAD`` prints in the checkout, one per
    operation; figures of a failed operation are None."""
    proc = subprocess.run([sys.executable, "tools/op_peak.py", workload], cwd=checkout,
                          stdout=subprocess.PIPE, text=True)
    rows = []
    for line in proc.stdout.splitlines():
        name, *rest = line.split()
        figures = dict(zip(rest[::2], rest[1::2]))
        failed = not rest or rest[0] == "failed"
        rows.append({"operation": name} | {key: None if failed else float(figures[key])
                                           for key in OP_PEAK_KEYS[1:]})
    return rows


def record(sides: dict[str, Path], workloads: list[str], seeds: list[int], seconds: int,
           rk4_sizes: tuple, steps: int, surface: dict, repeats: int) -> dict:
    names = list(sides)
    out = {name: {"runs": [], "rk4": []} for name in names}
    for i, (workload, seed) in enumerate((w, s) for w in workloads for s in seeds):
        for name in names if i % 2 == 0 else names[::-1]:
            run = run_benchmark(sides[name], workload, seed, seconds)
            out[name]["runs"].append(run)
            sys.stderr.write(f"{name} {workload} seed {seed}: "
                             f"{json.dumps(run['result'] or run['error'])}\n")
    for k, n in rk4_sizes:
        for name in names:
            row = time_rk4(sides[name], k, n, steps, repeats)
            out[name]["rk4"].append(row)
            sys.stderr.write(f"{name} rk4 k={k} n={n}: {row['us_per_step']:.1f} us/step\n")
    for name in names:
        out[name]["surface"] = time_surface(sides[name], surface, repeats)
        sys.stderr.write(f"{name} surface: {out[name]['surface']['ms_per_call']:.1f} ms\n")
    for name in names:
        out[name]["op_peaks"] = {workload: op_peaks(sides[name], workload)
                                 for workload in workloads}
        for workload, rows in out[name]["op_peaks"].items():
            for row in rows:
                sys.stderr.write(f"{name} {workload} {row['operation']}: "
                                 f"peak {row['rss_peak_mb']} MB\n")
    for name in names:
        out[name]["head"], out[name]["dirty"] = git_state(sides[name])
        out[name] = {key: out[name][key] for key in SIDE_KEYS}
    return {"format": 5, "host": host(), "known_faults": list(KNOWN_FAULTS), "sides": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    parser.add_argument("--parent", type=Path, help="checkout to record as the parent")
    parser.add_argument("--quick", action="store_true",
                        help="one 1 s mc run, a small loop, a small surface and the "
                             "mc op peaks, to check the tool")
    args = parser.parse_args(argv)
    sides = {"change": ROOT}
    if args.parent is not None:
        if not (args.parent / "perfbench" / "run.py").is_file():
            parser.error(f"{args.parent} holds no perfbench/run.py")
        sides["parent"] = args.parent.resolve()
    if args.quick:
        workloads, seeds, seconds = ["mc"], [1], 1
        rk4_sizes, steps = ((1, 1), (2, 2), (1, 8)), 100
        surface = SURFACE | {"deltas": [0.0, 1.0, 2.0]}
    else:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = [workload["name"] for workload in bench["workloads"]]
        seeds, seconds = list(SEEDS), bench["run_seconds"]
        rk4_sizes, steps = tuple((k, n) for n in (1, 2, 4, 5, 6, 8) for k in (1, 2, 4)), 1000
        surface = SURFACE
    data = record(sides, workloads, seeds, seconds, rk4_sizes, steps, surface, repeats=7)
    args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    failed = any(run["exit"] != 0 for side in data["sides"].values() for run in side["runs"])
    failed |= any(row["rss_peak_mb"] is None for side in data["sides"].values()
                  for rows in side["op_peaks"].values() for row in rows)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
