"""The repository tools on fixed inputs, and the names the benchmark tracer pins."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_summary_within_bound_counts_pairs():
    row = bench_pairs.summarize(WALL, [2.0, 2.1, 2.2, 2.0, 2.1],
                                [2.1, 2.0, 2.2, 2.2, 2.0])
    assert row["parent"] == (2.0, 2.1, 2.1)
    assert row["change"] == (2.0, 2.1, 2.2)
    assert (row["better"], row["worse"]) == (2, 2)
    assert row["worse_by"] == 0.0
    assert row["verdict"] == "within bound"


def test_summary_worse_beyond_bound():
    row = bench_pairs.summarize(WALL, [2.0, 2.0, 2.1], [2.6, 2.7, 2.8])
    assert row["worse_by"] == pytest.approx(0.35)
    assert (row["better"], row["worse"]) == (0, 3)
    assert row["verdict"] == "worse beyond bound"


def test_summary_unresolved_when_the_parent_spreads_beyond_the_bound():
    row = bench_pairs.summarize(WALL, [1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
    assert row["spread"] == pytest.approx(0.75)
    assert row["verdict"] == "unresolved"


def test_summary_follows_the_better_direction():
    higher = {"name": "rate", "better": "higher", "bound": 0.1}
    row = bench_pairs.summarize(higher, [10.0, 10.0], [8.0, 8.5])
    assert (row["better"], row["worse"]) == (0, 2)
    assert row["worse_by"] == pytest.approx(0.175)
    assert row["verdict"] == "worse beyond bound"


def _load_tool(name, folder="tools"):
    spec = importlib.util.spec_from_file_location(
        name, _PATH.parent.parent / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_pins_is_an_msd_callable():
    # A traced benchmark run wraps these names; one that is gone would fail
    # only that run.
    tracing = _load_tool("tracing", "perfbench")
    entries = set()
    for module_name, attr, _, _ in tracing.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        assert callable(vars(owner).get(name)), f"{module_name}.{attr}"
        entries.add(f"{module_name.removeprefix('msd.')}.{attr}")
    for workload, expected in tracing.EXPECTED.items():
        assert set(expected) <= entries, workload


def test_output_digest_reads_every_readme_command_once():
    from msd.cli import build_parser

    commands = _load_tool("output_digest").readme_commands()
    assert ["example", "list"] in commands
    assert ["lyapunov", "--system", "gbm", "--vector", "1", "--epsilon", "0.05"] in commands
    # The fit example appears twice in the README and three fits are extras.
    assert sum(argv[0] == "fit" for argv in commands) == 4
    assert len(commands) == len({tuple(argv) for argv in commands})
    for argv in commands:
        build_parser().parse_args(argv)


def test_output_digest_error_commands_each_end_in_one_error_line():
    lines = _load_tool("output_digest").error_lines()
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
    assert sum(code == 2 for _, code, _ in lines) == 5


def test_bench_pairs_reads_the_unscaled_times_from_stderr():
    stderr = ("failed: nothing\n"
              "as measured: setup 0.3812 s, pass 2.3405 s; kernel 0.01234 s and 0.01301 s\n")
    assert bench_pairs.measured(stderr) == {"setup_unscaled_s": 0.3812,
                                            "pass_unscaled_s": 2.3405}
    with pytest.raises(bench_pairs.RunError, match="as measured"):
        bench_pairs.measured("failed: nothing\n")


def test_bench_record_quick_writes_the_documented_layout(tmp_path):
    bench_record = _load_tool("bench_record")
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, str(_PATH.parent / "bench_record.py"), "--quick",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert set(data) == {"format", "host", "known_faults", "sides"}
    assert data["format"] == 5
    assert set(data["host"]) == set(bench_record.HOST_KEYS)
    assert data["known_faults"] == list(bench_record.KNOWN_FAULTS)
    assert list(data["sides"]) == ["change"]
    side = data["sides"]["change"]
    assert set(side) == set(bench_record.SIDE_KEYS)
    [run] = side["runs"]
    assert set(run) == set(bench_record.RUN_KEYS)
    assert (run["workload"], run["seed"], run["exit"], run["error"]) == ("mc", 1, 0, None)
    assert run["result"]["correct"] is True
    assert set(run["result"]["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert [(row["k"], row["n"]) for row in side["rk4"]] == [(1, 1), (2, 2), (1, 8)]
    for row in side["rk4"]:
        assert set(row) == set(bench_record.RK4_KEYS)
        assert row["us_per_step"] > 0.0
    assert set(side["surface"]) == set(bench_record.SURFACE_KEYS)
    assert side["surface"]["deltas"] == [0.0, 1.0, 2.0]
    assert side["surface"]["ms_per_call"] > 0.0
    assert list(side["op_peaks"]) == ["mc"]
    assert [row["operation"] for row in side["op_peaks"]["mc"]] == [
        "moments", "fit", "triangularize", "lyapunov", "decoupling"]
    for row in side["op_peaks"]["mc"]:
        assert set(row) == set(bench_record.OP_PEAK_KEYS)
        assert 0.0 < row["rss_after_import_mb"] <= row["rss_peak_mb"]
