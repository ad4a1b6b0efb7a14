"""The repository tools on fixed inputs, and the names the benchmark tracer pins."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}


def test_quartiles_inclusive():
    assert bench_record.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_record.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_summary_within_bound_counts_pairs():
    row = bench_record.summarize(WALL, [2.0, 2.1, 2.2, 2.0, 2.1],
                                 [2.1, 2.0, 2.2, 2.2, 2.0])
    assert row["parent"] == (2.0, 2.1, 2.1)
    assert row["change"] == (2.0, 2.1, 2.2)
    assert (row["better"], row["worse"]) == (2, 2)
    assert row["worse_by"] == 0.0
    assert row["verdict"] == "within bound"


def test_summary_worse_beyond_bound():
    row = bench_record.summarize(WALL, [2.0, 2.0, 2.1], [2.6, 2.7, 2.8])
    assert row["worse_by"] == pytest.approx(0.35)
    assert (row["better"], row["worse"]) == (0, 3)
    assert row["verdict"] == "worse beyond bound"


def test_summary_unresolved_when_the_parent_spreads_beyond_the_bound():
    row = bench_record.summarize(WALL, [1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
    assert row["spread"] == pytest.approx(0.75)
    assert row["verdict"] == "unresolved"


def test_summary_follows_the_better_direction():
    higher = {"name": "rate", "better": "higher", "bound": 0.1}
    row = bench_record.summarize(higher, [10.0, 10.0], [8.0, 8.5])
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


def test_bench_record_reads_the_unscaled_times_from_stderr():
    stderr = ("failed: nothing\n"
              "as measured: setup 0.3812 s, pass 2.3405 s; kernel 0.01234 s and 0.01301 s\n")
    assert bench_record.measured(stderr) == {"setup_unscaled_s": 0.3812,
                                             "pass_unscaled_s": 2.3405}
    with pytest.raises(ValueError, match="as measured"):
        bench_record.measured("failed: nothing\n")


def _run_row(pair, wall, peak, pass_s):
    metrics = {"setup_s": 0.4, "wall_s": wall, "peak_rss_mb": peak}
    return {"workload": "ode", "pair": pair, "seed": pair % 3 + 1, "seconds": 25, "exit": 0,
            "result": {"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {name: {"value": value, "unit": "s"}
                                   for name, value in metrics.items()}},
            "error": None, "setup_unscaled_s": 0.3, "pass_unscaled_s": pass_s}


def test_bench_record_summarizes_canned_pairs():
    metrics = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]
    parent = [_run_row(i, w, 80.0, p) for i, (w, p) in
              enumerate(zip([2.0, 2.1, 2.2, 2.0, 2.1], [1.0, 1.2, 1.1, 1.3, 1.0]))]
    change = [_run_row(i, w, m, 0.5) for i, (w, m) in
              enumerate(zip([1.0, 1.1, 1.0, 1.2, 1.0], [90.0, 90.0, 89.0, 90.0, 91.0]))]
    summary = bench_record.summarize_runs(metrics, parent, change)
    rows = {row["name"]: row for row in summary["end_to_end"]}
    assert [row["name"] for row in summary["end_to_end"]] == [m["name"] for m in metrics]
    assert all(set(row) == set(bench_record.SUMMARY_KEYS) for row in rows.values())
    assert (rows["setup_s"]["better"], rows["setup_s"]["worse"]) == (0, 0)
    assert rows["setup_s"]["verdict"] == "within bound"
    assert rows["wall_s"]["parent"] == (2.0, 2.1, 2.1)
    assert rows["wall_s"]["change"] == (1.0, 1.0, 1.1)
    assert (rows["wall_s"]["better"], rows["wall_s"]["worse"]) == (5, 0)
    assert rows["wall_s"]["worse_by"] == pytest.approx(-1.1 / 2.1)
    assert rows["peak_rss_mb"]["worse_by"] == pytest.approx(0.125)
    assert rows["peak_rss_mb"]["verdict"] == "worse beyond bound"
    assert summary["unscaled_medians"] == {
        "setup_unscaled_s": {"parent": 0.3, "change": 0.3},
        "pass_unscaled_s": {"parent": 1.1, "change": 0.5}}


def test_bench_record_alternates_the_first_side_and_takes_medians_over_rounds(tmp_path):
    sides = {"change": tmp_path / "change", "parent": tmp_path / "parent"}
    rows = [{"kind": "rk4", "n": 1}, {"kind": "startup"}]
    calls = []

    def fake(checkout, row, r):
        calls.append((r, row["kind"], checkout.name))
        return {"x": float(r) if checkout.name == "change" else 10.0 * r, "flag": r == 1}

    data = bench_record.record(sides, {"end_to_end": []}, rows, 4, sample=fake)
    for r in range(4):
        first, second = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        assert calls[4 * r:4 * r + 4] == [(r, "rk4", first), (r, "rk4", second),
                                          (r, "startup", first), (r, "startup", second)]
    assert len(calls) == 16
    # Rounds 0-3 read x = r on the change and 10 r on the parent.
    for name, spread in (("change", (0.75, 1.5, 2.25)), ("parent", (7.5, 15.0, 22.5))):
        side = data["sides"][name]
        assert side["runs"] == []
        assert side["rows"] == [row | {"x": spread, "flag": True} for row in rows]
    assert data["rounds"] == 4 and data["summary"] == {}


def test_bench_record_files_the_git_state_read_before_the_first_round(tmp_path):
    # The tree turns dirty while the rows are sampled: the record keeps the
    # state the samples were taken from. A HEAD that moves refuses the record.
    sides = {"change": tmp_path / "change", "parent": tmp_path / "parent"}
    rows = [{"kind": "startup"}]
    events = []

    def fake_sample(checkout, row, r):
        events.append(("sample", checkout.name))
        return {"x": 1.0}

    def fake_state(checkout):
        events.append(("state", checkout.name))
        return f"{checkout.name}-head", ("sample", checkout.name) in events

    data = bench_record.record(sides, {"end_to_end": []}, rows, 2, sample=fake_sample,
                               state=fake_state)
    assert events[:2] == [("state", "change"), ("state", "parent")]
    assert events[-2:] == [("state", "change"), ("state", "parent")]
    assert {name: (side["head"], side["dirty"]) for name, side in data["sides"].items()} == {
        "change": ("change-head", False), "parent": ("parent-head", False)}

    def moving_state(checkout):
        moved = any(event[0] == "sample" for event in events)
        return f"{checkout.name}-{'new' if moved and checkout.name == 'change' else 'old'}", False

    events.clear()
    with pytest.raises(SystemExit) as exit_info:
        bench_record.record(sides, {"end_to_end": []}, rows, 2, sample=fake_sample,
                            state=moving_state)
    # A string code exits with status 1.
    assert isinstance(exit_info.value.code, str)
    assert "change-old to change-new" in exit_info.value.code


def test_bench_record_children_import_the_sources_they_are_given(tmp_path):
    # The op child imports this checkout's perfbench/workloads.py after the
    # side's sources; one that put this checkout's src first on sys.path
    # would measure this checkout on both sides.
    shutil.copytree(_PATH.parent.parent / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    row = {"kind": "op", "workload": "ode", "operation": "lyapunov", "seed": 1}
    figures = bench_record.child(tmp_path, bench_record._OP_CHILD, row)
    assert Path(figures["msd"]).is_relative_to(tmp_path / "src")
    assert 0.0 < figures["wall_s"]
    assert 0.0 < figures["rss_after_import_mb"] <= figures["rss_peak_mb"]
    assert set(bench_record.sample(tmp_path, row, 0)) == {"wall_s", "rss_after_import_mb",
                                                          "rss_peak_mb"}


def test_bench_record_quick_writes_the_documented_layout(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, str(_PATH), "--quick", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    data = json.loads(out.read_text())
    assert set(data) == {"format", "rounds", "host", "known_faults", "sides"}
    assert (data["format"], data["rounds"]) == (11, 1)
    assert set(data["host"]) == set(bench_record.HOST_KEYS)
    assert data["known_faults"] == list(bench_record.KNOWN_FAULTS)
    assert list(data["sides"]) == ["change"]
    side = data["sides"]["change"]
    assert set(side) == set(bench_record.SIDE_KEYS)
    [run] = side["runs"]
    assert set(run) == set(bench_record.RUN_KEYS)
    assert (run["workload"], run["pair"], run["seed"], run["exit"], run["error"]) == (
        "mc", 0, 1, 0, None)
    assert 0.0 < run["setup_unscaled_s"] and 0.0 < run["pass_unscaled_s"]
    assert run["result"]["correct"] is True
    assert set(run["result"]["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    for row in side["rows"]:
        assert list(row) == list(bench_record.ROW_KEYS[row["kind"]])
    rk4, [surface], [draw], [em], [startup], ops = (
        [row for row in side["rows"] if row["kind"] == kind]
        for kind in ("rk4", "surface", "draw", "em", "startup", "op"))
    # One round: each figure's quartiles are that round's figure three times.
    figures = [*(row["us_per_step"] for row in rk4), surface["ms_per_call"],
               draw["ns_per_value"], em["ns_per_path_step"], startup["import_unscaled_s"],
               startup["rss_after_import_mb"],
               *(row[key] for row in ops for key in ("wall_s", "rss_after_import_mb",
                                                     "rss_peak_mb"))]
    for low, median, high in figures:
        assert 0.0 < low == median == high
    assert [(row["k"], row["n"], row["per_start"]) for row in rk4] == [
        (1, 1, False), (2, 2, True), (1, 8, False)]
    assert surface["deltas"] == [0.0, 1.0, 2.0]
    assert (draw["paths"], draw["steps"]) == (200, 50)
    assert (em["system"], em["paths"], em["steps"], em["inverse"]) == (
        "perron-sde", 200, 50, True)
    assert startup["scipy_special"] is False
    assert [(row["workload"], row["operation"]) for row in ops] == [
        ("mc", "moments"), ("mc", "fit"), ("mc", "triangularize"), ("mc", "lyapunov"),
        ("mc", "decoupling")]
    for row in ops:
        assert row["rss_after_import_mb"][1] <= row["rss_peak_mb"][1]
