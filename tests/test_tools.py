"""Summary arithmetic of tools/bench_pairs.py, on fixed numbers."""

import importlib.util
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


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, _PATH.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_reads_every_readme_command_once():
    from msd.cli import build_parser

    commands = _load_tool("output_digest").readme_commands()
    assert ["example", "list"] in commands
    assert ["lyapunov", "--system", "gbm", "--vector", "1", "--epsilon", "0.05"] in commands
    # The fit example appears twice in the README and once among the extras.
    assert sum(argv[0] == "fit" for argv in commands) == 2
    assert len(commands) == len({tuple(argv) for argv in commands})
    for argv in commands:
        build_parser().parse_args(argv)
