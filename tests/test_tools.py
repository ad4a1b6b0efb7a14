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
