import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(name, values):
    return [{name: v} for v in values]


def test_quartiles_interpolate():
    assert bench_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert bench_pairs.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert bench_pairs.quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)


def test_summary_counts_wins_by_direction_and_applies_the_rule():
    parent = [0.094, 0.100, 0.096, 0.095, 0.097, 0.099, 0.094, 0.098,
              0.095, 0.096]
    change = [0.058, 0.061, 0.057, 0.095, 0.059, 0.060, 0.058, 0.057,
              0.062, 0.059]
    rows = bench_pairs.summarize(_runs("t", parent), _runs("t", change),
                                 {"t": "lower"})
    [row] = rows
    # pair 4 is a tie: it counts for neither side
    assert (row["wins"], row["losses"], row["ties"]) == (9, 0, 1)
    assert row["parent"][1] == pytest.approx(0.096)
    assert row["change"][1] == pytest.approx(0.0590)
    assert row["gain"]
    # the same numbers read as a metric where higher is better: all lost
    [row] = bench_pairs.summarize(_runs("t", parent), _runs("t", change),
                                  {"t": "higher"})
    assert (row["wins"], row["losses"], row["gain"]) == (0, 9, False)


def test_no_gain_below_nine_in_ten_or_inside_the_parent_spread():
    parent = [10, 12, 14, 16, 18, 20, 22, 24, 26, 28]
    # wins every pair by 1: the median gap is far inside the parent's IQR
    [row] = bench_pairs.summarize(_runs("x", parent),
                                  _runs("x", [v + 1 for v in parent]),
                                  {"x": "higher"})
    assert row["wins"] == 10 and not row["gain"]
    # a wide gap, but two pairs of ten lost
    change = [v + 20 for v in parent[:8]] + [0, 0]
    [row] = bench_pairs.summarize(_runs("x", parent), _runs("x", change),
                                  {"x": "higher"})
    assert (row["wins"], row["losses"], row["gain"]) == (8, 2, False)


def test_format_rows_names_every_metric():
    rows = bench_pairs.summarize(_runs("time_ref_s", [2.0, 2.0]),
                                 _runs("time_ref_s", [1.0, 1.0]),
                                 {"time_ref_s": "lower"})
    text = bench_pairs.format_rows(rows)
    assert text.splitlines()[1].split() == [
        "time_ref_s", "2", "[2,", "2]", "1", "[1,", "1]", "2", "0", "0", "yes"]
