import importlib.util
import json
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
    assert text.splitlines()[0].split()[-2:] == ["gain", "worse"]
    # no bound given: the worse column reads "-"
    assert text.splitlines()[1].split() == [
        "time_ref_s", "2", "[2,", "2]", "1", "[1,", "1]", "2", "0", "0", "yes",
        "-"]
    rows = bench_pairs.summarize(_runs("time_ref_s", [1.0, 1.0]),
                                 _runs("time_ref_s", [2.0, 2.0]),
                                 {"time_ref_s": "lower"}, {"time_ref_s": 0.2})
    assert bench_pairs.format_rows(rows).splitlines()[1].split()[-2:] == [
        "no", "yes"]


def test_worse_flags_a_median_past_the_bound_in_either_direction():
    parent = [0.9, 1.0, 1.0, 1.1, 1.0]
    # the change's median is 1.19 and 1.21 against the parent's 1.0
    for shift, worse in ((0.19, False), (0.21, True)):
        change = [v + shift for v in parent]
        [row] = bench_pairs.summarize(_runs("t", parent), _runs("t", change),
                                      {"t": "lower"}, {"t": 0.2})
        assert row["worse"] is worse, shift
        # where higher is better the same numbers are a gain, never worse
        [row] = bench_pairs.summarize(_runs("t", parent), _runs("t", change),
                                      {"t": "higher"}, {"t": 0.2})
        assert row["worse"] is False
    # higher is better: a median 25 % lower is worse beyond a 0.24 bound,
    # 23 % lower is not
    for scale, worse in ((0.75, True), (0.77, False)):
        change = [v * scale for v in parent]
        [row] = bench_pairs.summarize(_runs("x", parent), _runs("x", change),
                                      {"x": "higher"}, {"x": 0.24})
        assert row["worse"] is worse, scale
    # a metric without a bound is never flagged
    [row] = bench_pairs.summarize(_runs("t", parent),
                                  _runs("t", [10 * v for v in parent]),
                                  {"t": "lower"}, {})
    assert row["worse"] is None


def test_main_runs_every_repeated_workload(tmp_path, monkeypatch, capsys):
    bench = {"end_to_end": [{"name": "time_ref_s", "better": "lower",
                             "bound": 0.2}]}
    calls = []
    times = {"parent": 1.0, "change": 0.5}

    def run_once(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        return {"time_ref_s": times[checkout.name]}

    for side in times:
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(bench))
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(tmp_path / "parent"),
                             str(tmp_path / "change"), "--workload", "a",
                             "--workload", "b", "--seed", "3",
                             "--pairs", "2"]) == 0
    # alternating order within each workload, workloads in the given order
    assert calls == [("parent", "a", 3), ("change", "a", 3),
                     ("change", "a", 3), ("parent", "a", 3),
                     ("parent", "b", 3), ("change", "b", 3),
                     ("change", "b", 3), ("parent", "b", 3)]
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "pairs" in line] == [
        "a, seed 3, 2 pairs", "b, seed 3, 2 pairs"]
    assert [line.split()[-2:] for line in out
            if line.startswith("time_ref_s")] == [["yes", "no"]] * 2


def test_parse_seeds_reads_a_range():
    assert bench_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert bench_pairs.parse_seeds("7-7") == [7]
    for text in ("10-1", "3", "1-", "-4", "a-b", "1-2-3", " 1-2"):
        with pytest.raises(Exception, match="seed range"):
            bench_pairs.parse_seeds(text)


def test_main_runs_pair_k_at_seed_k(tmp_path, monkeypatch, capsys):
    bench = {"end_to_end": [{"name": "time_ref_s", "better": "lower",
                             "bound": 0.2}]}
    calls = []

    def run_once(checkout, workload, seed):
        calls.append((checkout.name, seed))
        return {"time_ref_s": 1.0 if checkout.name == "parent" else 0.5}

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(bench))
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    sides = [str(tmp_path / "parent"), str(tmp_path / "change")]
    assert bench_pairs.main(sides + ["--workload", "a",
                                     "--seeds", "4-6"]) == 0
    # one pair per seed, in order, the order of the sides alternating
    assert calls == [("parent", 4), ("change", 4), ("change", 5),
                     ("parent", 5), ("parent", 6), ("change", 6)]
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "pairs" in line] == [
        "a, seeds 4-6, 3 pairs"]
    # --pairs belongs to --seed alone, one of the two is needed, and a
    # count below 1 is refused before any run
    for extra in (["--seeds", "1-2", "--pairs", "2"], ["--seed", "1"],
                  ["--pairs", "2"], ["--seed", "1", "--seeds", "1-2",
                                     "--pairs", "2"],
                  ["--seed", "1", "--pairs", "0"],
                  ["--seed", "1", "--pairs", "-2"]):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(sides + ["--workload", "a"] + extra)
        assert exc.value.code == 2, extra
    assert len(calls) == 6
