"""Compare two checkouts on benchmark workloads, in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ...] --seed S --pairs N
    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ...] --seeds A-B

For each workload in turn, each pair runs ``perfbench/run.py --workload W
--seed S --seconds 15 --trace 0`` once in each checkout, from its root; the
parent goes first in even pairs and the change first in odd ones.  With
``--seed S`` all N pairs run seed S; with ``--seeds A-B`` there is one pair
per seed, and pair k runs seed A + k - 1.  For
every end-to-end metric of the change's ``BENCHMARK.json`` it prints each
side's median and quartiles, how many pairs each side won (a tie counts for
neither), whether a gain may be claimed (the change wins at least nine in
ten of all pairs, and its median is better than the parent's by more than
the parent's interquartile range) and whether the change is worse beyond
the metric's ``bound`` (its median is worse than the parent's by more than
``bound`` times the parent's median).  The exit status is 1 when a run
fails or reports ``correct: false``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence


def quartiles(values: Sequence[float]):
    """(first quartile, median, third quartile), linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: List[Dict[str, float]], change: List[Dict[str, float]],
              better: Dict[str, str],
              bounds: Optional[Dict[str, float]] = None) -> List[Dict]:
    """One row per metric of `better` (name -> "lower" | "higher") from the
    paired runs parent[i], change[i], each a map of metric values.  A
    metric with a bound in `bounds` (name -> fraction) is "worse" when the
    change's median is worse than the parent's by more than that fraction
    of the parent's median; "worse" is None for a metric without one."""
    bounds = bounds or {}
    rows = []
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        losses = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        gap = sign * (cq[1] - pq[1])
        bound = bounds.get(name)
        rows.append({"metric": name, "better": direction,
                     "parent": pq, "change": cq, "wins": wins,
                     "losses": losses, "ties": len(p) - wins - losses,
                     "gain": wins >= 0.9 * len(p) and gap > pq[2] - pq[0],
                     "worse": None if bound is None
                     else -gap > bound * abs(pq[1])})
    return rows


def format_rows(rows: List[Dict]) -> str:
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    lines = [f"{'metric':<18} {'parent median [q1, q3]':<32} "
             f"{'change median [q1, q3]':<32} wins losses ties gain worse"]
    yes_no = {True: "yes", False: "no", None: "-"}
    for r in rows:
        lines.append(f"{r['metric']:<18} {fmt(r['parent']):<32} "
                     f"{fmt(r['change']):<32} {r['wins']:>4} "
                     f"{r['losses']:>6} {r['ties']:>4} "
                     f"{yes_no[r['gain']]:<4} {yes_no[r['worse']]}")
    return "\n".join(lines)


def parse_seeds(text: str) -> List[int]:
    """The seeds A..B of a range "A-B" (A <= B, both >= 0)."""
    first, sep, last = text.partition("-")
    if not (sep and first.isdigit() and last.isdigit()
            and int(first) <= int(last)):
        raise argparse.ArgumentTypeError(
            f"expected a seed range A-B with A <= B, got {text!r}")
    return list(range(int(first), int(last) + 1))


def positive_int(text: str) -> int:
    """A count of at least 1."""
    if not (text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def run_once(checkout: Path, workload: str, seed: int) -> Dict[str, float]:
    """The metric values of one untraced run; SystemExit on a failed run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "15", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode or not result or result.get("correct") is not True:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed in {checkout} (exit {proc.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, action="append",
                    help="a workload to run; repeat for several")
    seeds = ap.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seed", type=int, help="one seed for every pair")
    seeds.add_argument("--seeds", type=parse_seeds,
                       help="a range A-B: one pair per seed")
    ap.add_argument("--pairs", type=positive_int,
                    help="the number of pairs, with --seed")
    args = ap.parse_args(argv)
    if (args.seed is None) != (args.pairs is None):
        ap.error("--pairs goes with --seed, and only with it")
    if args.seeds:
        pair_seeds = args.seeds
        label = f"seeds {args.seeds[0]}-{args.seeds[-1]}"
    else:
        pair_seeds = [args.seed] * args.pairs
        label = f"seed {args.seed}"
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]
              if "bound" in m}
    for workload in args.workload:
        parent, change = [], []
        for i, seed in enumerate(pair_seeds):
            sides = [(args.parent, parent), (args.change, change)]
            for checkout, runs in sides if i % 2 == 0 else sides[::-1]:
                runs.append(run_once(checkout, workload, seed))
            print(f"{workload} pair {i + 1} (seed {seed}): time_ref_s parent "
                  f"{parent[-1]['time_ref_s']:.4g}, change "
                  f"{change[-1]['time_ref_s']:.4g}", file=sys.stderr)
        print(f"{workload}, {label}, {len(pair_seeds)} pairs")
        print(format_rows(summarize(parent, change, better, bounds)),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
