"""Fast self-check of the benchmark (about a minute).

    python3 perfbench/smoke.py          # from the root of a source checkout

For every workload, on tiny inputs: one untraced run must emit every
end-to-end metric of BENCHMARK.json, and two traced runs must emit every
per-layer metric, reach every layer the workload is meant to move, and agree
exactly on every count.  Finally the runner must refuse, with a non-zero exit
and no result, in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".cells", ".term_products")
REACHED_SUFFIXES = COUNT_SUFFIXES + (".self_s",)

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(proc, expected_metrics):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-800:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    units = {m["name"]: m["unit"] for m in expected_metrics}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == units, f"metrics differ from BENCHMARK.json: {got}"
    return {k: v["value"] for k, v in res["metrics"].items()}


def main() -> int:
    problems = []
    for name, wl in WORKLOADS.items():
        try:
            e2e = result(run(name, 0), SPEC["end_to_end"])
            zero = [k for k, v in e2e.items() if not v > 0]
            assert not zero, f"end-to-end metrics at 0: {zero}"
            first = result(run(name, 1), SPEC["per_layer"])
            second = result(run(name, 1), SPEC["per_layer"])
            idle = [k for k in first if k.rsplit(".", 1)[0] in wl.layers
                    and k.endswith(REACHED_SUFFIXES) and not first[k] > 0]
            unknown = set(wl.layers) - {k.rsplit(".", 1)[0] for k in first}
            assert not unknown, f"layers without metrics: {sorted(unknown)}"
            assert not idle, f"layers not reached: {idle}"
            drift = [k for k in first if k.endswith(COUNT_SUFFIXES)
                     and first[k] != second[k]]
            assert not drift, f"counts differ between traced runs: {drift}"
            print(f"ok   {name}: overhead "
                  f"{first['trace.overhead_ratio']:+.0%}", flush=True)
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            problems.append(name)
            print(f"FAIL {name}: {exc}", flush=True)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(next(iter(WORKLOADS)), 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("bare")
        print("FAIL bare directory: the runner did not refuse", flush=True)
    else:
        print(f"ok   bare directory refused (exit {proc.returncode})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
