"""Benchmark runner for superlie.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One fresh, single-threaded
interpreter: it measures set-up in child interpreters, builds the seeded
inputs untimed, checks them against the pinned fingerprints, then runs the
workload's items in a closed loop (each item starts when the previous one
returns) and checks every answer against ``reference.json``.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` one
pass runs untraced and then again under the tracer, and the per-layer
metrics are printed.  Spans are written to ``.bench_out/``.  The last line of
standard output is the JSON result; a record of the environment and inputs
goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import warnings
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
PROBE_PERIOD_S = 0.1
# Probes within this time of an item set its speed; their median resists
# the single probe that a preemption slows.
SPEED_WINDOW_S = 0.25
PROBE_REF_MS = 1.0
PRECISION_ENV = "SUPERLIE_PRECISION"

# What a CLI invocation pays before any work: load every catalog resource and
# build every algebra.  Run as-is in the child interpreters that time set-up.
CATALOG_LOAD = """
from superlie import catalog
for _entry in catalog.list_entries():
    _entry.algebra
catalog.witnesses(); catalog.nondegen_rows(); catalog.expected()
"""


class Refused(Exception):
    """The run cannot produce a trustworthy result; no result is printed."""


def log(obj) -> None:
    print(json.dumps(obj, sort_keys=True, default=str), file=sys.stderr,
          flush=True)


# -- environment --------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = SRC / "superlie"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "precision_env": os.environ.get(PRECISION_ENV),
        "threads": threading.active_count(),
    }


def measure_setup() -> tuple:
    """Time of a fresh interpreter that imports superlie and loads the
    catalog: the median of several runs, in reference and in raw seconds.
    The child runs on this process's CPU, probed just before and after."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport superlie\n" \
           + CATALOG_LOAD
    ref, raw = [], []
    for _ in range(SETUP_SAMPLES):
        before = probe_ms()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, timeout=SETUP_TIMEOUT_S)
        raw.append(time.perf_counter() - start)
        ref.append(raw[-1] * PROBE_REF_MS / ((before + probe_ms()) / 2))
        if proc.returncode != 0:
            raise Refused("set-up failed: "
                          + proc.stderr.decode(errors="replace")[-500:])
    return statistics.median(ref), statistics.median(raw)


# -- machine speed -----------------------------------------------------------


def probe_loop() -> None:
    """A fixed rational loop, part of the benchmark and not of superlie; it
    takes 0.93 ms on the reference machine when that runs at full speed."""
    acc = Fraction(0)
    for i in range(1, 251):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)


def probe_ms() -> float:
    samples = []
    for _ in range(9):
        start = time.perf_counter()
        probe_loop()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


class SpeedProbe:
    """Samples how fast this CPU runs while superlie works.

    The shared host this benchmark was built on runs the same code up to
    1.9 times slower for seconds to minutes at a time.  A timer signal runs
    ``probe_loop`` every PROBE_PERIOD_S in the benchmark's own thread, so the
    probe sees the state of the CPU the work runs on.  An interval's time is
    then converted to reference seconds: seconds on a machine that runs the
    probe in PROBE_REF_MS, net of the probing done inside the interval."""

    def __init__(self):
        self.starts, self.durations = [], []

    def _sample(self, *_):
        start = time.perf_counter()
        probe_loop()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def reference_seconds(self, start: float, end: float) -> float:
        first, last = (bisect_left(self.starts, t) for t in (start, end))
        probing = sum(self.durations[first:last])
        lo = bisect_left(self.starts, start - SPEED_WINDOW_S)
        hi = bisect_left(self.starts, end + SPEED_WINDOW_S)
        near = self.durations[lo:hi] or self.durations[max(lo - 1, 0):lo + 1]
        speed = statistics.median(near) * 1e3 / PROBE_REF_MS
        return (end - start - probing) / speed


class ModuleState:
    """Module-level containers of superlie as they were after set-up.

    Restoring them empties every module cache, so that a pass (or, for
    cold items, an item) starts as a fresh CLI invocation would."""

    def __init__(self):
        self.saved = []
        self.clears = []
        for name, mod in sorted(sys.modules.items()):
            if name != "superlie" and not name.startswith("superlie."):
                continue
            for attr, value in vars(mod).items():
                if attr.startswith("__"):
                    continue
                if type(value) in (dict, list, set):
                    self.saved.append((value, type(value)(value)))
                elif callable(getattr(value, "cache_clear", None)):
                    self.clears.append(value.cache_clear)

    def restore(self):
        for obj, snap in self.saved:
            if isinstance(obj, list):
                obj[:] = snap
            else:
                obj.clear()
                obj.update(snap)
        for clear in self.clears:
            clear()


# -- running items ------------------------------------------------------------


def digest(items) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(it.canon.encode() + b"\0")
    return h.hexdigest()


def run_items(items, state, tracer=None):
    """Run items in a closed loop; returns ((start, end) per item, failures)."""
    times, failures = [], []
    for index, it in enumerate(items):
        if it.cold:
            state.restore()
        if tracer is not None:
            tracer.item = index
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                answer, error = it.call(), None
            except Exception as exc:   # counted as a failed item
                answer, error = None, f"{type(exc).__name__}: {exc}"
            times.append((start, time.perf_counter()))
        if error is None and answer != it.expect:
            error = f"answer {answer!r}, reference {it.expect!r}"
        if error is None and caught:
            error = f"warning: {caught[0].message}"
        if error is not None:
            failures.append(f"{it.key}: {error}")
    return times, failures


def tail(times, per_pass):
    """Time at the highest percentile of a pass with at least ten items beyond
    it (with fewer than eleven items, the slowest item); the median over the
    passes.  Over a whole run of many passes that percentile would fall among
    the few seeded inputs of unusual size, and move with the seed."""
    index = per_pass - 11 if per_pass >= 11 else per_pass - 1
    tails = [sorted(times[k:k + per_pass])[index]
             for k in range(0, len(times), per_pass)]
    return statistics.median(tails), 100.0 * (index + 1) / per_pass


def load_workload(name, seed, seconds, tiny, trace):
    import workloads
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from "
                         + ", ".join(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[name]
    pinned = json.loads((HERE / "fingerprints.json").read_text())[name]
    for pseed, expected in sorted(pinned.items()):
        got = digest(wl.build(int(pseed), 0, False))
        if got != expected:
            raise Refused(f"inputs of {name} for pinned seed {pseed} differ "
                          f"from fingerprints.json: {got}")
    npasses = 1 if trace else workloads.passes_for(wl, seconds, tiny)
    return wl, [wl.build(seed, p, tiny) for p in range(npasses)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs that still reach every layer "
                         "(smoke check only)")
    args = ap.parse_args(argv)

    if not (SRC / "superlie" / "__init__.py").is_file():
        print(f"error: no superlie sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop(PRECISION_ENV, None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    try:
        return run(args)
    except Refused as exc:
        print(f"error: refused: {exc}", file=sys.stderr)
        return 3


def run(args) -> int:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})   # the probe must see the CPU that works
    setup = None if args.trace else measure_setup()
    start = time.perf_counter()
    import superlie
    exec(CATALOG_LOAD, {})
    catalog_load_s = time.perf_counter() - start
    if not Path(superlie.__file__).resolve().is_relative_to(SRC.resolve()):
        raise Refused(f"imported superlie from {superlie.__file__}")
    state = ModuleState()

    wl, passes = load_workload(args.workload, args.seed, args.seconds,
                               args.tiny, args.trace)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "passes": len(passes),
              "input_sha256": digest([it for p in passes for it in p]),
              "env": environment(), "cpu": cpu}
    if record["env"]["threads"] != 1:
        raise Refused("the benchmark process must have exactly one thread")

    if args.trace:
        values, times, failures = traced(passes[0], state, record)
        values["catalog.load_s"] = catalog_load_s
        kind = "per_layer"
    else:
        values, times, failures = untraced(passes, state, record)
        values["setup_s"] = setup[0]
        record["setup_raw_s"] = setup[1]
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        kind = "end_to_end"

    record.update(items=len(times), failed=len(failures),
                  fail_ratio=len(failures) / len(times),
                  failures=failures[:5], threads_after=threading.active_count())
    log({"record": record})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    print(json.dumps({"correct": not failures, "attempted": len(times),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def probed(passes, state, tracer=None):
    """Run passes under the speed probe, each from the post-set-up state.
    Returns the items' reference seconds, the raw spans and the failures."""
    gc.collect()
    spans, failures = [], []
    with SpeedProbe() as probe:
        for items in passes:
            state.restore()
            s, f = run_items(items, state, tracer)
            spans += s
            failures += f
    return [probe.reference_seconds(*s) for s in spans], spans, failures, \
        probe


def untraced(passes, state, record):
    cpu0, wall0 = time.process_time(), time.perf_counter()
    times, _, failures, probe = probed(passes, state)
    record.update(raw_wall_s=time.perf_counter() - wall0,
                  raw_cpu_s=time.process_time() - cpu0,
                  probe_ms=statistics.median(probe.durations) * 1e3,
                  probes=len(probe.durations))
    total = sum(times)
    per_pass = len(passes[0])
    tail_s, tail_pct = tail(times, per_pass)
    record.update(tail_percentile=tail_pct, tail_items=per_pass)
    return {
        "time_ref_s": total,
        "items_per_ref_s": (len(times) - len(failures)) / total,
        "item_p50_ref_ms": statistics.median(times) * 1e3,
        "item_tail_ref_ms": tail_s * 1e3,
    }, times, failures


def traced(items, state, record):
    """One untraced pass, then the same pass under the tracer; the overhead
    compares their reference seconds."""
    from tracer import SPAN_FIELDS, Tracer, layer_metrics
    base, _, base_fail, _ = probed([items], state)
    tracer = Tracer()
    tracer.install()
    times, _, failures, _ = probed([items], state, tracer)

    values = layer_metrics(tracer)
    values["trace.overhead_ratio"] = sum(times) / sum(base) - 1
    record.update(untraced_ref_s=sum(base), traced_ref_s=sum(times),
                  spans=len(tracer.spans))
    OUT.mkdir(exist_ok=True)
    out = OUT / f"trace-{record['workload']}-seed{record['seed']}.json"
    out.write_text(json.dumps({
        "record": record, "span_fields": SPAN_FIELDS, "spans": tracer.spans,
        "items": [it.key for it in items], "counts": dict(tracer.counts),
        "metrics": values}))
    record["trace_file"] = str(out.relative_to(ROOT))
    return values, base + times, base_fail + failures


if __name__ == "__main__":
    sys.exit(main())
