"""Spans and counters around the public entry points of each superlie layer.

Everything here lives in the benchmark: the program is not changed.  The
tracer replaces each traced function by a wrapper, in its defining module or
class and in every ``superlie`` module that imported it by name (found by
identity, so aliases such as ``inv as mat_inv`` are covered too).

A span records (name, start, end, parent, item); spans of one benchmark item
share the item id.  Self time is a span's duration minus that of its child
spans.  Functions called millions of times (scalar arithmetic, brackets,
series products) get counters only, and their time is part of the self time
of the span that called them.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter
from typing import Dict, List

# (module, owner class or None, function) -> span name "<module>.<function>"
SPANS = [
    ("linalg", None, "rref"), ("linalg", None, "rank"),
    ("linalg", None, "kernel"), ("linalg", None, "det"),
    ("linalg", None, "series_solve"),
    ("cohomology", None, "h2_even"), ("cohomology", None, "d2"),
    ("cohomology", None, "d1"),
    ("algebra", "SuperAlgebra", "apply_basis_change"),
    ("algebra", "SuperAlgebra", "limit_at_zero"),
    ("invariants", None, "abc_derivations"), ("invariants", None, "center"),
    ("invariants", None, "derived"), ("invariants", None, "orbit_dim"),
    ("invariants", None, "gamma_is_zero"),
    ("invariants", None, "trivial_sub_max"),
    ("groebner", None, "system_verdict"),
    ("series", "PuiseuxSeries", "inv"), ("series", "PuiseuxSeries", "sqrt"),
    ("exprlang", None, "evaluate_basis_vector"),
    ("orbitrel", None, "verify_degeneration"),
    ("orbitrel", None, "auto_nondegen"), ("orbitrel", None, "build_hasse"),
    ("orbitrel", None, "component_analysis"),
    ("gamma23", None, "classify_pair"), ("gamma23", None, "pencil_signature"),
    ("gamma23", None, "simdiag_test"),
]

SPAN_FIELDS = ["name", "start", "end", "parent", "item"]


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "superlie" or name.startswith("superlie.")]


def _replace_everywhere(original, wrapper, owner=None):
    """Install ``wrapper`` wherever ``original`` is bound."""
    targets = [vars(m) for m in _modules()]
    if owner is not None:
        targets.append(owner.__dict__)
    found = False
    for namespace in targets:
        for attr, value in list(namespace.items()):
            if value is original:
                if isinstance(namespace, dict):
                    namespace[attr] = wrapper
                else:   # a class __dict__ is a read-only mapping proxy
                    setattr(owner, attr, wrapper)
                found = True
    if not found:
        raise RuntimeError(f"cannot trace {original!r}: not bound anywhere")


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.item = -1

    # -- installation ---------------------------------------------------

    def install(self):
        from superlie.algebra import SuperAlgebra
        from superlie.field import FieldElem
        from superlie.series import PuiseuxSeries
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
        for modname, cls, fname in SPANS:
            owner = getattr(mods[modname], cls) if cls else None
            original = getattr(owner or mods[modname], fname)
            name = f"{modname}.{fname}"
            wrapper = self._span(name, original, _AFTER.get(name))
            _replace_everywhere(original, wrapper, owner)
        for owner, original, wrapper in [
                (SuperAlgebra, SuperAlgebra.bracket,
                 self._counter("algebra.bracket", SuperAlgebra.bracket)),
                (PuiseuxSeries, PuiseuxSeries.__mul__,
                 self._series_mul(PuiseuxSeries.__mul__)),
                (FieldElem, FieldElem.__mul__,
                 self._field_mul(FieldElem.__mul__)),
                (FieldElem, FieldElem.__add__,
                 self._counter("field.add", FieldElem.__add__)),
                (FieldElem, FieldElem.inv,
                 self._counter("field.inv", FieldElem.inv))]:
            _replace_everywhere(original, wrapper, owner)

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, after):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.item)
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _series_mul(self, fn):
        counts = self.counts

        def wrapper(a, b):
            counts["series.mul.calls"] += 1
            counts["series.mul.term_products"] += len(a.terms) * (
                len(b.terms) if hasattr(b, "terms") else 1)
            return fn(a, b)

        return wrapper

    def _field_mul(self, fn):
        counts = self.counts

        def wrapper(a, b):
            counts["field.mul.calls"] += 1
            if a.is_rational() and (not hasattr(b, "is_rational")
                                    or b.is_rational()):
                counts["field.mul.rational"] += 1
            return fn(a, b)

        return wrapper

    # -- results --------------------------------------------------------

    def self_times(self) -> Dict[str, List[float]]:
        """name -> [calls, total self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, List[float]] = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child[sid]
        return out

    def invariant_queries(self) -> int:
        """Outermost invariants.* spans under orbitrel.auto_nondegen."""
        spans = self.spans
        total = 0
        for name, _, _, parent, _ in spans:
            nested = parent >= 0 and spans[parent][0].startswith("invariants.")
            if nested or not name.startswith("invariants."):
                continue
            while parent >= 0 and spans[parent][0] != "orbitrel.auto_nondegen":
                parent = spans[parent][3]
            total += parent >= 0
        return total


def _after_rref(counts, args, result):
    matrix = args[0]
    rows = len(matrix)
    counts["linalg.rref.cells"] += rows * (len(matrix[0]) if rows else 0)
    counts["linalg.rref.rows"] += rows
    counts["linalg.rref.pivots"] += len(result[1])


def _after_verdict(counts, args, result):
    counts["groebner.system_verdict.unknown"] += result == "unknown"


def _after_verify(counts, args, result):
    counts["orbitrel.verify_degeneration.verified"] += bool(result.ok)


_AFTER = {
    "linalg.rref": _after_rref,
    "groebner.system_verdict": _after_verdict,
    "orbitrel.verify_degeneration": _after_verify,
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json except catalog.load_s and
    trace.overhead_ratio, which the runner measures itself."""
    st = tracer.self_times()
    c = tracer.counts
    out: Dict[str, float] = {}
    for name, _, fname in SPANS:
        calls, self_s = st.get(f"{name}.{fname}", [0, 0.0])
        out[f"{name}.{fname}.calls"] = calls
        out[f"{name}.{fname}.self_s"] = self_s
    for key in ("field.mul.calls", "field.add.calls", "field.inv.calls",
                "algebra.bracket.calls", "series.mul.calls",
                "series.mul.term_products", "linalg.rref.cells"):
        out[key] = c[key]
    out["field.mul.rational_share"] = _ratio(c["field.mul.rational"],
                                             c["field.mul.calls"])
    out["linalg.rref.rank_ratio"] = _ratio(c["linalg.rref.pivots"],
                                           c["linalg.rref.rows"])
    out["groebner.system_verdict.unknown_ratio"] = _ratio(
        c["groebner.system_verdict.unknown"],
        out["groebner.system_verdict.calls"])
    out["orbitrel.verify_degeneration.verified_ratio"] = _ratio(
        c["orbitrel.verify_degeneration.verified"],
        out["orbitrel.verify_degeneration.calls"])
    out["orbitrel.auto_nondegen.invariant_calls_per_query"] = _ratio(
        tracer.invariant_queries(), out["orbitrel.auto_nondegen.calls"])
    return out
