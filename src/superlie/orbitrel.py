"""Degeneration engine: witness verification, non-degeneration certificates,
Hasse diagrams of orbit closures, and irreducible components.

A degeneration witness is a parametrized basis x_1..x_m, y_1..y_n over the
expression language; verification is fully symbolic (Puiseux series), never
numeric sampling.  Non-degeneration certificates come from the necessary
conditions listed in ``invariants``; components are the closure-maximal
catalog nodes, pairwise separated by closure or by certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import catalog
from .algebra import SuperAlgebra
from .exprlang import ExprTypeError, evaluate_basis_vector
from .invariants import (ABC_TUPLES, abc_derivations, center, derived,
                         gamma_is_zero, orbit_dim, trivial_sub_max)
from .linalg import SingularMatrix
from .series import Diverges, InsufficientPrecision, working_precision


class ConsistencyViolation(Exception):
    """A verified degeneration path contradicts a certificate (must not fire)."""


class ShapeMismatch(ValueError):
    """Two algebras of different graded dimensions were compared."""


def _same_shape(g: SuperAlgebra, h: SuperAlgebra):
    if (g.m, g.n) != (h.m, h.n):
        raise ShapeMismatch(f"graded shapes differ: ({g.m}|{g.n}) and "
                            f"({h.m}|{h.n})")


# -- witnesses -----------------------------------------------------------------


@dataclass
class DegenerationWitness:
    from_name: str
    to_name: str
    basis: Dict[str, str]
    alt_basis: Optional[Dict[str, str]] = None
    source: str = "user"

    @staticmethod
    def from_doc(doc: Dict) -> "DegenerationWitness":
        return DegenerationWitness(doc["from"], doc["to"], dict(doc["basis"]),
                                   alt_basis=doc.get("alt_basis"),
                                   source=doc.get("source", "user"))


@dataclass
class Verified:
    witness: DegenerationWitness
    used_alt: bool = False
    ok: bool = True


@dataclass
class Failed:
    witness: DegenerationWitness
    reason: str            # "SingularBasis" | "Diverges" | "WrongLimit"
    detail: str = ""
    ok: bool = False


def _witness_matrices(w: DegenerationWitness, m: int, n: int, precision,
                      basis: Dict[str, str]):
    """Columns T[:,i] / S[:,j] of the parametrized basis; grading enforced."""
    T = [[None] * m for _ in range(m)]
    S = [[None] * n for _ in range(n)]
    for i in range(1, m + 1):
        text = basis.get(f"x{i}", f"e{i}")
        even, odd = evaluate_basis_vector(text, m, n, precision)
        if any(not x.is_zero() for x in odd):
            raise ExprTypeError(
                f"x{i} of {w.from_name}->{w.to_name} mixes parities: {text}")
        for a in range(m):
            T[a][i - 1] = even[a]
    for j in range(1, n + 1):
        text = basis.get(f"y{j}", f"f{j}")
        even, odd = evaluate_basis_vector(text, m, n, precision)
        if any(not x.is_zero() for x in even):
            raise ExprTypeError(
                f"y{j} of {w.from_name}->{w.to_name} mixes parities: {text}")
        for b in range(n):
            S[b][j - 1] = odd[b]
    return T, S


def verify_degeneration(w: Union[DegenerationWitness, Dict],
                        precision=None,
                        g: Optional[SuperAlgebra] = None,
                        h: Optional[SuperAlgebra] = None):
    """Symbolically verify g --w--> h; returns Verified or Failed.

    Raises InsufficientPrecision when the series precision cannot decide.
    """
    if isinstance(w, dict):
        w = DegenerationWitness.from_doc(w)
    if g is None:
        g = catalog.get(w.from_name).algebra
    if h is None:
        h = catalog.get(w.to_name).algebra
    _same_shape(g, h)

    def attempt(basis) -> Union[Verified, Failed]:
        T, S = _witness_matrices(w, g.m, g.n, precision, basis)
        try:
            moved = g.apply_basis_change(T, S)
        except SingularMatrix as exc:
            return Failed(w, "SingularBasis", str(exc))
        try:
            limit = moved.limit_at_zero()
        except Diverges as exc:
            return Failed(w, "Diverges", str(exc))
        if limit.constants_equal(h):
            return Verified(w)
        return Failed(w, "WrongLimit",
                      f"limit differs from {w.to_name}")

    result = attempt(w.basis)
    if not result.ok and w.alt_basis:
        alt = attempt(w.alt_basis)
        if alt.ok:
            alt.used_alt = True
            return alt
    return result


# -- non-degeneration certificates ----------------------------------------------


@dataclass
class NonDegCertificate:
    from_name: str
    to_name: str
    criterion: str
    data: Dict = field(default_factory=dict)

    def describe(self) -> str:
        extra = ", ".join(f"{k}={v}" for k, v in sorted(self.data.items()))
        return f"{self.from_name} -/-> {self.to_name} [{self.criterion}" \
               + (f"; {extra}]" if extra else "]")


@dataclass
class Inconclusive:
    from_name: str
    to_name: str


# Every value this module derives, keyed by what it is computed from: an
# algebra's bracket table and invariants by (m, n, stored brackets, name,
# arguments), a builtin witness result by ("witness", from, to, source,
# precision).  Derivation paths that reach the same algebra (a label, its
# ab, its F.ab, ...) share its entries.
_MEMO: Dict[tuple, object] = {}


def _memo(key: tuple, compute):
    if key not in _MEMO:
        _MEMO[key] = compute()
    return _MEMO[key]


# Each entry looks its function up by name when called, so a wrapper put in
# place of that name (a counting test, the benchmark's tracer) sees the call.
_INVARIANTS = {
    "orbit_dim": lambda g, br: orbit_dim(g, br),
    "center": lambda g, br: center(g, br)[0],
    "derived": lambda g, br: derived(g, br),
    "abc": lambda g, br, abc, i: abc_derivations(g, *abc, i, br)[0],
    "trivial_sub": lambda g, br: trivial_sub_max(g, br),
}


def _inv(g: SuperAlgebra, name: str, *args):
    """The invariant `name` of g, computed once per distinct algebra."""
    key = (g.m, g.n, tuple(g.consts.items()))
    return _memo(key + (name,) + args, lambda: _INVARIANTS[name](
        g, _memo(key + ("table",), g.bracket_table), *args))


def _label_of(g: Union[str, SuperAlgebra]) -> Tuple[SuperAlgebra, Optional[str]]:
    if isinstance(g, str):
        return catalog.get(g).algebra, g
    return g, None


def _check_criterion(g, h, criterion, degree=None, tup=None, depth=2,
                     proper=True) -> Optional[Dict]:
    """Evaluate one necessary condition of degeneration for the pair (g, h);
    returns violation data when the condition fails (certifying g -/-> h)."""
    degrees = [degree] if degree is not None else [0, 1]
    if criterion == "orbit_dim":
        dg, dh = _inv(g, "orbit_dim"), _inv(h, "orbit_dim")
        bad = dg <= dh if proper else dg < dh
        if bad:
            return {"from_value": dg, "to_value": dh}
        return None
    if criterion == "gamma_zero":
        if gamma_is_zero(g) and not gamma_is_zero(h):
            return {"from_value": "gamma=0", "to_value": "gamma!=0"}
        return None
    if criterion == "center":
        cg, ch = _inv(g, "center"), _inv(h, "center")
        for i in degrees:
            if cg[i] > ch[i]:
                return {"degree": i, "from_value": cg[i], "to_value": ch[i]}
        return None
    if criterion == "derived":
        dg, dh = _inv(g, "derived"), _inv(h, "derived")
        for i in degrees:
            if dg[i] < dh[i]:
                return {"degree": i, "from_value": dg[i], "to_value": dh[i]}
        return None
    if criterion == "abc_derivation":
        tuples = [tuple(tup)] if tup is not None else ABC_TUPLES
        for abc in tuples:
            for i in degrees:
                dg, dh = _inv(g, "abc", abc, i), _inv(h, "abc", abc, i)
                if dg > dh:
                    return {"tuple": list(abc), "degree": i,
                            "from_value": dg, "to_value": dh}
        return None
    if criterion in ("ab_recursion", "F_recursion"):
        if depth <= 0:
            return None
        reduce = SuperAlgebra.ab if criterion == "ab_recursion" \
            else SuperAlgebra.forget_gamma
        sub = _pair_certs(reduce(g), reduce(h), depth - 1, proper=False,
                          with_trivial=False)
        if sub:
            return {"inner": sub[0].criterion, "inner_data": sub[0].data}
        return None
    if criterion == "trivial_sub":
        tg, th = _inv(g, "trivial_sub"), _inv(h, "trivial_sub")
        if tg.get("exact") is not None and th.get("exact") is not None \
                and tg["exact"] > th["exact"]:
            return {"from_value": tg["exact"], "to_value": th["exact"]}
        return None
    raise ValueError(f"unknown criterion {criterion!r}")


_CRITERIA = ("orbit_dim", "gamma_zero", "center", "derived",
             "ab_recursion", "F_recursion", "abc_derivation", "trivial_sub")


def _pair_certs(g, h, depth, proper=True,
                with_trivial=True) -> List[NonDegCertificate]:
    certs = []
    for criterion in _CRITERIA:
        if criterion == "trivial_sub" and not with_trivial:
            continue
        data = _check_criterion(g, h, criterion, depth=depth, proper=proper)
        if data is not None:
            certs.append(NonDegCertificate(g.name, h.name, criterion, data))
    return certs


def auto_nondegen(g: Union[str, SuperAlgebra], h: Union[str, SuperAlgebra],
                  depth: int = 2, with_trivial: bool = True):
    """All certificates that g does not degenerate to h, or Inconclusive."""
    galg, glabel = _label_of(g)
    halg, hlabel = _label_of(h)
    _same_shape(galg, halg)
    if glabel is not None and glabel == hlabel:
        return Inconclusive(glabel, hlabel)   # reflexive: g -> g always
    certs = _pair_certs(galg, halg, depth, proper=True,
                        with_trivial=with_trivial)
    return certs or Inconclusive(galg.name, halg.name)


# -- Hasse diagrams -------------------------------------------------------------


@dataclass
class HasseDiagram:
    dim: Tuple[int, int]
    nodes: List[str]
    orbit_dims: Dict[str, int]
    edges: List[Tuple[str, str]]
    closure: Dict[str, set]
    failed_witnesses: List[Failed]


def verify_builtin_witnesses(dim=None, precision=None) -> List:
    """Verify the stored witness rows (memoized per resolved precision);
    stable table order."""
    p = precision if precision is not None else working_precision()
    return [_memo(("witness", doc["from"], doc["to"],
                   doc.get("source", ""), p),
                  lambda: verify_degeneration(doc, precision=p))
            for doc in catalog.witnesses(dim)]


def build_hasse(dim, precision=None, check: bool = True) -> HasseDiagram:
    m, n = catalog.normalize_dim(dim)
    entries = catalog.list_entries((m, n))
    nodes = [e.label for e in entries]
    dims = {e.label: _inv(e.algebra, "orbit_dim") for e in entries}
    edges, failed = [], []
    for res in verify_builtin_witnesses((m, n), precision=precision):
        if res.ok:
            edges.append((res.witness.from_name, res.witness.to_name))
        else:
            failed.append(res)
    adj: Dict[str, List[str]] = {lab: [] for lab in nodes}
    for a, b in edges:
        adj[a].append(b)
    closure: Dict[str, set] = {}
    for lab in nodes:
        seen = {lab}
        stack = [lab]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closure[lab] = seen
    diagram = HasseDiagram((m, n), nodes, dims, edges, closure, failed)
    if check:
        for a, b in edges:
            if dims[a] <= dims[b]:
                raise ConsistencyViolation(
                    f"edge {a} -> {b} does not decrease orbit dimension "
                    f"({dims[a]} <= {dims[b]})")
        for u in nodes:
            for v in closure[u]:
                if u == v:
                    continue
                certs = auto_nondegen(u, v)
                if isinstance(certs, list) and certs:
                    raise ConsistencyViolation(
                        f"verified path {u} -> {v} contradicts certificate "
                        f"{certs[0].describe()}")
    return diagram


def to_dot(diagram: HasseDiagram) -> str:
    """Deterministic DOT export, nodes ranked by orbit dimension."""
    lines = ["digraph hasse {", "  rankdir=TB;"]
    by_dim: Dict[int, List[str]] = {}
    for lab in diagram.nodes:
        by_dim.setdefault(diagram.orbit_dims[lab], []).append(lab)
    for d in sorted(by_dim, reverse=True):
        labs = "; ".join(f'"{lab}"' for lab in sorted(by_dim[d]))
        lines.append(f"  {{ rank=same; {labs}; }}")
    for lab in diagram.nodes:
        lines.append(f'  "{lab}" [label="{lab}\\n{diagram.orbit_dims[lab]}"];')
    for a, b in diagram.edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- components ------------------------------------------------------------------


def _separated(u: str, v: str, closure: Dict[str, set]) -> bool:
    """Certified u -/-> v, directly or through some w in the closure of v."""
    for w in sorted(closure[v]):
        if w == u:
            continue
        certs = auto_nondegen(u, w)
        if isinstance(certs, list) and certs:
            return True
    return False


def component_analysis(dim, precision=None) -> Dict:
    diagram = build_hasse(dim, precision=precision)
    nodes = diagram.nodes
    maximal = [u for u in nodes
               if not any(u in diagram.closure[v] for v in nodes if v != u)]
    warnings = []
    for i, u in enumerate(maximal):
        for v in maximal[i + 1:]:
            if not _separated(u, v, diagram.closure):
                warnings.append(f"inconclusive separation: {u} -/-> {v} "
                                "not certified")
            if not _separated(v, u, diagram.closure):
                warnings.append(f"inconclusive separation: {v} -/-> {u} "
                                "not certified")
    return {"diagram": diagram, "components": maximal, "warnings": warnings}


def components(dim, precision=None) -> List[str]:
    return component_analysis(dim, precision=precision)["components"]


# -- discrepancy report ------------------------------------------------------------


def discrepancy_report(dim=None) -> List[Dict]:
    """Re-evaluate the cited criterion of every stored non-degeneration row;
    report rows whose citation does not certify, with alternatives."""
    known = {(row["from"], row["to"], row["criterion"]): row
             for row in catalog.expected().get("known_discrepancies", [])}
    report = []
    for row in catalog.nondegen_rows(dim):
        g, h = row["from"], row["to"]
        galg, halg = catalog.get(g).algebra, catalog.get(h).algebra
        data = _check_criterion(galg, halg, row["criterion"],
                                degree=row.get("degree"), tup=row.get("tuple"))
        if data is None:
            alts = auto_nondegen(g, h)
            entry = {
                "row": row,
                "alternatives": ([c.describe() for c in alts]
                                 if isinstance(alts, list) else []),
                "known": (g, h, row["criterion"]) in known,
            }
            meta = known.get((g, h, row["criterion"]))
            if meta is not None:
                entry["status"] = meta.get("status", "unconfirmed")
                if "note" in meta:
                    entry["note"] = meta["note"]
                if "refutation_basis" in meta:
                    entry["refutation_basis"] = meta["refutation_basis"]
            report.append(entry)
    return report
