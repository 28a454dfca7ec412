"""Degeneration engine: witness verification, non-degeneration certificates,
Hasse diagrams of orbit closures, and irreducible components.

A degeneration witness is a parametrized basis x_1..x_m, y_1..y_n over the
expression language; verification is exact, never numeric sampling.  A
graded scaling basis, each x_i one exact monomial c_i*t^(w_i) times one
basis vector, is decided off its weights, with no series solve; any other
basis is solved over Puiseux series, and the two paths give the same
verdicts.  Non-degeneration certificates come from the necessary
conditions listed in ``invariants``; components are the closure-maximal
catalog nodes, pairwise separated by closure or by certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from . import catalog
from .algebra import SuperAlgebra, pairs
from .exprlang import ExprSyntaxError, ExprTypeError, evaluate_basis_vector
from .invariants import ABC_TUPLES, invariant_report, trivial_sub_max
from .linalg import SingularMatrix
from .series import (Diverges, InsufficientPrecision, NoRoot, diverges,
                     working_precision)


class ConsistencyViolation(Exception):
    """A verified degeneration path contradicts a certificate (must not fire)."""


class ShapeMismatch(ValueError):
    """Two algebras of different graded dimensions were compared."""


class WitnessError(ValueError):
    """A witness document, or a basis text in it, that cannot be read."""


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
        # verify_degeneration checks the structure, a missing key included
        return DegenerationWitness(doc.get("from"), doc.get("to"),
                                   doc.get("basis"),
                                   alt_basis=doc.get("alt_basis"),
                                   source=doc.get("source", "user"))


@dataclass
class Verified:
    witness: DegenerationWitness
    used_alt: bool = False
    ok: bool = True
    precision: Optional[Fraction] = None   # the series order that decided


@dataclass
class Failed:
    witness: DegenerationWitness
    reason: str            # "SingularBasis" | "Diverges" | "WrongLimit"
    detail: str = ""
    ok: bool = False
    precision: Optional[Fraction] = None   # the series order that decided


def _algebras(w: DegenerationWitness):
    """The source and target algebras of w, after one check of its
    structure, before the ladder; a bad structure raises WitnessError."""
    for key, value in (("from", w.from_name), ("to", w.to_name),
                       ("source", w.source)):
        if not isinstance(value, str):
            raise WitnessError(f"{key} must be a string, not {value!r}")
    g = catalog.get(w.from_name).algebra
    h = catalog.get(w.to_name).algebra
    _same_shape(g, h)
    names = {f"x{i}" for i in range(1, g.m + 1)} | \
        {f"y{j}" for j in range(1, g.n + 1)}
    for key, basis in (("basis", w.basis), ("alt_basis", w.alt_basis)):
        if key == "alt_basis" and basis is None:
            continue
        if not (isinstance(basis, dict) and all(
                k in names and isinstance(v, str) for k, v in basis.items())):
            raise WitnessError(f"{key} must map x1..x{g.m}, y1..y{g.n} to "
                               f"strings, not {basis!r}")
    return g, h


def _witness_matrices(w: DegenerationWitness, m: int, n: int, precision,
                      basis: Dict[str, str]):
    """Columns T[:,i] / S[:,j] of the parametrized basis at this order; a
    text that is not a vector of its parity raises WitnessError.  Each text
    is evaluated once per (text, m, n, order), through the memo."""
    p = precision if precision is not None else working_precision()

    def matrix(sym: str, default: str, count: int, parity: int):
        cols = []
        for i in range(1, count + 1):
            text = basis.get(f"{sym}{i}", f"{default}{i}")
            try:
                parts = _memo(("basis", text, m, n, p), lambda: tuple(
                    map(tuple, evaluate_basis_vector(text, m, n, p))))
                if any(not x.is_zero() for x in parts[1 - parity]):
                    raise ExprTypeError(f"mixes parities: {text}")
            except (ExprSyntaxError, ExprTypeError, NoRoot) as exc:
                raise WitnessError(f"{sym}{i} of {w.from_name}->"
                                   f"{w.to_name}: {exc}") from exc
            cols.append(parts[parity])
        return [list(row) for row in zip(*cols)]

    return matrix("x", "e", m, 0), matrix("y", "f", n, 1)


def _graded_scaling(T, S):
    """(sigma, coefficients, weights) when the basis is a graded scaling,
    x_i = c_i * t^(w_i) * x_sigma(i) over the combined basis: every column
    of T and of S has one nonzero entry, an exact one-term series, and the
    rows they sit in form a permutation.  None for any other basis."""
    sigma, coeffs, weights = [], [], []
    for offset, M in ((0, T), (len(T), S)):
        for col in zip(*M):
            entries = [(a, x) for a, x in enumerate(col) if not x.is_zero()]
            if len(entries) != 1:
                return None
            (a, x), = entries
            if x.precision is not None or len(x.terms) != 1:
                return None
            (w, c), = x.terms.items()
            sigma.append(offset + a)
            coeffs.append(c)
            weights.append(w)
    if len(set(sigma)) != len(sigma):
        return None
    return sigma, coeffs, weights


def _scaled_limit(g: SuperAlgebra, sigma, coeffs, weights) -> Dict:
    """The stored brackets (`SuperAlgebra.consts`) of the t -> 0 limit of g
    in a graded scaling basis, read off the weights: [x_a, x_b] has
    c_a c_b / c_j * C^(sigma j)_(sigma a, sigma b) * t^(w_a + w_b - w_j) on
    x_j.  A term of exponent 0 is kept and one of negative exponent raises
    Diverges, scanned in pairs() order and j increasing, as
    SuperAlgebra.limit_at_zero scans the series path's."""
    new = {k: j for j, k in enumerate(sigma)}
    consts = {}
    for a, b in pairs(g.m, g.n):
        wab = weights[a] + weights[b]
        kept = []
        for j, c in sorted((new[k], c) for k, c in g._terms(sigma[a],
                                                             sigma[b])):
            e = wab - weights[j]
            if e < 0:
                raise diverges(e)
            if e == 0:
                kept.append((j, coeffs[a] * coeffs[b] * c / coeffs[j]))
        if kept:
            consts[(a, b)] = tuple(kept)
    return consts


def verify_degeneration(w: Union[DegenerationWitness, Dict], precision=None):
    """Symbolically verify g --w--> h between the catalog algebras w names;
    returns Verified or Failed.

    `precision` caps the series order (working_precision() when None).  The
    whole decision, the basis and then `alt_basis` if the basis fails, runs
    at order min(1, cap), and again at twice the order, up to the cap, while
    the order cannot decide; each order's decision is memoized, so the cap
    only bounds how far the ladder climbs.  Coefficients below the
    truncation order are exact, so every order that decides gives the same
    verdict; the result's `precision` is that order.  Raises
    InsufficientPrecision when the cap cannot decide, WitnessError on a
    malformed witness, and TypeError or ValueError on a float or cap <= 0.
    """
    if isinstance(w, dict):
        w = DegenerationWitness.from_doc(w)
    g, h = _algebras(w)

    def attempt(basis, p) -> Union[Verified, Failed]:
        T, S = _witness_matrices(w, g.m, g.n, p, basis)
        scaling = _graded_scaling(T, S)
        try:
            if scaling is None:
                limit = g.apply_basis_change(T, S, p).limit_at_zero()
                same = limit.constants_equal(h)
            else:
                same = _scaled_limit(g, *scaling) == h.consts
        except SingularMatrix as exc:
            return Failed(w, "SingularBasis", str(exc))
        except Diverges as exc:
            return Failed(w, "Diverges", str(exc))
        if same:
            return Verified(w)
        return Failed(w, "WrongLimit",
                      f"limit differs from {w.to_name}")

    def decide(p) -> Union[Verified, Failed]:
        result = attempt(w.basis, p)
        if not result.ok and w.alt_basis:
            alt = attempt(w.alt_basis, p)
            if alt.ok:
                alt.used_alt = True
                result = alt
        result.precision = p
        return result

    cap = working_precision(precision)
    key = ("decide", w.from_name, w.to_name, w.source,
           tuple(sorted(w.basis.items())),
           tuple(sorted((w.alt_basis or {}).items())))
    p = min(Fraction(1), cap)
    while True:
        try:
            return _memo(key + (p,), lambda: decide(p))
        except InsufficientPrecision:
            if p >= cap:
                raise
            p = min(2 * p, cap)


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
# algebra's _Profile by (m, n, stored brackets), a witness's decision at one
# ladder order by ("decide", from, to, source, sorted basis items, sorted
# alt_basis items, order), not by the cap, and a basis text's (even, odd)
# series coordinates by ("basis", text, m, n, order).  Derivation paths that
# reach the same algebra (a label, its ab, its F then ab, an unlabelled
# copy) share its entry.
_MEMO: Dict[tuple, object] = {}


def _memo(key: tuple, compute):
    if key not in _MEMO:
        _MEMO[key] = compute()
    return _MEMO[key]


# The numeric criteria: along a degeneration g -> h each compared value
# moves only in its direction, +1 up, -1 down (gamma = 0: False to True).
# The orbit dimension falls strictly between the algebras of a pair, but
# only weakly between their ab or F reductions, which may coincide.
_DIRECTION = {"orbit_dim": -1, "gamma_zero": 1, "center": 1, "derived": -1,
              "abc_derivation": 1}


class _Profile:
    """One distinct algebra: the algebra (named by its first caller), its
    `invariant_report` without t(g), and the slots the numeric criteria
    compare, as (labels, value) in search order.  t(g) and the entries of
    its ab and F reductions are filled in on first use."""

    def __init__(self, g: SuperAlgebra):
        self.alg = g
        self.record = r = invariant_report(g, with_trivial=False)
        self.slots = {
            "orbit_dim": [({}, r["orbit_dim"])],
            "gamma_zero": [({}, r["gamma_zero"])],
            "center": [({"degree": i}, r["center"][i]) for i in (0, 1)],
            "derived": [({"degree": i}, r["derived"][i]) for i in (0, 1)],
            "abc_derivation": [
                ({"tuple": (a, b, c), "degree": i},
                 r["abc_entries"][f"({a},{b},{c})@{i}"])
                for a, b, c in ABC_TUPLES for i in (0, 1)],
        }

    @cached_property
    def trivial(self) -> Dict:
        return trivial_sub_max(self.alg)

    @cached_property
    def ab(self) -> "_Profile":
        return _profile(self.alg.ab())

    @cached_property
    def F(self) -> "_Profile":
        return _profile(self.alg.forget_gamma())


def _profile(g: SuperAlgebra) -> _Profile:
    """The memo entry of g, made on first use."""
    return _memo((g.m, g.n, tuple(g.consts.items())), lambda: _Profile(g))


def _shown(value):
    """A slot label or value as a certificate prints it: gamma = 0 is a
    bool, and an (alpha, beta, gamma) tuple a list of the caller's own."""
    if isinstance(value, bool):
        return "gamma=0" if value else "gamma!=0"
    return list(value) if isinstance(value, tuple) else value


def _check_criterion(p: _Profile, q: _Profile, criterion, reduced=False,
                     wanted=()) -> Optional[Dict]:
    """Evaluate one necessary condition of degeneration for the pair of
    algebras with entries (p, q); returns violation data when the condition
    fails (certifying p -/-> q).  A numeric criterion gives its first slot
    out of direction whose labels hold every (key, value) of `wanted`.  A
    `reduced` pair, the ab or F reductions of a pair, is compared by the
    numeric criteria alone: ab and F are idempotent and each kills the
    other, so a second reduction finds nothing new."""
    if criterion in _DIRECTION:
        sign = _DIRECTION[criterion]
        strict = criterion == "orbit_dim" and not reduced
        for (labels, vg), (_, vh) in zip(p.slots[criterion],
                                         q.slots[criterion]):
            step = sign * (vh - vg)
            if (step < 0 or strict and step == 0) and all(
                    labels.get(k) == v for k, v in wanted):
                return {**{k: _shown(v) for k, v in labels.items()},
                        "from_value": _shown(vg), "to_value": _shown(vh)}
        return None
    if reduced:
        return None
    if criterion in ("ab_recursion", "F_recursion"):
        attr = "ab" if criterion == "ab_recursion" else "F"
        sub = _pair_certs(getattr(p, attr), getattr(q, attr), reduced=True)
        return {"inner": sub[0][0], "inner_data": sub[0][1]} if sub else None
    if criterion == "trivial_sub":
        tg, th = p.trivial["exact"], q.trivial["exact"]
        if tg is not None and th is not None and tg > th:
            return {"from_value": tg, "to_value": th}
        return None
    raise ValueError(f"unknown criterion {criterion!r}")


_CRITERIA = ("orbit_dim", "gamma_zero", "center", "derived",
             "ab_recursion", "F_recursion", "abc_derivation", "trivial_sub")


def _pair_certs(p: _Profile, q: _Profile,
                reduced=False) -> List[Tuple[str, Dict]]:
    """(criterion, violation data) of every criterion that certifies
    p -/-> q."""
    return [(criterion, data) for criterion in _CRITERIA
            if (data := _check_criterion(p, q, criterion, reduced))]


def auto_nondegen(g: Union[str, SuperAlgebra], h: Union[str, SuperAlgebra]):
    """All certificates that g does not degenerate to h, or Inconclusive.
    Algebras with the same stored brackets share one memo entry, and such a
    pair is reflexive: g -> g always."""
    galg = catalog.get(g).algebra if isinstance(g, str) else g
    halg = catalog.get(h).algebra if isinstance(h, str) else h
    _same_shape(galg, halg)
    p, q = _profile(galg), _profile(halg)
    certs = [] if p is q else [
        NonDegCertificate(galg.name, halg.name, criterion, data)
        for criterion, data in _pair_certs(p, q)]
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
    """Verify the stored witness rows up to the cap `precision`; stable
    table order.  Caps that decide at the same order share each result."""
    return [verify_degeneration(doc, precision)
            for doc in catalog.witnesses(dim)]


def build_hasse(dim, precision=None) -> HasseDiagram:
    """The diagram of verified builtin witnesses on one shape.  Raises
    ConsistencyViolation when an edge does not lower the orbit dimension or
    a certificate contradicts a verified path."""
    m, n = catalog.normalize_dim(dim)
    entries = catalog.list_entries((m, n))
    nodes = [e.label for e in entries]
    dims = {e.label: _profile(e.algebra).record["orbit_dim"]
            for e in entries}
    edges, failed = [], []
    for res in verify_builtin_witnesses((m, n), precision=precision):
        if res.ok:
            edges.append((res.witness.from_name, res.witness.to_name))
        else:
            failed.append(res)
    adj: Dict[str, List[str]] = {lab: [] for lab in nodes}
    for a, b in edges:
        if dims[a] <= dims[b]:
            raise ConsistencyViolation(
                f"edge {a} -> {b} does not decrease orbit dimension "
                f"({dims[a]} <= {dims[b]})")
        adj[a].append(b)
    # every edge lowers the orbit dimension, so in increasing orbit
    # dimension each node's targets are closed before it
    closure: Dict[str, set] = {}
    for lab in sorted(nodes, key=dims.get):
        closure[lab] = {lab}.union(*(closure[b] for b in adj[lab]))
    for u in nodes:
        for v in closure[u]:
            if u == v:
                continue
            certs = auto_nondegen(u, v)
            if isinstance(certs, list) and certs:
                raise ConsistencyViolation(
                    f"verified path {u} -> {v} contradicts certificate "
                    f"{certs[0].describe()}")
    return HasseDiagram((m, n), nodes, dims, edges, closure, failed)


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
    return any(w != u and isinstance(auto_nondegen(u, w), list)
               for w in sorted(closure[v]))


def component_analysis(dim, precision=None) -> Dict:
    diagram = build_hasse(dim, precision=precision)
    nodes = diagram.nodes
    maximal = [u for u in nodes
               if not any(u in diagram.closure[v] for v in nodes if v != u)]
    warnings = []
    for i, u in enumerate(maximal):
        for v in maximal[i + 1:]:
            for a, b in ((u, v), (v, u)):
                if not _separated(a, b, diagram.closure):
                    warnings.append(f"inconclusive separation: {a} -/-> {b} "
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
        data = _check_criterion(_profile(catalog.get(g).algebra),
                                _profile(catalog.get(h).algebra),
                                row["criterion"], wanted=[
                                    (k, tuple(v) if k == "tuple" else v)
                                    for k, v in row.items()
                                    if k in ("degree", "tuple")])
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
                entry.update({k: meta[k] for k in ("note", "refutation_basis")
                              if k in meta})
            report.append(entry)
    return report
