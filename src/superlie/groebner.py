"""A small Buchberger-based emptiness checker for polynomial systems.

Polynomials live in Q(i,sqrt2)[x_0..x_{k-1}], stored as dicts mapping
exponent tuples to coefficients.  Since the coefficient field embeds in C
and C is algebraically closed, the reduced Groebner basis equals {1} if and
only if the system has no complex solution (Nullstellensatz); that is the
only question the callers ask.  Conservative caps keep runtime bounded:
when a cap is hit the verdict is "unknown" rather than a guess.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .field import FieldElem, ONE, ZERO

Monomial = Tuple[int, ...]
Poly = Dict[Monomial, FieldElem]

MAX_BASIS = 500
MAX_DEGREE = 12


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for mono, coeff in q.items():
        acc = out.get(mono, ZERO) + coeff
        if acc.is_zero():
            out.pop(mono, None)
        else:
            out[mono] = acc
    return out


def poly_scale(p: Poly, c: FieldElem) -> Poly:
    if c.is_zero():
        return {}
    return {m: coeff * c for m, coeff in p.items()}


def poly_mul_term(p: Poly, mono: Monomial, c: FieldElem) -> Poly:
    return {tuple(a + b for a, b in zip(m, mono)): coeff * c
            for m, coeff in p.items()}


def _deglex_key(mono: Monomial):
    return (sum(mono), mono)


def leading_term(p: Poly) -> Tuple[Monomial, FieldElem]:
    mono = max(p, key=_deglex_key)
    return mono, p[mono]


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(p: Poly, basis: List[Poly]) -> Poly:
    """Remainder of p modulo basis (multivariate division)."""
    rem: Poly = {}
    work = dict(p)
    leads = [leading_term(g) for g in basis]
    while work:
        mono, coeff = leading_term(work)
        reduced = False
        for g, (gm, gc) in zip(basis, leads):
            if _divides(gm, mono):
                shift = tuple(a - b for a, b in zip(mono, gm))
                work = poly_add(work, poly_mul_term(g, shift, -(coeff / gc)))
                reduced = True
                break
        if not reduced:
            rem[mono] = coeff
            del work[mono]
    return rem


def groebner_basis(gens: List[Poly]) -> Optional[List[Poly]]:
    """Buchberger's algorithm under the caps MAX_BASIS and MAX_DEGREE; None
    when a cap is exceeded."""
    basis = [dict(g) for g in gens if g]
    if not basis:
        return []
    # normalize leading coefficients to 1
    basis = [poly_scale(g, leading_term(g)[1].inv()) for g in basis]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        gi, gj = basis[i], basis[j]
        mi, _ = leading_term(gi)
        mj, _ = leading_term(gj)
        lcm = _lcm(mi, mj)
        # product criterion: coprime leading monomials give nothing new
        if sum(lcm) == sum(mi) + sum(mj):
            continue
        si = poly_mul_term(gi, tuple(a - b for a, b in zip(lcm, mi)), ONE)
        sj = poly_mul_term(gj, tuple(a - b for a, b in zip(lcm, mj)), ONE)
        s = poly_add(si, poly_scale(sj, FieldElem(-1)))
        rem = normal_form(s, basis)
        if not rem:
            continue
        mono, coeff = leading_term(rem)
        if sum(mono) > MAX_DEGREE:
            return None
        rem = poly_scale(rem, coeff.inv())
        basis.append(rem)
        if len(basis) > MAX_BASIS:
            return None
        k = len(basis) - 1
        pairs.extend((i2, k) for i2 in range(k))
    return basis


def system_verdict(gens: List[Poly]) -> str:
    """'empty', 'nonempty' or 'unknown' for the complex solution set."""
    nonzero = [g for g in gens if g]
    if any(set(g) == {tuple([0] * len(next(iter(g))))} for g in nonzero):
        return "empty"  # a nonzero constant equation
    if not nonzero:
        return "nonempty"
    basis = groebner_basis(nonzero)
    if basis is None:
        return "unknown"
    for g in basis:
        mono, _ = leading_term(g)
        if sum(mono) == 0:
            return "empty"
    return "nonempty"
