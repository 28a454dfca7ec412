"""A test oracle: H^2(g,g)_0, the center, the derived algebra and the
(alpha,beta,gamma)-derivations from their definitions over F_p, p in
`PRIMES`.  It imports nothing from `superlie` and reads only `g.m`, `g.n`,
`g.consts` and the slots of a scalar (n0 + n1*i + n2*sqrt2 + n3*i*sqrt2)/q.
A rank mod p never exceeds the rank over the field, so a wrong answer
passes only by matching a rank drop at both primes."""

from itertools import product

PRIMES = (998244353, 1000000009)


def roots(p: int):
    """(i, sqrt2) = (zeta^2, zeta + zeta^-1) in F_p, p = 1 mod 8, for the
    8th root of unity zeta = g^((p - 1)/8), g the least non-residue."""
    g = next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) == p - 1)
    zeta = pow(g, (p - 1) // 8, p)
    return zeta * zeta % p, (zeta + pow(zeta, 7, p)) % p


_ROOTS = {p: roots(p) for p in PRIMES}


def residue(x, p: int):
    """An int, a scalar or a list or tuple of them (nested) in F_p; raises
    if p divides a denominator."""
    if isinstance(x, (list, tuple)):
        return [residue(y, p) for y in x]
    if isinstance(x, int):
        return x % p
    if x.q % p == 0:
        raise ZeroDivisionError(f"{p} divides the denominator {x.q}")
    i, s = _ROOTS[p]
    return (x.n0 + x.n1 * i + (x.n2 + x.n3 * i) * s) * pow(x.q, -1, p) % p


def table(g, p: int):
    """br[a][b] = {k: coordinate k of [x_a, x_b]} in F_p on every ordered
    pair: [x_b, x_a] = -(-1)^(|a||b|) [x_a, x_b] for each stored pair."""
    m, d = g.m, g.m + g.n
    br = [[{} for _ in range(d)] for _ in range(d)]
    for (a, b), terms in g.consts.items():
        for k, x in terms:
            br[a][b][k] = residue(x, p)
            br[b][a][k] = residue(x if a >= m and b >= m else -x, p)
    return br


def cochain_slots(m: int, n: int):
    """({(a, b): phi(x_a, x_b) as (k, slot, sign) terms}, number of slots)
    for the slots of the e-e pairs a < b, the e-f pairs, then the f-f pairs
    a <= b, each with the outputs of parity |a| + |b|, and phi(x_b, x_a) =
    -(-1)^(|a||b|) phi(x_a, x_b)."""
    d = m + n
    phi, slot = {}, 0
    for a, b in ([(a, b) for a in range(m) for b in range(a + 1, m)]
                 + [(a, b) for a in range(m) for b in range(m, d)]
                 + [(a, b) for a in range(m, d) for b in range(a, d)]):
        outputs = range(m, d) if a < m <= b else range(m)
        phi[b, a] = [(k, slot + s, 1 if a >= m else -1)
                     for s, k in enumerate(outputs)]
        phi[a, b] = [(k, slot + s, 1) for s, k in enumerate(outputs)]
        slot += len(outputs)
    return phi, slot


def cocycle_rows(g, br) -> list:
    """Z^2(g,g)_0's rows over the slots: on each ordered triple (x, y, z)
    and output, the part linear in phi of the super-Jacobi sum of
    [.,.] + phi, the sum over the cyclic shifts (u, v, w) of
    (-1)^(|u||w|) (phi(u, [v, w]) + [u, phi(v, w)])."""
    m, d = g.m, g.m + g.n
    phi, _ = cochain_slots(m, g.n)
    rows = {}
    for x, y, z in product(range(d), repeat=3):
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            sign = -1 if u >= m and w >= m else 1
            terms = [(r, s, e * c) for k, c in br[v][w].items()
                     for r, s, e in phi.get((u, k), ())]
            terms += [(r, s, e * c) for k, s, e in phi.get((v, w), ())
                      for r, c in br[u][k].items()]
            for r, s, c in terms:
                row = rows.setdefault((x, y, z, r), {})
                row[s] = row.get(s, 0) + sign * c
    return list(rows.values())


def derivation_rows(g, br, alpha, beta, gamma, degree: int):
    """({(a, b, k): row}, number of maps): coordinate k of the residual
    alpha E[x_a,x_b] - beta [E x_a,x_b] - (-1)^(degree*|a|) gamma [x_a,E x_b]
    on each ordered pair, over the maps E: x_j -> x_i of degree `degree`
    in `invariants._derivation_images`' order: j even, then j odd, each
    with i then j ascending."""
    m, d = g.m, g.m + g.n
    spans = (range(m), range(m, d))
    maps = [(i, j) for q in (0, 1) for i in spans[(q + degree) % 2]
            for j in spans[q]]
    source = [[(u, i) for u, (i, j) in enumerate(maps) if j == s]
              for s in range(d)]
    rows = {}
    for a, b in product(range(d), repeat=2):
        sign = -1 if degree and a >= m else 1
        terms = [(u, i, alpha * c) for j, c in br[a][b].items()
                 for u, i in source[j]]
        terms += [(u, k, -beta * c) for u, i in source[a]
                  for k, c in br[i][b].items()]
        terms += [(u, k, -sign * gamma * c) for u, i in source[b]
                  for k, c in br[a][i].items()]
        for u, k, x in terms:
            row = rows.setdefault((a, b, k), {})
            row[u] = row.get(u, 0) + x
    return rows, len(maps)


def coboundary_rows(g, br) -> list:
    """d1 E = [E., .] + [., E.] - E[., .] over the slots for each even map
    E in `derivation_rows` order: minus its (1,1,1) residual of degree 0 on
    the stored pairs, zero entries dropped.  br may hold exact scalars."""
    phi, _ = cochain_slots(g.m, g.n)
    residual, width = derivation_rows(g, br, 1, 1, 1, 0)
    rows = [{} for _ in range(width)]
    for (a, b), terms in phi.items():
        for k, s, _ in terms if a <= b else ():
            for u, x in residual.get((a, b, k), {}).items():
                if x:
                    rows[u][s] = -x
    return rows


def _clear(row: dict, pivot: dict, j: int, p: int):
    """Subtract row[j] times `pivot`, 1 at j, from `row` over F_p."""
    f = row[j]
    for k, y in pivot.items():
        z = (row.get(k, 0) - f * y) % p
        if z:
            row[k] = z
        else:
            del row[k]


def _insert(pivots: dict, row: dict, p: int) -> bool:
    """Add a row of ints or scalars to the reduced rows `pivots` ({column:
    row, 1 there, 0 at the other columns}): cleared at their columns, what
    is left is the pivot row of its least column and is cleared from them.
    Whether the row raised the rank."""
    row = {c: r for c, x in row.items() if (r := residue(x, p))}
    for c in [c for c in row if c in pivots]:
        _clear(row, pivots[c], c, p)
    if not row:
        return False
    c = min(row)
    inv = pow(row[c], -1, p)
    row = {j: x * inv % p for j, x in row.items()}
    for other in pivots.values():
        if c in other:
            _clear(other, row, c, p)
    pivots[c] = row
    return True


def rref(rows, p: int) -> dict:
    """The RREF of sparse rows over F_p: {pivot column: row}, ascending."""
    pivots = {}
    for row in rows:
        _insert(pivots, row, p)
    return dict(sorted(pivots.items()))


def kernel(reduced: dict, width: int, p: int) -> list:
    """A kernel vector per free column f of an `rref`, f ascending: 1 at f
    and minus the RREF entry at each pivot."""
    return [[int(c == f) if c not in reduced else -reduced[c].get(f, 0) % p
             for c in range(width)] for f in range(width) if f not in reduced]


def h2(g, p: int):
    """(rref of the cocycle rows, dim, basis) of H^2(g,g)_0 over F_p: the
    basis keeps the kernel vectors z_f, f ascending, that raise the rank
    over B^2 and the z_f kept before them."""
    br = table(g, p)
    cocycles = rref(cocycle_rows(g, br), p)
    z = kernel(cocycles, cochain_slots(g.m, g.n)[1], p)
    span = {}
    for row in coboundary_rows(g, br):
        _insert(span, row, p)
    dim = len(z) - len(span)
    return (cocycles, dim,
            [vec for vec in z if _insert(span, dict(enumerate(vec)), p)])


def center(g, p: int):
    """((even, odd) dimensions, (even, odd) bases) of the center over F_p:
    per parity the kernel of u -> ad x_u, a row per (b, output)."""
    m, d = g.m, g.m + g.n
    br = table(g, p)
    bases = [kernel(rref([{u - lo: br[u][b].get(k, 0) for u in range(lo, hi)}
                          for b, k in product(range(d), repeat=2)], p),
                    hi - lo, p) for lo, hi in ((0, m), (m, d))]
    return (len(bases[0]), len(bases[1])), bases


def derived(g, p: int):
    """(even, odd) dimensions of [g, g] over F_p: the rank of all the
    brackets [x_a, x_b], each homogeneous, split by pivot column at m."""
    pivots = rref([terms for row in table(g, p) for terms in row], p)
    even = sum(c < g.m for c in pivots)
    return even, len(pivots) - even


def abc_derivations(g, alpha, beta, gamma, degree: int, p: int):
    """(dim, basis) of the (alpha,beta,gamma)-derivations of degree `degree`
    over F_p: the kernel of `derivation_rows`."""
    rows, width = derivation_rows(g, table(g, p), residue(alpha, p),
                                  residue(beta, p), residue(gamma, p), degree)
    basis = kernel(rref(rows.values(), p), width, p)
    return len(basis), basis
