"""`bracket_table` reads the bracket table off the stored pairs, and
`integral_table` scales it to integral form."""

from superlie import catalog
from conftest import basis_vector, table_cases


def test_bracket_table_matches_bracket_on_unit_vectors(rng):
    """table[a][b] holds the nonzero coordinates of bracket(x_a, x_b), in
    index order, on every `table_cases` input."""
    for g in table_cases(rng):
        d = g.dim
        vecs = [basis_vector(g, k) for k in range(d)]
        want = [[[(k, x) for k, x in enumerate(sum(g.bracket(vecs[a], vecs[b]),
                                                   [])) if not x.is_zero()]
                 for b in range(d)] for a in range(d)]
        assert g.bracket_table() == want, g.name


def test_integral_table_is_the_least_integral_multiple(rng):
    """`integral_table` scales a table by the lcm of its denominators: ints
    for a rational algebra with no common factor left over, FieldElems over
    q = 1 for an irrational one, and the same terms in the same places."""
    from math import gcd, lcm
    from superlie.algebra import integral_table
    from conftest import rand_gl
    for e in catalog.list_entries():
        g = e.algebra
        for irrational in (False, True):
            h = g.apply_basis_change(rand_gl(g.m, rng, irrational),
                                     rand_gl(g.n, rng, irrational))
            br = h.bracket_table()
            coeffs = [x for row in br for terms in row for _, x in terms]
            scale = lcm(*(x.q for x in coeffs))
            got = integral_table(br)
            assert ([[[k for k, _ in t] for t in row] for row in got]
                    == [[[k for k, _ in t] for t in row] for row in br])
            flat = [y for row in got for terms in row for _, y in terms]
            assert flat == [x * scale for x in coeffs], h.name
            if all(x.is_rational() for x in coeffs):
                assert all(type(y) is int for y in flat), h.name
                assert not flat or gcd(*flat, scale) == 1, h.name
            else:
                assert all(y.q == 1 for y in flat), h.name
