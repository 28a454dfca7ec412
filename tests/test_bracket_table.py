"""`bracket_table` reads the bracket table off the stored pairs, and
`integral_table` scales it to integral form."""

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
    """`integral_table(g)` is `bracket_table()` scaled by the lcm of its
    denominators: ints for a rational algebra with no common factor left
    over, FieldElems over q = 1 for an irrational one, and the same terms
    in the same places, on `table_cases` with a Q(i, sqrt2) basis change
    of every catalog algebra."""
    from math import gcd, lcm
    from superlie.algebra import integral_table
    for h in table_cases(rng, irrational_dim=5):
        br = h.bracket_table()
        coeffs = [x for row in br for terms in row for _, x in terms]
        scale = lcm(*(x.q for x in coeffs))
        got = integral_table(h)
        assert got == [[[(k, x * scale) for k, x in terms] for terms in row]
                       for row in br], h.name
        assert ([[[k for k, _ in t] for t in row] for row in got]
                == [[[k for k, _ in t] for t in row] for row in br])
        flat = [y for row in got for terms in row for _, y in terms]
        assert flat == [x * scale for x in coeffs], h.name
        if all(x.is_rational() for x in coeffs):
            assert all(type(y) is int for y in flat), h.name
            assert not flat or gcd(*flat, scale) == 1, h.name
        else:
            assert all(y.q == 1 for y in flat), h.name
