import ast
from fractions import Fraction
from pathlib import Path

import pytest

from superlie.field import FieldElem

import modp
from conftest import rand_elem


def test_residue_is_a_ring_map_at_each_prime(rng):
    """At each prime, i^2 = -1 and sqrt2^2 = 2, and `modp.residue` keeps
    sums, products and inverses of 200 seeded pairs of Q(i, sqrt2); an
    element whose denominator p divides raises."""
    pairs = [(rand_elem(rng), rand_elem(rng)) for _ in range(200)]
    for p in modp.PRIMES:
        i, s = modp.roots(p)
        assert (i * i % p, s * s % p) == (p - 1, 2), p
        for x, y in pairs:
            rx, ry = modp.residue(x, p), modp.residue(y, p)
            assert modp.residue(x + y, p) == (rx + ry) % p, (x, y, p)
            assert modp.residue(x * y, p) == rx * ry % p, (x, y, p)
            assert not x or modp.residue(1 / x, p) == pow(rx, -1, p), (x, p)
        for bad in FieldElem(Fraction(1, p)), FieldElem(0, Fraction(3, 2 * p)):
            with pytest.raises(ZeroDivisionError):
                modp.residue(bad, p)


def _imports(name):
    """(module, name) per import in tests/`name`; "*" for a plain import."""
    tree = ast.parse((Path(__file__).parent / name).read_text())
    return [(node.module or "", alias.name) if isinstance(node, ast.ImportFrom)
            else (alias.name, "*") for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names]


def test_modp_imports_nothing_from_superlie():
    """The oracle is written from the definitions alone."""
    names = [module for module, _ in _imports("modp.py")]
    assert [n for n in names if n.split(".")[0] == "superlie"] == [], names


def test_exprtree_shares_only_the_tokenizer_with_exprlang():
    """The tree reader takes from `superlie.exprlang` only the tokenizer and
    the error classes, and no reader of scalar text from anywhere."""
    names = _imports("exprtree.py")
    assert {n for module, n in names if module == "superlie.exprlang"} == {
        "_tokenize", "ExprSyntaxError", "ExprTypeError"}, names
    assert not {n for module, n in names if module.startswith("superlie")} & {
        "evaluate", "constant", "evaluate_basis_vector", "_Reader",
        "parse_elem", "*"}, names
