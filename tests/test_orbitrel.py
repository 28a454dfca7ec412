import sys
from fractions import Fraction

import pytest

from superlie import catalog, invariants, orbitrel
from superlie.algebra import SuperAlgebra
from superlie.exprlang import evaluate_basis_vector
from superlie.orbitrel import (DegenerationWitness, Failed, Inconclusive,
                               Verified, auto_nondegen, build_hasse,
                               components, WitnessError, discrepancy_report,
                               to_dot, verify_degeneration,
                               verify_builtin_witnesses)
from superlie.linalg import SingularMatrix
from superlie.series import (Diverges, InsufficientPrecision,
                             working_precision)


def test_all_builtin_witnesses_verify():
    results = verify_builtin_witnesses()
    assert len(results) == 117
    bad = [r for r in results if not r.ok]
    assert bad == []


def test_witness_cache_is_keyed_by_precision(monkeypatch):
    monkeypatch.delenv("SUPERLIE_PRECISION", raising=False)
    default = verify_builtin_witnesses("(2|3)")
    with pytest.raises(InsufficientPrecision):
        verify_builtin_witnesses("(2|3)", precision=Fraction(1, 2))
    # the default is resolved before the lookup: an explicit 8 shares its
    # entries, and a changed environment variable does not
    explicit = verify_builtin_witnesses("(2|3)", precision=Fraction(8))
    assert all(a is b for a, b in zip(default, explicit, strict=True))
    monkeypatch.setenv("SUPERLIE_PRECISION", "1/2")
    with pytest.raises(InsufficientPrecision):
        verify_builtin_witnesses("(2|3)")


def test_witness_wrong_limit_detected():
    w = DegenerationWitness("(1|2)_2", "(1|2)_1", {"y1": "t*f1"})
    res = verify_degeneration(w)
    assert isinstance(res, Failed)
    assert res.reason in ("WrongLimit", "SingularBasis")


def test_witness_singular_basis_detected():
    w = DegenerationWitness("(1|2)_2", "(1|2)_1",
                            {"y1": "f1", "y2": "f1"})
    res = verify_degeneration(w)
    assert isinstance(res, Failed)
    assert res.reason == "SingularBasis"


def test_witness_diverges_detected():
    w = DegenerationWitness("(1|2)_2", "(1|2)_2", {"y1": "t^(-1)*f1"})
    res = verify_degeneration(w)
    assert isinstance(res, Failed)
    assert res.reason in ("Diverges", "WrongLimit")


def test_nested_radical_witnesses():
    rows = [w for w in catalog.witnesses("(2|3)")
            if w["from"] == "(2|3)_6" and w["to"] in ("(2|3)_10", "(2|3)_11")]
    assert len(rows) == 2
    for row in rows:
        assert verify_degeneration(row).ok


def test_unresolved_zero_divisor_is_still_a_wrong_limit():
    # at order 1, sqrt(1-t) - 1 is O(t): the inverse cannot decide there,
    # so the order climbs until it can
    w = DegenerationWitness("(1|2)_2", "(1|2)_2",
                            {"y1": "t^2*(sqrt(1-t)-1)^(-1)*f1"})
    for cap in (None, Fraction(16)):
        res = verify_degeneration(w, precision=cap)
        assert isinstance(res, Failed) and res.reason == "WrongLimit"
        assert res.precision == 2


def test_unresolved_basis_entry_cannot_verify_a_wrong_limit():
    # x1 = e3 + (t/2 + ...)*e1 gives the limit a term that (3|1)_1 lacks;
    # at order 1 the coefficient of e1 is O(t), and treating it as zero in
    # the solve would verify the witness
    w = DegenerationWitness("(3|1)_3", "(3|1)_1",
                            {"x1": "e3+(1-sqrt(1-t))*e1", "x3": "t*e1"})
    with pytest.raises(InsufficientPrecision):
        verify_degeneration(w, precision=Fraction(1))
    res = verify_degeneration(w)
    assert isinstance(res, Failed) and res.reason == "WrongLimit"
    assert res.precision == 2


def test_verdict_records_the_deciding_order():
    def builtin(frm, to):
        doc, = [d for d in catalog.witnesses()
                if (d["from"], d["to"]) == (frm, to)]
        return doc

    res = verify_degeneration(builtin("(2|3)_6", "(2|3)_11"),
                              precision=Fraction(16))
    assert res.ok and res.precision == 2
    res = verify_degeneration(builtin("(3|1)_3", "(3|1)_1"))
    assert res.ok and res.precision == 1
    res = verify_degeneration(builtin("(3|1)_3", "(3|1)_1"),
                              precision=Fraction(1, 2))
    assert res.ok and res.precision == Fraction(1, 2)


_PAIR = {"from": "(2|3)_16", "to": "(2|3)_13"}
_BASIS = {"y1": "t*f1", "y3": "t*f3"}     # verifies on _PAIR


@pytest.mark.parametrize("doc", [
    {**_PAIR, "basis": {"Y1": "t*f1", "y3": "t*f3"}},
    {**_PAIR, "basis": {**_BASIS, "x9": "e1"}},
    {**_PAIR, "basis": ["y1"]},
    {**_PAIR, "basis": _BASIS, "alt_basis": "oops"},
    {**_PAIR, "basis": _BASIS, "alt_basis": {"y1": 1}},
    {**_PAIR, "basis": _BASIS, "source": 7},
    {**_PAIR, "alt_basis": _BASIS},
    {"from": ["(2|3)_16"], "to": "(2|3)_13", "basis": _BASIS},
    {**_PAIR, "basis": {"y1": "1/(t-t)*f1"}},
    {**_PAIR, "basis": {"y1": "sqrt(3)*f1"}},
    {**_PAIR, "basis": {"y1": "t*f1 +"}},
    {**_PAIR, "basis": {"y1": "e1"}},
    {**_PAIR, "basis": {"y1": "t"}},
    {**_PAIR, "basis": {"y1": "f9"}},
    # "\u0661" is the Arabic-Indic digit one, not an ASCII digit
    {**_PAIR, "basis": {"y1": "\u0661*t*f1", "y3": "t*f3"}},
], ids=["capital-key", "key-outside-shape", "list-basis", "string-alt-basis",
        "numeric-alt-text", "numeric-source", "missing-basis", "list-from",
        "exact-zero-divisor", "root-outside-field", "syntax", "mixed-parity",
        "scalar", "unknown-symbol", "non-ascii-digit"])
def test_malformed_witness_raises_witness_error(doc):
    """A bad structure, checked before the ladder, and a basis text that
    does not evaluate at an order, both raise WitnessError, for a document
    and for a witness object alike."""
    with pytest.raises(WitnessError):
        verify_degeneration(doc)
    with pytest.raises(WitnessError):
        verify_degeneration(DegenerationWitness.from_doc(doc))


def test_basis_memo_keys_on_text_shape_and_order(monkeypatch):
    """A text's memo entry is per (text, m, n, order): the same text under
    (2|3) and (3|2) gives each shape's own vector, the parity check runs
    on every use, and an evaluation error is raised again, not stored."""
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    w = DegenerationWitness("?", "?", {})
    basis = {"x1": "t*e2 + e1", "y1": "f2 - t*f1"}
    for m, n in ((2, 3), (3, 2), (2, 3)):
        T, S = orbitrel._witness_matrices(w, m, n, Fraction(1), basis)
        even, _ = evaluate_basis_vector(basis["x1"], m, n, Fraction(1))
        _, odd = evaluate_basis_vector(basis["y1"], m, n, Fraction(1))
        assert [row[0] for row in T] == even
        assert [row[0] for row in S] == odd
    for text in basis.values():
        assert {key[2:] for key in orbitrel._MEMO if key[1] == text} == \
            {(2, 3, 1), (3, 2, 1)}
    for bad in ({"x1": "f2 - t*f1"}, {"y1": "1/(t-t)*f1"},
                {"y1": "1/(t-t)*f1"}):
        with pytest.raises(WitnessError):
            orbitrel._witness_matrices(w, 2, 3, Fraction(1), bad)
    assert not any(key[1] == "1/(t-t)*f1" for key in orbitrel._MEMO)


def test_basis_memo_never_crosses_orders(monkeypatch):
    """(2|3)_10 -> (2|3)_8 cannot decide at order 1; its order-1 vectors
    stay in the memo, and the ladder to 16 then decides at order 2 exactly
    as it does from a cold memo."""
    monkeypatch.delenv("SUPERLIE_PRECISION", raising=False)
    doc = next(d for d in catalog.witnesses("(2|3)")
               if (d["from"], d["to"]) == ("(2|3)_10", "(2|3)_8"))
    fields = lambda r: (type(r), r.ok, r.used_alt, r.precision)
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    with pytest.raises(InsufficientPrecision):
        verify_degeneration(doc, precision=1)
    assert orbitrel._MEMO
    warm = verify_degeneration(doc, precision=16)
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    cold = verify_degeneration(doc, precision=16)
    assert fields(warm) == fields(cold) == (Verified, True, False, 2)


def test_basis_texts_evaluated_once_per_key(monkeypatch):
    """From a cold memo, the 117 rows at the default precision evaluate
    each distinct (text, m, n, order) once."""
    monkeypatch.delenv("SUPERLIE_PRECISION", raising=False)
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    calls = []

    def spy(text, m, n, precision=None):
        calls.append((text, m, n, precision))
        return evaluate_basis_vector(text, m, n, precision)

    monkeypatch.setattr(orbitrel, "evaluate_basis_vector", spy)
    docs = catalog.witnesses()
    assert len(docs) == 117
    assert all(verify_degeneration(doc).ok for doc in docs)
    assert len(calls) == len(set(calls))
    assert set(calls) == {key[1:] for key in orbitrel._MEMO
                          if key[0] == "basis"}
    assert len(calls) < sum(len(d["basis"]) for d in docs)


def test_builtin_rows_decide_at_orders_one_and_two(monkeypatch):
    """Every builtin row verifies with its basis, at the default precision
    and at 16; exactly (2|3)_10 -> (2|3)_8 and (2|3)_6 -> (2|3)_11 need
    order 2 of the ladder, the other 115 decide at order 1."""
    monkeypatch.delenv("SUPERLIE_PRECISION", raising=False)
    for cap in (None, Fraction(16)):
        results = verify_builtin_witnesses(precision=cap)
        assert len(results) == 117
        assert all(r.ok and not r.used_alt for r in results)
        late = sorted((r.witness.from_name, r.witness.to_name)
                      for r in results if r.precision != 1)
        assert late == [("(2|3)_10", "(2|3)_8"), ("(2|3)_6", "(2|3)_11")]
        assert all(r.precision in (1, 2) for r in results)


def _fields(r):
    return (type(r), r.ok, getattr(r, "used_alt", False), r.precision,
            getattr(r, "reason", None))


def _decide_keys():
    return {key for key in orbitrel._MEMO if key[0] == "decide"}


def test_cap_16_served_from_the_default_decisions(monkeypatch):
    """From a cold memo, the 117 rows at cap 16 after the default cap are
    the very same objects, and equal field by field a cold run at 16."""
    monkeypatch.delenv("SUPERLIE_PRECISION", raising=False)
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    default = verify_builtin_witnesses()
    warm = verify_builtin_witnesses(precision=16)
    assert len(warm) == 117
    assert all(a is b for a, b in zip(default, warm, strict=True))
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    cold = verify_builtin_witnesses(precision=16)
    assert [_fields(r) for r in warm] == [_fields(r) for r in cold]


def test_decision_keyed_by_the_whole_witness(monkeypatch):
    """A row with the same from/to but another basis, alt_basis or source
    gets its own decision; an absent and an empty alt_basis share one."""
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    doc = next(d for d in catalog.witnesses("(1|2)")
               if (d["from"], d["to"]) == ("(1|2)_2", "(1|2)_1"))
    wrong = {"y1": "t*f1"}
    row = verify_degeneration(doc)
    assert isinstance(row, Verified) and len(_decide_keys()) == 1
    variants = [
        ({**doc, "basis": wrong}, (Failed, False)),
        ({**doc, "basis": wrong, "alt_basis": doc["basis"]}, (Verified, True)),
        ({**doc, "source": "elsewhere"}, (Verified, False)),
    ]
    for k, (variant, (kind, used_alt)) in enumerate(variants, start=2):
        res = verify_degeneration(variant)
        assert res is not row
        assert res.witness == DegenerationWitness.from_doc(variant)
        assert _fields(res)[:3] == (kind, kind is Verified, used_alt)
        assert len(_decide_keys()) == k
    assert verify_degeneration({**doc, "alt_basis": {}}) is row
    assert len(_decide_keys()) == 4


def test_undecided_order_is_not_stored(monkeypatch):
    """(2|3)_10 -> (2|3)_8 cannot decide at order 1: at cap 1 it raises on
    every call, and no order-1 decision is stored."""
    monkeypatch.delenv("SUPERLIE_PRECISION", raising=False)
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    doc = next(d for d in catalog.witnesses("(2|3)")
               if (d["from"], d["to"]) == ("(2|3)_10", "(2|3)_8"))
    for _ in range(2):
        with pytest.raises(InsufficientPrecision):
            verify_degeneration(doc, precision=1)
    assert _decide_keys() == set()
    assert verify_degeneration(doc, precision=2).precision == 2
    assert {key[-1] for key in _decide_keys()} == {2}


def test_decision_ignores_the_environment_under_an_explicit_cap(
        monkeypatch):
    """With an explicit cap of 16, every builtin row decides alike from a
    cold memo whether SUPERLIE_PRECISION is unset, 4 or 1/2: nothing under
    one order's decision reads working_precision(), so the key is complete.
    (At 1/2 a basis evaluated or solved at the working precision would
    raise InsufficientPrecision.)"""
    runs = []
    for env in (None, "4", "1/2"):
        if env is None:
            monkeypatch.delenv("SUPERLIE_PRECISION", raising=False)
        else:
            monkeypatch.setenv("SUPERLIE_PRECISION", env)
        monkeypatch.setattr(orbitrel, "_MEMO", {})
        runs.append([_fields(r)
                     for r in verify_builtin_witnesses(precision=16)])
    assert len(runs[0]) == 117 and runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("cap, error", [
    (0, ValueError), (Fraction(-1), ValueError), (Fraction(0), ValueError),
    (0.5, TypeError), (1.0, TypeError)])
def test_precision_cap_is_checked(cap, error):
    """A cap <= 0 or a float is refused before the ladder, for one witness
    and for the builtin rows."""
    doc = catalog.witnesses("(1|2)")[0]
    with pytest.raises(error):
        verify_degeneration(doc, precision=cap)
    with pytest.raises(error):
        verify_builtin_witnesses("(1|2)", precision=cap)


def _one_shot(w, basis, cap):
    """The verdict of one basis evaluated and solved over series at the
    cap, as (class name, reason, detail); InsufficientPrecision and the
    like propagate."""
    g = catalog.get(w.from_name).algebra
    h = catalog.get(w.to_name).algebra
    try:
        T, S = orbitrel._witness_matrices(w, g.m, g.n, cap, basis)
        limit = g.apply_basis_change(T, S, cap).limit_at_zero()
    except SingularMatrix as exc:
        return "Failed", "SingularBasis", str(exc)
    except Diverges as exc:
        return "Failed", "Diverges", str(exc)
    if limit.constants_equal(h):
        return "Verified", None, None
    return "Failed", "WrongLimit", f"limit differs from {w.to_name}"


def _decision_at_cap(w, cap):
    """The one-shot decision: the basis, then alt_basis if the basis fails;
    as (class name, reason, detail, used_alt), or the exception class
    raised."""
    try:
        first = _one_shot(w, w.basis, cap)
        if first[0] == "Failed" and w.alt_basis:
            alt = _one_shot(w, w.alt_basis, cap)
            if alt[0] == "Verified":
                return alt + (True,)
        return first + (False,)
    except ArithmeticError as exc:
        return type(exc)


def _ladder(w, cap):
    """verify_degeneration's verdict in _decision_at_cap's form, and the
    order that decided it (None when it raised)."""
    try:
        res = verify_degeneration(w, precision=cap)
    except ArithmeticError as exc:
        return type(exc), None
    if res.ok:
        return ("Verified", None, None, res.used_alt), res.precision
    return ("Failed", res.reason, res.detail, False), res.precision


_FACTORS = ["sqrt(1-t)", "(1-t)^(-1)", "t*sqrt(1-t)", "(sqrt(1-t)-1)",
            "t^2*(sqrt(1-t)-1)^(-1)", "t^(-1)*(1-sqrt(1-t))",
            "(1-sqrt(1-t))^(-1)", "t^(-1)*sqrt(1-t)", "t^(-1)*(1-t)^(-1)"]


def _random_shears(rng, count):
    """Builtin witnesses of dimension <= 4 with one basis vector multiplied
    by a factor built from sqrt(1-t) or (1-t)^(-1), sheared along another
    vector of its parity by such a factor, or replaced by such a multiple
    of another vector (singular); every third keeps the original as its
    alt_basis."""
    docs = [d for d in catalog.witnesses()
            if catalog.get(d["from"]).algebra.dim <= 4]
    out = []
    for k in range(count):
        doc = rng.choice(docs)
        g = catalog.get(doc["from"]).algebra
        basis = dict(doc["basis"])
        kind, size = rng.choice([(kind, size) for kind, size
                                 in (("x", g.m), ("y", g.n)) if size])
        sym = "e" if kind == "x" else "f"
        i = rng.randint(1, size)
        vec = basis.get(f"{kind}{i}", f"{sym}{i}")
        factor = rng.choice(_FACTORS)
        j = rng.choice([j for j in range(1, size + 1) if j != i] or [i])
        other = basis.get(f"{kind}{j}", f"{sym}{j}")
        if k % 5 < 2:
            basis[f"{kind}{i}"] = f"{factor}*({vec})"
        elif k % 5 < 4:
            basis[f"{kind}{i}"] = f"{vec}+{factor}*({other})"
        else:
            basis[f"{kind}{i}"] = f"{factor}*({other})"
        out.append(DegenerationWitness(
            doc["from"], doc["to"], basis,
            alt_basis=doc["basis"] if k % 3 == 0 else None))
    return out


def test_precision_ladder_matches_one_shot_at_cap(rng):
    """verify_degeneration climbs orders 1, 2, 4, ... up to the cap; its
    verdict must be the one a single run at the cap gives, wherever that
    run decides, on every builtin basis and alt_basis, the refutation bases
    and seeded shears by sqrt(1-t) and (1-t)^(-1) factors."""
    witnesses = []
    for doc in catalog.witnesses():
        w = DegenerationWitness.from_doc(doc)
        witnesses.append(w)
        if w.alt_basis:
            witnesses.append(DegenerationWitness(w.from_name, w.to_name,
                                                 w.alt_basis))
    refutations = [DegenerationWitness(r["from"], r["to"],
                                       r["refutation_basis"])
                   for r in catalog.expected()["known_discrepancies"]
                   if "refutation_basis" in r]
    assert len(witnesses) == 118 and len(refutations) == 2
    shears = _random_shears(rng, 40)
    seen, orders = set(), set()
    for cap in (None, Fraction(16), Fraction(1, 2)):
        one_shot_cap = cap if cap is not None else working_precision()
        for w in witnesses + refutations + shears:
            want = _decision_at_cap(w, one_shot_cap)
            got, order = _ladder(w, cap)
            if isinstance(want, tuple):
                assert got == want, (w, cap)
                seen.add((want[0], want[1], want[3]))
                orders.add(order)
            else:
                assert got is want, (w, cap)
    assert orders == {Fraction(1, 2), 1, 2}
    assert {("Verified", None, False), ("Verified", None, True),
            ("Failed", "SingularBasis", False), ("Failed", "Diverges", False),
            ("Failed", "WrongLimit", False)} <= seen


_SCALARS = ["1", "-1", "2", "-1/3", "i", "-2*i", "sqrt2", "(1+i)",
            "(3-i*sqrt2)/5", "(sqrt2-1)/2", "-(2*i+sqrt2)"]
_WEIGHTS = ["-1", "-1/2", "0", "1/4", "1/2", "1", "2"]


def _random_scalings(rng, per_label):
    """Seeded graded scalings x_i = c * t^w * x_sigma(i) on every catalog
    label, towards a random label of the same shape: sigma permutes each
    parity, c is in Q(i, sqrt2) and w in _WEIGHTS."""
    out = []
    for entry in catalog.list_entries():
        g = entry.algebra
        targets = [e.label for e in catalog.list_entries((g.m, g.n))]
        for _ in range(per_label):
            basis = {}
            for sym, name, size in (("x", "e", g.m), ("y", "f", g.n)):
                sigma = rng.sample(range(1, size + 1), size)
                for i, k in enumerate(sigma, start=1):
                    basis[f"{sym}{i}"] = (f"{rng.choice(_SCALARS)}*"
                                          f"t^({rng.choice(_WEIGHTS)})*"
                                          f"{name}{k}")
            out.append(DegenerationWitness(entry.label, rng.choice(targets),
                                           basis))
    return out


def test_graded_scaling_path_matches_series_path(rng, monkeypatch):
    """A graded scaling basis is decided off its weights at the ladder's
    first order, never solved over series; its verdict (class, reason,
    detail) is the one-shot series solve's, on seeded random scalings of
    every label.  The builtin and refutation bases, most of them scalings
    too, are compared in test_precision_ladder_matches_one_shot_at_cap."""
    scalings = _random_scalings(rng, 2)
    assert len(scalings) == 198
    # [f3, f3] = e1 + e2 diverges on x1 = t*e2 as t^-1 and on x2 = t^2*e1
    # as t^-2: the series path names x1's term first, not e1's
    scalings.append(DegenerationWitness(
        "(2|3)_6", "(2|3)_6",
        {"x1": "t*e2", "x2": "t^2*e1", "y1": "t*f1", "y2": "t*f2"}))
    calls = []
    real = SuperAlgebra.apply_basis_change

    def spy(self, T, S, precision=None):
        calls.append(self.name)
        return real(self, T, S, precision)

    seen = set()
    for cap in (None, Fraction(1, 2)):
        first = min(Fraction(1), working_precision(cap))
        for w in scalings:
            want = _decision_at_cap(w, working_precision(cap))
            monkeypatch.setattr(orbitrel, "_MEMO", {})
            monkeypatch.setattr(SuperAlgebra, "apply_basis_change", spy)
            got, order = _ladder(w, cap)
            monkeypatch.setattr(SuperAlgebra, "apply_basis_change", real)
            assert (got, order, calls) == (want, first, []), (w, cap)
            seen.add(want[1])
    assert seen == {None, "WrongLimit", "Diverges"}


def test_only_non_scaling_bases_reach_the_series_path(monkeypatch):
    """From a cold memo, the builtin rows solve over series only the 26
    bases that are not graded scalings, once per ladder order they climb;
    a silent fallback of a scaling basis shows as an extra call."""
    monkeypatch.delenv("SUPERLIE_PRECISION", raising=False)
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    calls = []
    real = SuperAlgebra.apply_basis_change

    def spy(self, T, S, precision=None):
        calls.append((self.name, precision))
        return real(self, T, S, precision)

    monkeypatch.setattr(SuperAlgebra, "apply_basis_change", spy)
    results = verify_builtin_witnesses()
    assert len(results) == 117
    assert all(r.ok and not r.used_alt for r in results)
    want = []
    for r in results:
        w = r.witness
        g = catalog.get(w.from_name).algebra
        T, S = orbitrel._witness_matrices(w, g.m, g.n, 1, w.basis)
        if orbitrel._graded_scaling(T, S) is None:
            want += [(g.name, p) for p in (1, 2) if p <= r.precision]
    assert sum(p == 1 for _, p in want) == 26
    assert sorted(calls) == sorted(want) and len(calls) == 28
    # a one-term entry known only to O(t^2) is not an exact monomial
    calls.clear()
    res = verify_degeneration({**_PAIR, "basis": {"y1": "(1-t)^(-1)*t*f1",
                                                  "y3": "t*f3"}})
    assert res.ok and calls == [("(2|3)_16", 1)]


def test_auto_nondegen_spec_pairs():
    certs = auto_nondegen("(1|2)_2", "(1|2)_3")
    assert isinstance(certs, list) and certs
    assert any(c.criterion == "derived" for c in certs)

    certs = auto_nondegen("(1|3)_1", "(1|3)_3")
    assert isinstance(certs, list) and certs
    assert any(c.criterion == "gamma_zero" for c in certs)


def test_auto_nondegen_undecided_pairs():
    # pairs whose separation no implemented invariant decides
    for g, h in (("(2|3)_7", "(2|3)_2"), ("(2|3)_10", "(2|3)_11"),
                 ("(2|3)_10", "(2|3)_5")):
        assert isinstance(auto_nondegen(g, h), Inconclusive)


def test_an_algebra_is_never_certified_against_itself():
    """Reflexivity is decided by the shared memo entry: a label, its
    algebra and an unlabelled copy of it are all the same algebra."""
    for entry in catalog.list_entries():
        g = entry.algebra
        copy = SuperAlgebra(g.m, g.n, g.consts, name="copy")
        for frm, to in ((entry.label, entry.label), (g, g), (g, copy),
                        (copy, g), (entry.label, copy)):
            assert isinstance(auto_nondegen(frm, to), Inconclusive), \
                (entry.label, frm, to)
    g = catalog.get("(1|2)_2").algebra
    assert auto_nondegen(g, g) == Inconclusive("(1|2)_2", "(1|2)_2")


def test_certificate_data_is_the_callers_own():
    """A certificate's data is built per call: changing it changes no
    later certificate."""
    def abc():
        certs = auto_nondegen("(3|0)_0", "(3|0)_1")
        return next(c.data for c in certs if c.criterion == "abc_derivation")

    first = abc()
    first["tuple"].append(9)
    first["degree"] = 7
    assert abc() == {"tuple": [1, 1, 1], "degree": 0,
                     "from_value": 9, "to_value": 6}


def test_one_reduction_level_suffices():
    """ab and F are idempotent and each kills the other, so the ab or F
    reductions of a pair are never reduced again."""
    for entry in catalog.list_entries():
        ab, F = entry.algebra.ab(), entry.algebra.forget_gamma()
        assert ab.ab().consts == ab.consts, entry.label
        assert F.forget_gamma().consts == F.consts, entry.label
        assert ab.forget_gamma().consts == {} == F.ab().consts, entry.label


def _small_pairs():
    """Ordered pairs u != v of catalog labels of one shape, m + n <= 4."""
    entries = [e for e in catalog.list_entries() if e.m + e.n <= 4]
    return [(u.label, v.label) for u in entries for v in entries
            if u is not v and (u.m, u.n) == (v.m, v.n)]


def _certified(res):
    if isinstance(res, Inconclusive):
        return None
    return [(c.criterion, c.data) for c in res]


def test_memo_shared_across_calls_matches_fresh_memo(monkeypatch):
    pairs = _small_pairs()
    assert len(pairs) == 108
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    shared = [auto_nondegen(u, v) for u, v in pairs]
    for (u, v), want in zip(pairs, shared):
        monkeypatch.setattr(orbitrel, "_MEMO", {})
        assert auto_nondegen(u, v) == want, (u, v)


def test_unlabelled_copy_gets_the_labels_certificates():
    def copy(label):
        g = catalog.get(label).algebra
        return SuperAlgebra(g.m, g.n, g.consts, name="copy")

    for u, v in _small_pairs():
        want = _certified(auto_nondegen(u, v))
        assert _certified(auto_nondegen(copy(u), copy(v))) == want, (u, v)
        assert _certified(auto_nondegen(copy(u), v)) == want, (u, v)


def test_certificate_names_come_from_the_caller(monkeypatch):
    """A copy shares the label's memo entry but not its name: the
    certificates and Inconclusive name what the caller passed."""
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    kinds = set()
    for u, v in _small_pairs():
        g = catalog.get(u).algebra
        copy = SuperAlgebra(g.m, g.n, g.consts, name="copy")
        auto_nondegen(u, v)   # the label's call makes the shared entries
        for frm, to, res in (("copy", v, auto_nondegen(copy, v)),
                             (v, "copy", auto_nondegen(v, copy))):
            kinds.add(type(res))
            named = [res] if isinstance(res, Inconclusive) else res
            assert all((c.from_name, c.to_name) == (frm, to)
                       for c in named), (u, v, res)
    assert kinds == {list, Inconclusive}


def _count_calls(monkeypatch, original, record, owner=None):
    """Put a wrapper that calls record(*args) before `original` wherever
    `original` is bound: in every superlie module and in `owner`."""
    def counting(*args, **kwargs):
        record(*args, **kwargs)
        return original(*args, **kwargs)

    namespaces = [mod for name, mod in sys.modules.items()
                  if name == "superlie" or name.startswith("superlie.")]
    namespaces += [owner] if owner is not None else []
    bound = [(ns, attr) for ns in namespaces
             for attr, value in vars(ns).items() if value is original]
    assert bound, original
    for ns, attr in bound:
        monkeypatch.setattr(ns, attr, counting)


def _key(g):
    return g.m, g.n, tuple(g.consts.items())


def test_component_analysis_derives_each_input_once(monkeypatch):
    """The (alpha,beta,gamma)-derivation images of one distinct (structure
    constants, degree, tuple) are built once, however many derivation paths
    reach the algebra: the report builds the (1,1,1) and (0,1,-1) images of
    each degree, Der_0 (orbit_dim and the (1,1,1)@0 entry) included."""
    calls = []
    _count_calls(monkeypatch, invariants._derivation_images,
                 lambda g, br, alpha, beta, gamma, degree:
                 calls.append((_key(g), degree, (alpha, beta, gamma))))
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    orbitrel.component_analysis("(2|3)")
    assert {t for _, _, t in calls} == {(1, 1, 1), (0, 1, -1)}
    assert len(calls) == len(set(calls)) == 128


def test_component_analysis_reduces_each_input_once(monkeypatch):
    """ab and forget_gamma run once per distinct algebra they reduce."""
    calls = []
    for method in (SuperAlgebra.ab, SuperAlgebra.forget_gamma):
        _count_calls(monkeypatch, method,
                     lambda g, name=method.__name__:
                     calls.append((name, _key(g))), owner=SuperAlgebra)
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    orbitrel.component_analysis("(2|3)")
    assert len(calls) == len(set(calls)) == 50


def test_hasse_dim3():
    diagram = build_hasse((1, 2))
    assert set(diagram.edges) == {("(1|2)_2", "(1|2)_1"),
                                  ("(1|2)_1", "(1|2)_0"),
                                  ("(1|2)_3", "(1|2)_0")}
    dot = to_dot(diagram)
    assert dot.count("->") == 3
    assert diagram.failed_witnesses == []


def test_hasse_dim2():
    diagram = build_hasse((1, 1))
    assert diagram.edges == [("(1|1)_1", "(1|1)_0")]
    assert build_hasse((0, 3)).edges == []
    assert build_hasse((2, 0)).edges == []


def test_orbit_dim_strictly_decreases_along_edges():
    for dim in ((1, 2), (2, 2), (1, 3)):
        diagram = build_hasse(dim)
        for frm, to in diagram.edges:
            assert diagram.orbit_dims[frm] > diagram.orbit_dims[to]


def test_hasse_closure_is_reachability_over_edges():
    """On every shape each node's closure is the set of nodes reachable
    from it along verified edges, itself included."""
    shapes = sorted({(e.m, e.n) for e in catalog.list_entries()})
    assert len(shapes) == 18
    for dim in shapes:
        diagram = build_hasse(dim)
        assert sorted(diagram.closure) == sorted(diagram.nodes)
        for u in diagram.nodes:
            reach, more = set(), {u}
            while more != reach:
                reach = more
                more = reach | {b for a, b in diagram.edges if a in reach}
            assert diagram.closure[u] == reach, (dim, u)


def test_hasse_refuses_an_edge_that_does_not_lower_orbit_dim(monkeypatch):
    """Each verified pair reversed, after the real ones: the first reversed
    edge is refused, with both orbit dimensions."""
    real = orbitrel.verify_builtin_witnesses

    def with_reversed(dim=None, precision=None):
        results = real(dim, precision)
        return results + [Verified(DegenerationWitness(
            r.witness.to_name, r.witness.from_name, {})) for r in results]

    monkeypatch.setattr(orbitrel, "verify_builtin_witnesses", with_reversed)
    first = real((1, 2))[0].witness
    a, b = first.to_name, first.from_name
    da, db = (invariants.orbit_dim(catalog.get(x).algebra) for x in (a, b))
    with pytest.raises(orbitrel.ConsistencyViolation) as exc:
        build_hasse((1, 2))
    assert str(exc.value) == (f"edge {a} -> {b} does not decrease orbit "
                              f"dimension ({da} <= {db})")


def test_components_families():
    exp = catalog.expected()["components"]
    for key in ("(1|2)", "(2|2)", "(1|3)"):
        assert sorted(components(key)) == sorted(exp[key])


def test_discrepancy_report_low_dims_empty():
    for dim in (2, 3, 4):
        assert discrepancy_report(dim) == []


def test_discrepancy_report_case_iii_all_known():
    report = discrepancy_report("(2|3)")
    assert len(report) == 9
    assert all(r["known"] for r in report)
    statuses = {(r["row"]["from"], r["row"]["to"]): r.get("status")
                for r in report}
    assert statuses[("(2|3)_19", "(2|3)_2")] == "refuted"
    assert statuses[("(2|3)_22", "(2|3)_21")] == "refuted"
    assert statuses[("(2|3)_7", "(2|3)_2")] == "unconfirmed"
    assert statuses[("(2|3)_4", "(2|3)_3")] == "alternative"
    # rows with an alternative certificate actually list one
    for r in report:
        if r.get("status") == "alternative":
            assert r["alternatives"]


def test_discrepancy_rows_checked_only_at_their_cited_slot(monkeypatch):
    """A row is re-checked at the slot it cites, and only there: (3|0)_0
    has center (3, 0) and (3|0)_1 has (1, 0), and their (0,1,0)- and
    (0,1,-1)-derivations are (9, 0), (9, 0) against (3, 0), (4, 0)."""
    pair = {"from": "(3|0)_0", "to": "(3|0)_1"}
    rows = [dict(pair, criterion="center", degree=0),
            dict(pair, criterion="center", degree=1),
            dict(pair, criterion="abc_derivation", tuple=(0, 1, 0), degree=0),
            dict(pair, criterion="abc_derivation", tuple=[0, 1, -1]),
            dict(pair, criterion="abc_derivation", tuple=[0, 1, -1],
                 degree=1),
            dict(pair, criterion="abc_derivation", tuple=[2, 1, 1])]
    monkeypatch.setattr(catalog, "nondegen_rows", lambda dim=None: rows)
    report = discrepancy_report()
    assert [r["row"] for r in report] == [rows[1], rows[4], rows[5]]
    assert not any(r["known"] for r in report)
    assert all(r["alternatives"] for r in report)


def test_refutation_bases_verify():
    """Rows recorded as refuted by an explicit degeneration really degenerate."""
    for row in catalog.expected()["known_discrepancies"]:
        if "refutation_basis" in row:
            w = DegenerationWitness(row["from"], row["to"],
                                    row["refutation_basis"])
            assert verify_degeneration(w).ok, (row["from"], row["to"])


def test_refuted_transitivity_rows_have_witness_paths():
    diagram = build_hasse((2, 3))
    assert "(2|3)_2" in diagram.closure["(2|3)_19"]
    assert "(2|3)_21" in diagram.closure["(2|3)_22"]


def test_verified_pairs_satisfy_necessary_conditions():
    """Every verified witness pair passes every implemented necessary
    condition (no certificate of non-degeneration exists for it)."""
    for row in catalog.witnesses():
        certs = auto_nondegen(row["from"], row["to"])
        assert isinstance(certs, Inconclusive), \
            (row["from"], row["to"],
             [c.describe() for c in certs] if isinstance(certs, list) else [])
