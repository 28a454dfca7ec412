"""The five benchmark workloads: seeded inputs, the calls they time, and the
answers those calls must give.

A workload is a list of passes; a pass is a list of items.  An item is one
call into the public API of ``superlie`` whose answer is compared with the
checked-in reference (``reference.json``).  Inputs are made here, from the
seed, before timing starts; the program only receives them.  Every item also
carries a canonical text of its inputs, from which the run's SHA-256 input
fingerprint is computed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List

HERE = Path(__file__).resolve().parent


def reference(workload: str):
    return json.loads((HERE / "reference.json").read_text())[workload]


@dataclass
class Item:
    key: str                     # short, human-readable identity
    canon: str                   # canonical text of the inputs (fingerprinted)
    call: Callable[[], object]   # the timed call; returns the answer
    expect: object               # reference answer
    cold: bool = False           # restore module state before this item


@dataclass
class Workload:
    name: str
    pass_s: float                # nominal seconds per pass at the seed commit
    build: Callable[[int, int, bool], List[Item]]   # (seed, pass, tiny)
    layers: tuple                # layers this workload must reach


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _doc_text(g) -> str:
    return json.dumps(g.to_doc(), sort_keys=True)


def _frac_det(mat: List[List[Fraction]]) -> Fraction:
    rows = [list(r) for r in mat]
    n = len(rows)
    out = Fraction(1)
    for c in range(n):
        piv = next((k for k in range(c, n) if rows[k][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            out = -out
        out *= rows[c][c]
        for k in range(c + 1, n):
            f = rows[k][c] / rows[c][c]
            rows[k] = [a - f * b for a, b in zip(rows[k], rows[c])]
    return out


def random_gl(size: int, rng: random.Random) -> List[List[Fraction]]:
    """An invertible matrix with entries p/q, |p| <= 4, 1 <= q <= 3."""
    while True:
        mat = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(size)] for _ in range(size)]
        if _frac_det(mat):
            return mat


def _mat_text(mat) -> str:
    return ";".join(",".join(str(x) for x in row) for row in mat)


# -- h2-catalog ---------------------------------------------------------------


def build_h2_catalog(seed: int, pass_index: int, tiny: bool) -> List[Item]:
    from superlie import catalog, cohomology
    ref = reference("h2-catalog")
    labels = [lab for lab in ref if not tiny or lab in TINY["h2-catalog"]]
    _rng("h2-catalog", seed, pass_index).shuffle(labels)
    items = []
    for lab in labels:
        g = catalog.get(lab).algebra
        items.append(Item(lab, lab + "\n" + _doc_text(g),
                          lambda g=g: cohomology.h2_even(g)["dim"], ref[lab]))
    return items


# -- h2-dense -----------------------------------------------------------------


def build_h2_dense(seed: int, pass_index: int, tiny: bool) -> List[Item]:
    from superlie import catalog, cohomology, invariants
    from superlie.field import FieldElem
    ref = reference("h2-dense")
    rng = _rng("h2-dense", seed, pass_index)
    labels = [lab for lab in ref if not tiny or lab in TINY["h2-dense"]]
    items = []
    # matrices are drawn in reference order, then the cases are shuffled
    for lab in labels * H2_DENSE_CASES_PER_LABEL:
        g = catalog.get(lab).algebra
        T = random_gl(g.m, rng)
        S = random_gl(g.n, rng)
        moved = g.apply_basis_change([[FieldElem(x) for x in r] for r in T],
                                     [[FieldElem(x) for x in r] for r in S])

        def call(h=moved):
            return [list(invariants.center(h)[0]), list(invariants.derived(h)),
                    cohomology.h2_even(h)["dim"]]

        exp = ref[lab]
        items.append(Item(lab, "\n".join([lab, _mat_text(T), _mat_text(S),
                                          _doc_text(moved)]),
                          call, [exp["center"], exp["derived"], exp["h2"]]))
    rng.shuffle(items)
    return items


# -- components ---------------------------------------------------------------


def build_components(seed: int, pass_index: int, tiny: bool) -> List[Item]:
    from superlie import catalog, orbitrel
    ref = reference("components")
    fams = list(TINY["components"]) if tiny else list(ref["families"])
    _rng("components", seed, pass_index).shuffle(fams)
    items = []
    for fam in fams:
        docs = [_doc_text(e.algebra) for e in catalog.list_entries(fam)]
        wits = [json.dumps(w, sort_keys=True) for w in catalog.witnesses(fam)]

        def call(fam=fam):
            res = orbitrel.component_analysis(fam)
            return [sorted(res["components"]), res["warnings"]]

        items.append(Item(fam, "\n".join([fam] + docs + wits), call,
                          [sorted(ref["expected"][fam]), []], cold=True))
    return items


# -- gamma23 ------------------------------------------------------------------


def build_gamma23(seed: int, pass_index: int, tiny: bool) -> List[Item]:
    from superlie import gamma23
    from superlie.field import FieldElem, format_elem
    reps = gamma23.REPRESENTATIVES
    labels = reference("gamma23")["labels"]
    if sorted(reps) != sorted(labels):
        raise RuntimeError("gamma23.REPRESENTATIVES differ from the reference")
    rng = _rng("gamma23", seed, pass_index)
    per_rep = 1 if tiny else GAMMA23_ACTIONS_PER_REP
    pairs = [(lab, "rep", reps[lab]) for lab in labels]
    for lab in labels:
        for k in range(per_rep):
            T = [[FieldElem(x) for x in r] for r in random_gl(2, rng)]
            S = [[FieldElem(x) for x in r] for r in random_gl(3, rng)]
            pairs.append((lab, f"act{k}", gamma23.pair_act(T, S, reps[lab])))
    rng.shuffle(pairs)
    items = []
    for lab, kind, pair in pairs:
        text = "|".join(";".join(",".join(format_elem(x) for x in row)
                                 for row in mat) for mat in pair)
        items.append(Item(f"{lab}/{kind}", f"{lab}\n{text}",
                          lambda p=pair: gamma23.classify_pair(p), lab))
    return items


# -- witnesses ----------------------------------------------------------------


def build_witnesses(seed: int, pass_index: int, tiny: bool) -> List[Item]:
    from superlie import catalog, orbitrel
    ref = reference("witnesses")
    docs = catalog.witnesses()
    keys = [[d["from"], d["to"], d.get("source", "")] for d in docs]
    if keys != ref["rows"]:
        raise RuntimeError("catalog witnesses differ from the reference")
    if tiny:
        docs = [d for d in docs if d["from"] in TINY["witnesses"]]
    precisions = [p and Fraction(p) for p in ref["precisions"]]
    items = []
    for prec in precisions:
        for d in docs:
            def call(d=d, prec=prec):
                res = orbitrel.verify_degeneration(d, precision=prec)
                return type(res).__name__ if res.ok else f"Failed:{res.reason}"

            key = f"{d['from']}->{d['to']}@{prec}"
            items.append(Item(key, key + "\n" + json.dumps(d, sort_keys=True),
                              call, "Verified"))
    _rng("witnesses", seed, pass_index).shuffle(items)
    return items


# -- registry -----------------------------------------------------------------

GAMMA23_ACTIONS_PER_REP = 16
# Two cases per label: with one, the per-item median of the unequal labels
# moved by 20 % from seed to seed.
H2_DENSE_CASES_PER_LABEL = 2

# Small inputs for the smoke check; each still reaches every layer its
# workload is expected to move.
TINY = {
    "h2-catalog": {"(2|1)_1", "(1|2)_3", "(3|0)_1", "(0|3)_0"},
    "h2-dense": {"(3|1)_0", "(2|2)_0"},
    "components": ["(1|2)"],
    "witnesses": {"(1|2)_2", "(2|3)_6"},
}

# The layers ("<module>.<function>") each workload must reach: the smoke
# check requires every count and self time of these to be non-zero.
_FIELD = ("field.mul", "field.add", "field.inv")
_ELIM = ("linalg.rref", "linalg.rank", "linalg.kernel")
_H2 = ("cohomology.h2_even", "cohomology.d2", "cohomology.d1",
       "algebra.bracket")
_DERIVED = ("invariants.center", "invariants.derived")

# Nominal pass times: raw seconds at this commit on a 2-core x86-64 machine.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload("h2-catalog", 21.8, build_h2_catalog, _FIELD + _ELIM + _H2),
    Workload("h2-dense", 22.0, build_h2_dense,
             _FIELD + _ELIM + _H2 + _DERIVED),
    Workload("components", 14.8, build_components,
             _FIELD + _ELIM + _DERIVED + (
                 "algebra.bracket", "invariants.abc_derivations",
                 "invariants.orbit_dim", "invariants.trivial_sub_max",
                 "groebner.system_verdict", "orbitrel.auto_nondegen",
                 "orbitrel.build_hasse")),
    Workload("gamma23", 3.4, build_gamma23,
             _FIELD + _ELIM + ("linalg.det", "gamma23.classify_pair",
                               "gamma23.pencil_signature",
                               "gamma23.simdiag_test")),
    Workload("witnesses", 8.7, build_witnesses,
             _FIELD + ("linalg.series_solve", "algebra.apply_basis_change",
                       "algebra.limit_at_zero", "series.mul", "series.inv",
                       "series.sqrt", "exprlang.evaluate_basis_vector",
                       "orbitrel.verify_degeneration")),
]}


def passes_for(workload: Workload, seconds: float, tiny: bool) -> int:
    """Whole passes in a run: the run measures about ``seconds`` at the seed
    commit (longer only if one pass is longer), and the work is the same on
    every commit for equal arguments."""
    if tiny:
        return 1
    return max(1, int(seconds / workload.pass_s))
