"""Command-line interface.

Subcommands: list, show, check, invariants, h2, degenerate, nondegen, hasse,
components, gamma23, verify-all, selftest.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 internal inconsistency.  The environment variable SUPERLIE_PRECISION
overrides the default series precision; like --precision, it must be a
positive rational.  JSON output is byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import catalog, cohomology, gamma23, invariants, orbitrel
from .algebra import AlgebraError, SuperAlgebra
from .catalog import NotFound
from .cohomology import format_cocycle
from .orbitrel import ConsistencyViolation, ShapeMismatch
from .series import (InsufficientPrecision, NoRoot, NotInvertible,
                     parse_precision)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3


def _dump(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True)


def _precision(text: str) -> Fraction:
    """--precision or SUPERLIE_PRECISION, by the rule the library uses."""
    try:
        return parse_precision(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{exc} (--precision or SUPERLIE_PRECISION)") from None


class ParseError(Exception):
    """A malformed input file; reported on one line with exit code 2."""


def _read_object(path: str) -> dict:
    """The JSON object in a file; an unreadable or malformed file (a
    directory, bad JSON, not an object) is a ParseError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise ParseError(exc) from exc
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object")
    return doc


def _load_algebra(target: str) -> SuperAlgebra:
    """Resolve a catalog label or a JSON file path to an algebra."""
    if os.path.exists(target):
        doc = _read_object(target)
        try:
            return SuperAlgebra.from_doc(doc)
        except (KeyError, ValueError) as exc:
            raise ParseError(exc) from exc
    return catalog.get(target).algebra


def _load_witness(args) -> orbitrel.DegenerationWitness:
    """The --witness file of `degenerate`, its basis expressions evaluated
    once against the source algebra, so a malformed file is a ParseError."""
    doc = _read_object(args.witness)
    doc.setdefault("from", args.frm)
    doc.setdefault("to", args.to)
    try:
        w = orbitrel.DegenerationWitness.from_doc(doc)
        g = catalog.get(w.from_name).algebra
        for basis in filter(None, (w.basis, w.alt_basis)):
            orbitrel._witness_matrices(w, g.m, g.n, args.precision, basis)
    except NotFound:
        raise
    except (KeyError, TypeError, ValueError, NotInvertible, NoRoot) as exc:
        raise ParseError(exc) from exc
    return w


# -- subcommands ---------------------------------------------------------------------


def cmd_list(args) -> int:
    entries = catalog.list_entries(args.dim) if args.dim else \
        catalog.list_entries()
    if args.json:
        print(_dump([e.label for e in entries]))
    else:
        for e in entries:
            print(e.label)
    return EXIT_OK


def cmd_show(args) -> int:
    entry = catalog.get(args.label)
    print(_dump(entry.doc))
    return EXIT_OK


def cmd_check(args) -> int:
    g = _load_algebra(args.target)
    issues = list(g.check_consistency())
    jac = g.check_jacobi()
    if jac:
        issues.append(f"jacobi violations at {jac}")
    if not g.is_nilpotent():
        issues.append("not nilpotent")
    if issues:
        for item in issues:
            print(f"FAIL {g.name}: {item}")
        return EXIT_FAIL
    print(f"OK {g.name}: axioms, consistency and nilpotency hold")
    return EXIT_OK


def cmd_invariants(args) -> int:
    g = _load_algebra(args.target)
    report = invariants.invariant_report(g, with_trivial=not args.no_trivial)
    print(_dump(report))
    return EXIT_OK


def cmd_h2(args) -> int:
    g = _load_algebra(args.target)
    res = cohomology.h2_even(g)
    doc = {"dim": res["dim"],
           "basis": [format_cocycle(phi) for phi in res["basis"]]}
    print(_dump(doc))
    return EXIT_OK


def cmd_degenerate(args) -> int:
    if args.witness:
        rows = [_load_witness(args)]
    else:
        rows = [w for w in catalog.witnesses()
                if w["from"] == args.frm and w["to"] == args.to]
        if not rows:
            print(f"no builtin witness for {args.frm} -> {args.to}",
                  file=sys.stderr)
            return EXIT_USAGE
    code = EXIT_OK
    for row in rows:
        res = orbitrel.verify_degeneration(row, precision=args.precision)
        # a witness file's own "from"/"to" take precedence over the options
        pair = f"{res.witness.from_name} -> {res.witness.to_name}"
        if res.ok:
            alt = " (alternate branch)" if res.used_alt else ""
            print(f"Verified {pair}{alt}")
        else:
            print(f"Failed {pair}: {res.reason} {res.detail}")
            code = EXIT_FAIL
    return code


def cmd_nondegen(args) -> int:
    res = orbitrel.auto_nondegen(args.frm, args.to)
    if isinstance(res, list):
        for cert in res:
            print(cert.describe())
        return EXIT_OK
    print(f"Inconclusive: no certificate for {args.frm} -/-> {args.to}")
    return EXIT_FAIL


def _family(m: int, n: int):
    """The catalog entries of shape (m|n); NotFound when there are none."""
    entries = catalog.list_entries((m, n))
    if not entries:
        raise NotFound(f"({m}|{n})")
    return entries


def cmd_hasse(args) -> int:
    _family(args.m, args.n)
    diagram = orbitrel.build_hasse((args.m, args.n),
                                   precision=args.precision)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(orbitrel.to_dot(diagram))
        print(f"wrote {args.dot}")
    doc = {"nodes": diagram.nodes,
           "orbit_dims": diagram.orbit_dims,
           "edges": [list(e) for e in diagram.edges]}
    print(_dump(doc))
    return EXIT_FAIL if diagram.failed_witnesses else EXIT_OK


def cmd_components(args) -> int:
    _family(args.m, args.n)
    res = orbitrel.component_analysis((args.m, args.n),
                                      precision=args.precision)
    labels = res["components"]
    print(f"{len(labels)} components: " + ", ".join(labels))
    for w in res["warnings"]:
        print(f"warning: {w}")
    return EXIT_OK


def cmd_gamma23(args) -> int:
    try:
        a = gamma23.parse_sym_matrix(json.loads(args.g1))
        b = gamma23.parse_sym_matrix(json.loads(args.g2))
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    label = gamma23.classify_pair((a, b))
    if label is None:
        print("unclassified: pair matches no representative signature")
        return EXIT_FAIL
    print(label)
    return EXIT_OK


def cmd_verify_all(args) -> int:
    key = f"({args.m}|{args.n})"
    failures = []

    entries = _family(args.m, args.n)
    bad = []
    for e in entries:
        g = e.algebra
        if g.check_consistency() or g.check_jacobi() or not g.is_nilpotent():
            bad.append(e.label)
    print(f"axioms: {len(entries) - len(bad)}/{len(entries)} pass")
    if bad:
        failures.append(f"axiom failures: {bad}")

    results = orbitrel.verify_builtin_witnesses(key, precision=args.precision)
    n_ok = sum(1 for r in results if r.ok)
    print(f"witnesses: {n_ok}/{len(results)} verified")
    for r in results:
        if not r.ok:
            failures.append(f"witness {r.witness.from_name} -> "
                            f"{r.witness.to_name}: {r.reason}")

    report = orbitrel.discrepancy_report(key)
    unknown = [r for r in report if not r["known"]]
    print(f"non-degeneration rows: {len(catalog.nondegen_rows(key))} checked,"
          f" {len(report)} discrepancies ({len(unknown)} unexpected)")
    for r in report:
        row = r["row"]
        status = r.get("status", "NEW")
        print(f"  {row['from']} -/-> {row['to']} [{row['criterion']}] "
              f"{status}: alternatives {r['alternatives'] or 'none'}")
    if unknown:
        failures.append(f"unexpected discrepancy rows: "
                        f"{[(r['row']['from'], r['row']['to']) for r in unknown]}")

    h2_expected = catalog.expected()["h2_dims"]
    h2_known = catalog.expected().get("known_h2_discrepancies", {})
    checked = mismatched = 0
    for e in entries:
        if e.label in h2_expected:
            checked += 1
            got = cohomology.h2_even(e.algebra)["dim"]
            want = h2_expected[e.label]
            if got != want:
                if h2_known.get(e.label) == got:
                    print(f"  h2({e.label}) = {got}, recorded source value "
                          f"{want} is a known erratum")
                else:
                    mismatched += 1
                    failures.append(f"h2({e.label}) = {got}, expected {want}")
    print(f"h2 regression: {checked - mismatched}/{checked} match")

    want = sorted(catalog.expected()["components"][key])
    res = orbitrel.component_analysis(key, precision=args.precision)
    got = sorted(res["components"])
    print(f"{len(got)} components: " + ", ".join(got))
    if got != want:
        failures.append(f"components {got} != expected {want}")
    for w in res["warnings"]:
        print(f"warning: {w}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return EXIT_FAIL
    print("verify-all: OK")
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .field import FieldElem, parse_elem, format_elem
    from .series import PuiseuxSeries

    seed = args.seed if args.seed is not None else \
        random.SystemRandom().randrange(2 ** 32)
    print(f"selftest seed: {seed}")
    rng = random.Random(seed)

    def rand_elem():
        return FieldElem(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    cases = args.cases
    for _ in range(cases):
        x = rand_elem()
        if parse_elem(format_elem(x)) != x:
            print(f"FAIL: field round-trip {format_elem(x)}")
            return EXIT_FAIL
        y = rand_elem()
        z = rand_elem()
        if x * (y + z) != x * y + x * z:
            print("FAIL: field distributivity")
            return EXIT_FAIL
    print(f"field round-trips and identities: {cases} cases OK")

    for _ in range(cases // 4):
        terms = {Fraction(rng.randint(-4, 8), rng.randint(1, 3)): rand_elem()
                 for _ in range(rng.randint(0, 4))}
        s = PuiseuxSeries(terms)
        u = PuiseuxSeries({Fraction(rng.randint(-2, 4)): rand_elem()})
        if (s + u) - u != s:
            print("FAIL: series add/sub round-trip")
            return EXIT_FAIL
    print(f"series identities: {cases // 4} cases OK")

    labels = rng.sample(catalog.labels(), 8)
    for label in labels:
        g = catalog.get(label).algebra
        A = [[FieldElem(rng.randint(-3, 3)) for _ in range(g.m)]
             for _ in range(g.m)]
        D = [[FieldElem(rng.randint(-3, 3)) for _ in range(g.n)]
             for _ in range(g.n)]
        phi = cohomology.d1(g, A, D)
        if not cohomology.is_cocycle(g, phi):
            print(f"FAIL: d2(d1) != 0 on {label}")
            return EXIT_FAIL
    print(f"d2 . d1 = 0 on random maps: {len(labels)} algebras OK")

    reps = list(gamma23.REPRESENTATIVES.items())
    rounds = max(1, cases // 100)
    for label, pair in reps:
        for _ in range(rounds):
            T = gamma23.random_gl(2, rng)
            S = gamma23.random_gl(3, rng)
            moved = gamma23.pair_act(T, S, pair)
            got = gamma23.classify_pair(moved)
            if got != label:
                print(f"FAIL: gamma23 action classified {label} as {got}")
                return EXIT_FAIL
    print(f"gamma23 seeded actions: {len(reps) * rounds} classifications OK")
    print("selftest: OK")
    return EXIT_OK


# -- parser --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="superlie",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_precision(sp):
        # argparse converts a string default with `type`, so the variable is
        # checked exactly as the option is
        sp.add_argument("--precision", type=_precision,
                        default=os.environ.get("SUPERLIE_PRECISION"),
                        help="series precision, a positive rational "
                             "(default: $SUPERLIE_PRECISION)")

    sp = sub.add_parser("list", help="list catalog labels")
    sp.add_argument("--dim", help='graded dimension, e.g. "(2|3)"')
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_list)

    sp = sub.add_parser("show", help="print a catalog entry as JSON")
    sp.add_argument("label")
    sp.set_defaults(func=cmd_show)

    sp = sub.add_parser("check", help="axiom, consistency, nilpotency checks")
    sp.add_argument("target", help="catalog label or JSON file")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("invariants", help="invariant report")
    sp.add_argument("target")
    sp.add_argument("--no-trivial", action="store_true",
                    help="skip the trivial-subalgebra search")
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("h2", help="even second cohomology")
    sp.add_argument("target")
    sp.set_defaults(func=cmd_h2)

    sp = sub.add_parser("degenerate", help="verify a degeneration witness")
    sp.add_argument("--from", dest="frm", required=True)
    sp.add_argument("--to", required=True)
    sp.add_argument("--witness", help="JSON file with a basis mapping")
    add_precision(sp)
    sp.set_defaults(func=cmd_degenerate)

    sp = sub.add_parser("nondegen", help="search a non-degeneration certificate")
    sp.add_argument("--from", dest="frm", required=True)
    sp.add_argument("--to", required=True)
    sp.set_defaults(func=cmd_nondegen)

    sp = sub.add_parser("hasse", help="build the degeneration diagram")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--dot", help="write DOT output to this path")
    add_precision(sp)
    sp.set_defaults(func=cmd_hasse)

    sp = sub.add_parser("components", help="irreducible components")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    add_precision(sp)
    sp.set_defaults(func=cmd_components)

    sp = sub.add_parser("gamma23", help="classify a pair of symmetric forms")
    sp.add_argument("--g1", required=True,
                    help='JSON 3x3 matrix of scalars, e.g. [["1","0","0"],...]')
    sp.add_argument("--g2", required=True)
    sp.set_defaults(func=cmd_gamma23)

    sp = sub.add_parser("verify-all", help="full verification for one (m|n)")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    add_precision(sp)
    sp.set_defaults(func=cmd_verify_all)

    sp = sub.add_parser("selftest", help="seeded property tests")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--cases", type=int, default=400)
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush
        # at exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except ConsistencyViolation as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ShapeMismatch as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotFound, FileNotFoundError) as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AlgebraError as exc:
        print(f"algebra error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except InsufficientPrecision as exc:
        print(f"insufficient precision: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
