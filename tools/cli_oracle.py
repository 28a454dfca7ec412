"""Dump the CLI's stdout and exit code for the same commands and file names
as ``tools/cli_oracle.sh``, in one process.

    python3 tools/cli_oracle.py OUT_DIR

Run it from the root of a checkout (nothing needs installing): it imports
``superlie`` from ``src/`` and calls ``superlie.cli.main(argv)`` once per
file, with stdout captured and ``exit N`` appended; stderr is not
captured, as in the shell script.  ``gamma23`` is dumped for each
representative and for four seeded rational actions on it
(``gamma23_pairs``).  Each builtin witness pair is dumped at
the default precision, then at ``--precision 16`` and ``--precision 1/2``
(a ``/`` is written ``:`` in a file name).  All commands share one
process, so they share ``orbitrel._MEMO`` and ``catalog._CACHE`` (cap 16
is served from the default's decisions); the shell script starts one
interpreter per command and shares nothing.  Equal directories from the
two modes (``diff -r``) show that no cache returns a result computed for
other inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, "src")

from superlie import catalog, cli, field, gamma23  # noqa: E402


def run(argv):
    """(stdout, exit code) of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue(), code


def gamma23_pairs():
    """(name, pair) for each gamma23 representative, then for four seeded
    rational actions on it, named "<label> act<k>"."""
    for label, pair in gamma23.REPRESENTATIVES.items():
        yield label, pair
        for k in range(4):
            rng = random.Random(f"{label}:{k}")
            T, S = gamma23.random_gl(2, rng), gamma23.random_gl(3, rng)
            yield f"{label} act{k}", gamma23.pair_act(T, S, pair)


def main() -> int:
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} OUT_DIR", file=sys.stderr)
        return 2
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)

    def dump(name, argv):
        text, code = run(argv)
        (out / name).write_text(f"{text}exit {code}\n")

    labels = run(["list"])[0].split()
    for label in labels:
        for c in ("show", "check", "invariants", "h2"):
            dump(f"{c} {label}", [c, label])
    shapes = sorted({label.split("_")[0].strip("()").replace("|", ",")
                     for label in labels})
    for mn in shapes:
        for c in ("hasse", "components", "verify-all"):
            dump(f"{c} {mn}", [c, *mn.split(",")])
    for name, pair in gamma23_pairs():
        g1, g2 = (json.dumps([[field.format_elem(x) for x in row]
                              for row in g], separators=(",", ":"))
                  for g in pair)
        dump(f"gamma23 {name}", ["gamma23", "--g1", g1, "--g2", g2])
    pairs = list(dict.fromkeys((w["from"], w["to"])
                               for w in catalog.witnesses()))
    for cap in (None, "16", "1/2"):
        flag = [] if cap is None else ["--precision", cap]
        for f, t in pairs:
            dump(" ".join(["degenerate", f, t, *flag]).replace("/", ":"),
                 ["degenerate", "--from", f, "--to", t, *flag])
    for u in labels:
        for v in run(["list", "--dim", u.split("_")[0]])[0].split():
            if u != v:
                dump(f"nondegen {u} {v}", ["nondegen", "--from", u, "--to", v])
    dump("selftest 7 400", ["selftest", "--seed", "7", "--cases", "400"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
