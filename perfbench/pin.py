"""Regenerate ``reference.json`` and ``fingerprints.json``.

    python3 perfbench/pin.py            # from the root of a source checkout

Run this only in a change that redefines the benchmark's inputs; a change
that claims a speed-up must leave both files alone.  The H^2 dimensions are
computed exactly (several minutes) and must agree with ``expected.json``
``h2_dims`` once the ``known_h2_discrepancies`` take their computed values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from superlie import catalog, cohomology, gamma23, invariants  # noqa: E402

# One label of each dimension-5 family with both parities, plus (0|5), all
# with H^2 dimensions listed in expected.json.  (5|0) is left out: its labels
# are the slowest (2.9 to 5.6 s each) and purely even.
DIM5_SAMPLE = ["(0|5)_0", "(1|4)_4", "(2|3)_6", "(3|2)_5", "(4|1)_6"]
COMPONENT_FAMILIES = ["(4|1)", "(2|2)"]
WITNESS_PRECISIONS = [None, "16"]
PINNED_SEEDS = [1, 2]


def h2_reference():
    labels = [e.label for e in catalog.list_entries() if e.m + e.n <= 4]
    labels += DIM5_SAMPLE
    exp = catalog.expected()
    table = dict(exp["h2_dims"], **exp["known_h2_discrepancies"])
    dims = {}
    for lab in labels:
        dims[lab] = cohomology.h2_even(catalog.get(lab).algebra)["dim"]
        if lab in table and table[lab] != dims[lab]:
            raise SystemExit(f"{lab}: computed H^2 {dims[lab]}, "
                             f"expected {table[lab]}")
        print(lab, dims[lab], flush=True)
    return dims


def main():
    import workloads
    h2 = h2_reference()
    dense = {}
    for e in catalog.list_entries():
        # Only dimension 4: the eight smaller labels take under 0.1 s each,
        # and with them the median case fell between two clusters of case
        # costs, so item_p50 moved by 12-20 % from seed to seed.
        if e.m >= 1 and e.n >= 1 and e.m + e.n == 4:
            dense[e.label] = {"center": list(invariants.center(e.algebra)[0]),
                              "derived": list(invariants.derived(e.algebra)),
                              "h2": h2[e.label]}
    fams = COMPONENT_FAMILIES + list(workloads.TINY["components"])
    ref = {
        "h2-catalog": h2,
        "h2-dense": dense,
        "components": {"families": COMPONENT_FAMILIES,
                       "expected": {f: catalog.expected()["components"][f]
                                    for f in fams}},
        "gamma23": {"labels": list(gamma23.REPRESENTATIVES)},
        "witnesses": {"rows": [[d["from"], d["to"], d.get("source", "")]
                               for d in catalog.witnesses()],
                      "precisions": WITNESS_PRECISIONS},
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")

    from run import digest
    prints = {name: {str(s): digest(wl.build(s, 0, False))
                     for s in PINNED_SEEDS}
              for name, wl in workloads.WORKLOADS.items()}
    (HERE / "fingerprints.json").write_text(json.dumps(prints, indent=1)
                                            + "\n")


if __name__ == "__main__":
    main()
