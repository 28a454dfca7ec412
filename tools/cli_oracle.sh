#!/bin/sh
# Dump the CLI's stdout and exit code for every label, shape, gamma23
# representative and four seeded actions on each (`gamma23_pairs` in
# tools/cli_oracle.py), builtin witness pair (at the default precision,
# then at --precision 16 and 1/2; a / is written : in a file name) and
# ordered pair of distinct labels of one shape, and for one seeded
# selftest.
#
#     tools/cli_oracle.sh OUT_DIR
#
# Run it from the root of the checkout to capture (nothing needs
# installing); each file in OUT_DIR is named "<command> <arguments>".  The
# output is byte-deterministic, so a change meant to keep behaviour is
# checked by running this at the parent commit and at the change and
# comparing the two directories with `diff -r`.  `tools/cli_oracle.py`
# writes the same files from one process, in seconds.
set -u
if [ $# -ne 1 ]; then
  echo "usage: $0 OUT_DIR" >&2
  exit 2
fi
out=$1
mkdir -p "$out"
# a checkout without src/superlie/__main__.py runs the CLI module itself
main=superlie
[ -f src/superlie/__main__.py ] || main=superlie.cli
sl() { PYTHONPATH=src python -m "$main" "$@"; }

for l in $(sl list); do
  for c in show check invariants h2; do
    sl $c "$l" > "$out/$c $l"; echo "exit $?" >> "$out/$c $l"
  done
done
for mn in $(sl list | sed 's/_.*//' | sort -u | tr -d '()' | tr '|' ,); do
  for c in hasse components verify-all; do
    sl $c ${mn%,*} ${mn#*,} > "$out/$c $mn"; echo "exit $?" >> "$out/$c $mn"
  done
done
PYTHONPATH="src:$(dirname "$0")" python -c 'import json
from cli_oracle import field, gamma23_pairs
for l, p in gamma23_pairs():
    print(*(json.dumps([[field.format_elem(x) for x in r] for r in g],
                       separators=(",", ":")) for g in p), l)' |
while read -r g1 g2 l; do
  sl gamma23 --g1 "$g1" --g2 "$g2" > "$out/gamma23 $l"
  echo "exit $?" >> "$out/gamma23 $l"
done
pairs=$(PYTHONPATH=src python -c 'from superlie import catalog
for f, t in dict.fromkeys((w["from"], w["to"]) for w in catalog.witnesses()):
    print(f, t)')
for p in "" 16 1/2; do
  printf '%s\n' "$pairs" |
  while read -r f t; do
    name="degenerate $f $t${p:+ --precision $(echo "$p" | tr / :)}"
    sl degenerate --from "$f" --to "$t" ${p:+--precision "$p"} > "$out/$name"
    echo "exit $?" >> "$out/$name"
  done
done
for u in $(sl list); do
  for v in $(sl list --dim "${u%_*}"); do
    [ "$u" = "$v" ] && continue
    sl nondegen --from "$u" --to "$v" > "$out/nondegen $u $v"
    echo "exit $?" >> "$out/nondegen $u $v"
  done
done
sl selftest --seed 7 --cases 400 > "$out/selftest 7 400"
echo "exit $?" >> "$out/selftest 7 400"
