"""The CLI oracle's output against a checked-in manifest.

`tools/cli_oracle.py` dumps the stdout and exit code of every command the
README's oracle section lists, one file per command.  The manifest holds,
per command family (the first word of a file name), the number of files
and one SHA-256 over the family's (name, content) pairs in name order, so
any change of behaviour on the catalog shows up here.  The tool runs in a
subprocess, so nothing this test process has cached can reach it.

After a deliberate change of behaviour, rewrite the manifest with

    python3 tests/test_oracle_manifest.py

from the root of the checkout, and name the changed families in
CHANGES.md.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "cli_oracle_manifest.json"


def dump(out_dir: Path) -> None:
    """Run the tool; if it fails, raise with the last lines of its stderr."""
    proc = subprocess.run([sys.executable, "tools/cli_oracle.py",
                           str(out_dir)], cwd=ROOT, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise AssertionError(f"tools/cli_oracle.py exited "
                             f"{proc.returncode}:\n{tail}")


def manifest(out_dir: Path) -> dict:
    """{family: {"files": count, "sha256": digest}} of an oracle dump."""
    families = {}
    for path in sorted(out_dir.iterdir(), key=lambda p: p.name):
        family = path.name.split(" ")[0]
        entry = families.setdefault(family, [0, hashlib.sha256()])
        entry[0] += 1
        for part in (path.name.encode(), path.read_bytes()):
            # length-prefixed, so no two different dumps feed the same bytes
            entry[1].update(b"%d:" % len(part) + part)
    return {f: {"files": k, "sha256": h.hexdigest()}
            for f, (k, h) in sorted(families.items())}


def test_cli_oracle_matches_manifest(tmp_path):
    dump(tmp_path)
    assert manifest(tmp_path) == json.loads(MANIFEST.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        dump(Path(tmp))
        MANIFEST.write_text(json.dumps(manifest(Path(tmp)), indent=1) + "\n")
    print(f"wrote {MANIFEST}")
