"""The benchmark's tracer still finds every name it wraps.

`perfbench/tracer.py` replaces the functions it lists (and a few methods)
by wrappers, wherever in `superlie` they are bound; a name that is gone
makes `install` raise, and every traced benchmark run with it.  The tracer
runs in a subprocess, so its wrappers never reach this test process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = ["src", "perfbench"]
from superlie import gamma23
from tracer import Tracer
tracer = Tracer()
tracer.install()
gamma23.classify_pair(gamma23.REPRESENTATIVES["(2|3)_5"])
assert tracer.spans, "no span recorded"
"""


def test_tracer_installs_on_src():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
