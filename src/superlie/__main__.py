"""``python -m superlie``: the same command line as the ``superlie`` script."""

import sys

from .cli import main

sys.exit(main())
