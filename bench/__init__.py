"""The repo's benchmark: gesture latency end to end, attributed to layers.

Declared in ``BENCHMARK.json`` at the repository root; ``README.md`` in
this directory is the glossary of workloads and metrics.  Everything
here measures the program under ``src/`` from outside, through its
public functions — nothing in this package is imported by the program.
"""

import sys
from pathlib import Path

#: The checkout this package sits in; ``BENCHMARK.json`` and ``src/``
#: are resolved against it, never against the working directory.
ROOT = Path(__file__).resolve().parent.parent

#: The program under test, importable without ``PYTHONPATH=src``: the
#: declared command is a bare ``python3 -m bench run``.
SRC = ROOT / "src"
if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
