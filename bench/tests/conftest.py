"""Run with ``python -m pytest bench/tests -q`` from the repository root.

These tests are the benchmark's own (not part of the tier-1 suite): the
modules under ``bench/`` import each other by bare name, as they do when
``bench/run.py`` is the script, so the directory goes on ``sys.path``.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent

for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)
