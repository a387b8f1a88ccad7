"""Puts the benchmark's modules and ``src`` on the import path."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
for path in (E2E, E2E.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
