"""Every script under ``examples/`` runs to completion at toy sizes.

The examples are the top-level :mod:`repro` package's only callers outside
the tests, so a name they import must not disappear unnoticed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"

# Small arguments per script; scripts that take none run at their defaults.
ARGS = {
    "dv_vs_pathvector.py": [],
    "enhancement_comparison.py": ["4", "12"],
    "flap_damping_demo.py": ["4", "2"],
    "internet_study.py": ["12", "0"],
    "mrai_sweep.py": ["4"],
    "policy_study.py": ["12", "1"],
    "protocol_triangle.py": ["4"],
    "quickstart.py": ["4", "2"],
    "transient_loop_demo.py": [],
}


def test_every_example_is_listed():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == sorted(ARGS)


@pytest.mark.parametrize("script", sorted(ARGS))
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *ARGS[script]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
