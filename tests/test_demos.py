"""Smoke test of the example scripts under demos/.

Each script runs in a fresh interpreter against this checkout's package,
and its stdout must match byte for byte, so a change in any number a demo
prints moves its digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each script's stdout.
DEMO_STDOUT = {
    "local_drift.py": "79df7f250948ac89968c3b01eb6c88eafbcdf543c9b561ccf90e7d32695d550a",
    "ou_roundtrip.py": "1365da1a693a19b3254c1d0869125c2b4c38142757306a94b6aa24c163e10ed1",
    "policy_comparison.py": "841f770d72f3a323c1a3375517b28abd54cbbc3f0b39f17f1417be9359abc6f1",
    "threshold_sweep.py": "e15cf99d161ec7f301f824944ad2f23f9ea95a07171c144088a40bbce6c9b165",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT)


@pytest.mark.parametrize("script", sorted(DEMO_STDOUT))
def test_demo_stdout_is_pinned(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env, capture_output=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT[script]
