"""The benchmark's own test: smoke mode at tiny sizes.

Run with ``python3 -m pytest -q bench/test_bench.py`` from the
repository root.
"""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def test_smoke():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: OK" in proc.stdout
