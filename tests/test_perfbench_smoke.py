"""The benchmark harness still runs against the package.

`perfbench/workloads.py` calls the package by name, so a renamed or
removed public function breaks the benchmark; this runs the harness's own
smoke test (`perfbench/smoke.py`, a few seconds) so such a break fails here.
"""

import subprocess
import sys
from pathlib import Path

SMOKE = Path(__file__).resolve().parents[1] / "perfbench" / "smoke.py"


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, str(SMOKE)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for name in ("cli", "arith", "bare checkout"):
        assert any(line.startswith(f"smoke: {name}: ok") for line in lines), proc.stdout
