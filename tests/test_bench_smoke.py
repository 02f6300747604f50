"""The benchmark script at its smallest size, as a correctness gate on the
public API it calls.  No timing is asserted."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("utc-sweep", "roundtrip-wide", "spectral-checks", "cli-jobs")


def test_bench_smoke_run_has_no_failures():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in WORKLOADS:
        line = re.search(rf"^{name}\s+attempted\s+(\d+) failed (\d+)$",
                         proc.stdout, re.M)
        assert line, f"no result line for {name}:\n{proc.stdout}"
        assert int(line.group(1)) > 0 and int(line.group(2)) == 0, line.group(0)
