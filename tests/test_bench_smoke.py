"""The benchmark's recorded response digests hold for this checkout.

``bench/run.py --smoke`` sends one pass of every workload and checks each
response against ``bench/expected.json``, so a change to any benchmarked
output byte fails here, before a benchmark run would report it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_matches_the_recorded_digests():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(", 0 failed," in line for line in lines), proc.stdout
