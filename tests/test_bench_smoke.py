"""The benchmark's recorded response digests hold for this checkout, and its
tracer finds every name it patches.

``bench/run.py --smoke`` sends one pass of every workload and checks each
response against ``bench/expected.json``, so a change to any benchmarked
output byte fails here, before a benchmark run would report it.  The tracer
(``bench/tracing.py``) wraps package functions and ``HermLattice.dual`` by
name, so a name it needs that the package no longer has fails here too.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

from support import invoke

from hermcycles import lattice

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


def test_the_benchmark_tracer_patches_the_package_in_process():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    requests = (
        (["verify", "--p", "3"], '{"gram": [[0, {"a": "0", "b": "1"}], [{"a": "0", "b": "-1"}, 0]]}'),
        (["global"], '{"delta": -3, "matrix": [[1, 0], [0, 1]]}'),
    )
    original = lattice.mat_inverse
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for request, (argv, text) in enumerate(requests):
            tracer.begin(request)
            code, _ = invoke(argv, text)
            tracer.end()
            assert code == 0, argv
    finally:
        tracer.uninstall()
    assert lattice.mat_inverse is original
    summary = tracer.summary()
    assert summary["lattice.mat_inverse"][0] >= 1
    assert tracer.counts["vertices.vertex_count"] > 0
    assert summary["global_cycles.global_report"][0] == 1
