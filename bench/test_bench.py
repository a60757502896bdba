"""Self-test of the benchmark (not part of the Tier-1 suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from checks import Checker
from tracing import Tracer
from workloads import WORKLOADS, make_round

CLI = run.import_cli()
EXPECTED = run.load_expected()


def _key(requests):
    return [(r.argv, r.text, json.dumps(r.expect, sort_keys=True, default=str)) for r in requests]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert _key(make_round(workload, 7, 1)) == _key(make_round(workload, 7, 1))
    assert _key(make_round(workload, 7, 1)) != _key(make_round(workload, 8, 1))
    # the composition of a round does not depend on the seed
    kinds = lambda rs: sorted(r.expect["kind"] for r in rs)  # noqa: E731
    assert kinds(make_round(workload, 7, 1)) == kinds(make_round(workload, 8, 1))


def _cheap_queries():
    """One request of every kind from a queries round, small ranks only."""
    picked = {}
    for req in make_round("queries", 3, 0):
        kind = req.expect["kind"]
        if kind in ("jordan", "cycle") and len(json.loads(req.text).popitem()[1]) > 3:
            continue
        picked.setdefault(kind, req)
    return list(picked.values())


# One wrong field per kind, on top of a wrong exit code and a truncated document.
MUTATIONS = {
    "jordan": lambda d: d["blocks"][0].update(rank=d["blocks"][0]["rank"] + 1),
    "cycle": lambda d: d.update(t=d["t"] + 2),
    "global-golden": lambda d: d.update(det="7"),
    "global": lambda d: d.update(diff0=d["diff0"] + [3]),
    "error": lambda d: d["error"].update(code="domain-error"),
    "hilbert": lambda d: d.update(symbol=0),
}


def _corruptions(kind, code, out):
    yield (0 if code else 2), out
    yield code, out[: len(out) // 2]
    doc = json.loads(out)
    MUTATIONS[kind](doc)
    yield code, json.dumps(doc)


def test_checker_flags_corrupted_responses():
    requests = _cheap_queries()
    assert {r.expect["kind"] for r in requests} == set(MUTATIONS)
    checker = Checker(EXPECTED["vertex_table"])
    run.prepare(CLI, checker, requests)
    for req in requests:
        code, out, _ = run.call(CLI, req.argv, req.text)
        assert checker.check(req, code, out), (req.argv, out)
        for bad_code, bad_out in _corruptions(req.expect["kind"], code, out):
            assert not checker.check(req, bad_code, bad_out), (req.argv, bad_code, bad_out)


def test_hilbert_product_formula_catches_a_flipped_symbol():
    group = [r for r in make_round("queries", 3, 0) if r.expect.get("group") == 0]
    checker = Checker(EXPECTED["vertex_table"])
    answers = [run.call(CLI, r.argv, r.text)[:2] for r in group]
    assert all(checker.check(r, c, o) for r, (c, o) in zip(group, answers))
    assert checker.end_round(group) == 0
    flipped = json.dumps({"symbol": -json.loads(answers[0][1])["symbol"]})
    checker.check(group[0], 0, flipped)
    for r, (c, o) in zip(group[1:], answers[1:]):
        checker.check(r, c, o)
    assert checker.end_round(group) == len(group)


def test_vertex_table_mismatch_fails():
    req = next(r for r in make_round("enum-small", 3, 0)
               if r.expect == {"kind": "vertices", "label": "p3,eps1:H(1)"})
    checker = Checker(EXPECTED["vertex_table"])
    code, out, _ = run.call(CLI, req.argv, req.text)
    assert checker.check(req, code, out)
    doc = json.loads(out)
    doc["poset_edges"] = doc["poset_edges"][1:]
    assert not checker.check(req, code, json.dumps(doc))


def test_tracer_self_times_add_up_and_patches_every_import():
    import hermcycles.lattice as lattice
    import hermcycles.vertices as vertices

    original = lattice.mat_inverse
    req = next(r for r in make_round("enum-small", 3, 0) if r.expect["kind"] == "verify")
    tracer = Tracer()
    tracer.install()
    try:
        assert vertices.mat_inverse is lattice.mat_inverse is not original
        code, out, elapsed = run.call(CLI, req.argv, req.text, tracer, 0)
    finally:
        tracer.uninstall()
    assert lattice.mat_inverse is vertices.mat_inverse is original
    assert code == 0
    summary = tracer.summary()
    total_self = sum(row[2] for row in summary.values())
    assert total_self == summary["request"][1] == round(elapsed * 1e9)
    assert summary["lattice.mat_inverse"][0] > 0
    assert tracer.counts["ramified.mul"] > 0
    assert tracer.counts["vertices.vertex_count"] > 0


def test_benchmark_json_matches_the_metrics_reported():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(row) for row in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        row[:3] for row in run.PER_LAYER]
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)


def test_latency_is_the_best_of_passes():
    checker = Checker(EXPECTED["vertex_table"])
    m = run.measure(CLI, checker, "queries", 3, 0)
    assert m.passes == run.MIN_PASSES
    assert m.calls == m.passes * m.requests == m.passes * len(m.first)
    assert all(best <= first for best, first in zip(m.best, m.first))
    assert m.failed == 0


def test_smoke_runs_every_workload_once():
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("smoke ")]
    assert [line.split(":")[0] for line in lines] == [f"smoke {w}" for w in WORKLOADS]
    assert all(", 0 failed," in line for line in lines), lines


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
