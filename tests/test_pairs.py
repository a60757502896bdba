"""The summary of tools/pairs.py on canned run lines: no benchmark runs."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [("throughput_rps", "higher", 0.25), ("latency_p50_ms", "lower", 0.25)]


def _line(rps, p50, attempted=100, failed=0):
    metrics = {"throughput_rps": {"value": rps, "unit": "1/s"}, "latency_p50_ms": {"value": p50, "unit": "ms"}}
    doc = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return (0, "smoke line first\n" + json.dumps(doc) + "\n")


def test_the_summary_of_complete_pairs():
    parent = [(100.0, 2.0), (110.0, 2.2), (90.0, 1.8), (105.0, 2.1)]
    change = [(120.0, 1.9), (100.0, 2.3), (95.0, 1.7), (104.0, 2.1)]
    runs = [
        {"pair": i + 1, "parent": _line(*a), "change": _line(*b, failed=i)}
        for i, (a, b) in enumerate(zip(parent, change))
    ]
    summary = pairs.summarize(runs, METRICS)
    assert summary["pairs"] == 4 and summary["errors"] == []
    assert summary["failed"] == {"parent": 0, "change": 6}
    assert summary["attempted"] == {"parent": 400, "change": 400}
    rps = summary["metrics"]["throughput_rps"]
    q1, _, q3 = statistics.quantiles([100.0, 110.0, 90.0, 105.0], n=4)
    assert rps["parent"] == {"median": 102.5, "q1": round(q1, 4), "q3": round(q3, 4)}
    assert rps["change"]["median"] == 102.0
    assert rps["better"] == "higher" and rps["change_wins"] == 2  # pairs 1 and 3
    assert rps["median_change"] == round(102.0 / 102.5 - 1, 4)
    p50 = summary["metrics"]["latency_p50_ms"]
    assert p50["change_wins"] == 2  # lower is better: pairs 1 and 3; pair 4 ties
    assert p50["parent"]["median"] == 2.05 and p50["change"]["median"] == 2.0


def test_broken_runs_are_reported_not_dropped():
    runs = [
        {"pair": 1, "parent": _line(100.0, 2.0), "change": (1, "error: no src\n")},
        {"pair": 2, "parent": (0, "Traceback ...\n"), "change": _line(90.0, 1.0)},
        {"pair": 3, "parent": _line(80.0, 2.0), "change": _line(70.0, 3.0)},
        {"pair": 4, "parent": _line(80.0, 2.0), "change": (0, "")},
    ]
    missing = json.dumps({"attempted": 5, "failed": 0, "metrics": {"throughput_rps": {"value": 1.0}}})
    runs.append({"pair": 5, "parent": _line(60.0, 2.0), "change": (0, missing)})
    summary = pairs.summarize(runs, METRICS)
    assert [(e["pair"], e["side"]) for e in summary["errors"]] == [
        (1, "change"), (2, "parent"), (4, "change"), (5, "change")
    ]
    assert summary["errors"][0]["error"].startswith("exit status 1")
    assert all(e["error"].startswith("malformed last line") for e in summary["errors"][1:])
    assert summary["pairs"] == 1
    assert summary["attempted"] == {"parent": 400, "change": 200}
    rps = summary["metrics"]["throughput_rps"]
    assert rps["parent"]["median"] == 80.0 and rps["change"]["median"] == 80.0
    assert rps["change_wins"] == 0  # pair 3, the one complete pair, is a loss


def test_a_side_without_results_has_no_median():
    runs = [{"pair": 1, "parent": _line(100.0, 2.0), "change": (2, "")}]
    summary = pairs.summarize(runs, METRICS)
    rps = summary["metrics"]["throughput_rps"]
    assert rps["change"] == {"median": None, "q1": None, "q3": None}
    assert rps["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    assert rps["median_change"] is None and rps["change_wins"] == 0


def _runs(parent, change):
    return [
        {"pair": i + 1, "parent": _line(*a), "change": _line(*b)}
        for i, (a, b) in enumerate(zip(parent, change))
    ]


def test_within_bound_reads_the_relative_bound_of_each_metric():
    # throughput -20% is within a 0.25 bound; p50 +30% is not
    runs = _runs([(100.0, 2.0)] * 3, [(80.0, 2.6)] * 3)
    summary = pairs.summarize(runs, METRICS)
    assert summary["metrics"]["throughput_rps"]["within_bound"] is True
    assert summary["metrics"]["latency_p50_ms"]["within_bound"] is False
    tight = pairs.summarize(runs, [("throughput_rps", "higher", 0.1), ("latency_p50_ms", "lower", 0.5)])
    assert tight["metrics"]["throughput_rps"]["within_bound"] is False
    assert tight["metrics"]["latency_p50_ms"]["within_bound"] is True
    missing = pairs.summarize([{"pair": 1, "parent": _line(1.0, 1.0), "change": (1, "")}], METRICS)
    assert missing["metrics"]["throughput_rps"]["within_bound"] is None


def test_the_claim_needs_nine_wins_and_a_median_gain_past_the_parent_iqr():
    parent = [(100.0 + i, 2.0) for i in range(10)]  # median 104.5, IQR 5.5
    clear = [(115.0 + i, 2.0) for i in range(10)]
    summary = pairs.summarize(_runs(parent, clear), METRICS)
    assert pairs.claim(summary, "queries", "throughput_rps") == {
        "workload": "queries", "metric": "throughput_rps", "met": True
    }
    assert pairs.claim(summary, "queries", "latency_p50_ms")["met"] is False  # ties win nothing
    # ten wins, but a median gain of 3 inside the parent's IQR of 5.5
    small = pairs.summarize(_runs(parent, [(103.0 + i, 2.0) for i in range(10)]), METRICS)
    assert small["metrics"]["throughput_rps"]["change_wins"] == 10
    assert pairs.claim(small, "queries", "throughput_rps")["met"] is False
    # a large median gain, but two lost pairs
    lost = pairs.summarize(_runs(parent, clear[:8] + [(50.0, 2.0)] * 2), METRICS)
    assert lost["metrics"]["throughput_rps"]["change_wins"] == 8
    assert pairs.claim(lost, "queries", "throughput_rps")["met"] is False
    # lower is better: p50 down by more than the parent's IQR in nine pairs
    p50 = [(100.0, 2.0 + i / 100) for i in range(10)]
    faster = [(100.0, 1.5)] * 9 + [(100.0, 3.0)]
    fast = pairs.summarize(_runs(p50, faster), METRICS)
    assert fast["metrics"]["latency_p50_ms"]["change_wins"] == 9
    assert pairs.claim(fast, "queries", "latency_p50_ms")["met"] is True
    broken = pairs.summarize([{"pair": 1, "parent": _line(1.0, 1.0), "change": (1, "")}], METRICS)
    assert pairs.claim(broken, "queries", "throughput_rps")["met"] is False


def test_a_claim_outside_the_benchmark_is_refused_before_any_run(tmp_path, capsys):
    argv = ["--parent", str(tmp_path), "--change", str(_PATH.parent.parent), "--out", str(tmp_path / "out.json")]
    for bad in ("queries/nope", "nope/throughput_rps", "queries", "queries/throughput_rps/x"):
        with pytest.raises(SystemExit) as exc:
            pairs.main([*argv, "--claim", bad])
        assert exc.value.code == 2 and "--claim" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
