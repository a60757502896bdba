"""Run the end-to-end benchmark in alternating pairs on two checkouts, and
write the paired summary as a BENCH_<n>.json.

    python3 tools/pairs.py --parent DIR --change DIR --out BENCH_<n>.json \\
        [--note TEXT] [--claim WORKLOAD/METRIC]

DIR is a git checkout of the parent commit (its revision is recorded) and
of the change.  For each workload W of the change's BENCHMARK.json, pair i
(1..10) runs

    python3 bench/run.py --workload W --seed i --seconds 20 --trace 0

once in each checkout, one process at a time: the parent first in odd
pairs, the change first in even ones.  The last line of a run's standard
output is its result (bench/run.py).  A run that exits nonzero, or whose
last line is not a result with every metric, is reported on standard error
and under the workload's "errors"; it counts in no quartile and no win, and
the tool exits 1.

Per workload the summary holds "pairs" (those with a result on both sides),
"failed" and "attempted" per side (summed over its runs), "errors", and,
per end-to-end metric of the change's BENCHMARK.json, each side's median,
q1 and q3 (statistics.quantiles(n=4)), "change_wins" (complete pairs in
which the change is better), "median_change" (change median / parent
median - 1) and "within_bound": whether the change's median is worse than
the parent's by at most the metric's relative bound in BENCHMARK.json (None
when a side has no median).

With --claim, the summary's "claim" is {"workload", "metric", "met"} for
that one metric, under the gain rule: the change wins at least CLAIM_WINS
of the PAIRS pairs, and its median is better than the parent's by more than
the parent's interquartile range.  Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
SECONDS = 20
CLAIM_WINS = 9  # of PAIRS


def parse_run(returncode: int, stdout: str, names):
    """(result, None) for a run that exited 0 with a result on its last line,
    holding a number for every metric in ``names``; (None, why) otherwise."""
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if returncode:
        return None, f"exit status {returncode}; last line {last[:200]!r}"
    try:
        doc = json.loads(last)
        values = {name: doc["metrics"][name]["value"] for name in names}
        result = {"attempted": doc["attempted"], "failed": doc["failed"], "values": values}
        numbers = [result["attempted"], result["failed"], *values.values()]
    except (ValueError, KeyError, TypeError):
        numbers = None
    if numbers is None or not all(isinstance(x, (int, float)) for x in numbers):
        return None, f"malformed last line {last[:200]!r}"
    return result, None


def _spread(values):
    """The median, q1 and q3 of one side's values, rounded as BENCH files
    print them; None for a side without a result."""
    if not values:
        return {"median": None, "q1": None, "q3": None}
    q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(pairs, metrics):
    """The summary of one workload.  ``pairs`` lists {"pair": i, "parent":
    (returncode, stdout), "change": (returncode, stdout)}; ``metrics`` lists
    (name, better, bound) with better "higher" or "lower" and bound the
    largest relative worsening of the median that is within bound."""
    names = [name for name, _, _ in metrics]
    results = {side: [] for side in SIDES}
    errors = []
    for pair in pairs:
        for side in SIDES:
            result, why = parse_run(*pair[side], names)
            results[side].append(result)
            if why:
                errors.append({"pair": pair["pair"], "side": side, "error": why})
    complete = [(p, c) for p, c in zip(results["parent"], results["change"]) if p and c]
    summary = {
        "pairs": len(complete),
        "failed": {side: sum(r["failed"] for r in results[side] if r) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in results[side] if r) for side in SIDES},
        "errors": errors,
        "metrics": {},
    }
    for name, better, bound in metrics:
        sign = 1 if better == "higher" else -1
        entry = {"better": better}
        for side in SIDES:
            entry[side] = _spread([r["values"][name] for r in results[side] if r])
        entry["change_wins"] = sum(
            sign * (c["values"][name] - p["values"][name]) > 0 for p, c in complete
        )
        before, after = entry["parent"]["median"], entry["change"]["median"]
        change = after / before - 1 if before and after is not None else None
        entry["median_change"] = None if change is None else round(change, 4)
        entry["within_bound"] = None if change is None else -sign * change <= bound
        summary["metrics"][name] = entry
    return summary


def claim(summary, workload: str, metric: str) -> dict:
    """The gain rule on one metric of a workload's summary: at least
    CLAIM_WINS pair wins, and a median better than the parent's by more than
    the parent's interquartile range."""
    entry = summary["metrics"][metric]
    parent, after = entry["parent"], entry["change"]["median"]
    met = entry["change_wins"] >= CLAIM_WINS and after is not None and parent["median"] is not None
    if met:
        sign = 1 if entry["better"] == "higher" else -1
        met = sign * (after - parent["median"]) > parent["q3"] - parent["q1"]
    return {"workload": workload, "metric": metric, "met": met}


def run_pairs(dirs, workload: str):
    """The PAIRS alternating pairs of runs of one workload, as summarize reads them."""
    pairs = []
    for i in range(1, PAIRS + 1):
        pair = {"pair": i}
        for side in SIDES if i % 2 else SIDES[::-1]:
            argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(i),
                    "--seconds", str(SECONDS), "--trace", "0"]
            proc = subprocess.run(argv, cwd=dirs[side], capture_output=True, text=True)
            pair[side] = (proc.returncode, proc.stdout)
            print(f"{workload} pair {i} {side}: exit {proc.returncode}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--note", default="", help="what the change does, as recorded")
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC", help="the one gain claimed")
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent, "change": args.change}
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    names = [w["name"] for w in spec["workloads"]]
    claimed = args.claim.split("/") if args.claim else None
    if claimed and (len(claimed) != 2 or claimed[0] not in names
                    or claimed[1] not in [name for name, _, _ in metrics]):
        parser.error(f"--claim {args.claim}: not a WORKLOAD/METRIC of BENCHMARK.json's end_to_end")
    rev = ["git", "-C", str(args.parent), "rev-parse", "--short", "HEAD"]
    parent_rev = subprocess.run(rev, capture_output=True, text=True, check=True).stdout.strip()
    workloads = {}
    for workload in names:
        workloads[workload] = summarize(run_pairs(dirs, workload), metrics)
        for error in workloads[workload]["errors"]:
            print(f"{workload}: {error}", file=sys.stderr)
    doc = {
        "change": args.note,
        "parent": parent_rev,
        "command": f"python3 bench/run.py --workload W --seed PAIR --seconds {SECONDS} --trace 0",
        "seed": f"the pair number, 1-{PAIRS}; both sides of a pair run the same seed",
        "pairs": PAIRS,
        "run_seconds": SECONDS,
        "order": "alternating: parent first in odd pairs (1, 3, ...), change first in even pairs",
        "host": f"{os.cpu_count()}-CPU {platform.machine()}, Python {platform.python_version()}",
        "quartiles": "statistics.quantiles(values, n=4) over the runs of one side",
        "claim": claim(workloads[claimed[0]], *claimed) if claimed else None,
        "workloads": workloads,
    }
    if claimed:
        print(f"claim {args.claim}: met {doc['claim']['met']}", file=sys.stderr)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 1 if any(w["errors"] for w in workloads.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
