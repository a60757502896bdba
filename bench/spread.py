"""Run sets of end-to-end runs and report each metric's median and spread.

    python3 bench/spread.py --out bench/baseline/e2e.json
    python3 bench/spread.py --workloads queries --sets 1 --runs 5 --first-seed 11

Every run is ``python3 bench/run.py --workload W --seed S --seconds N
--trace 0`` in a fresh process, one after another.  Set k of a workload
uses seeds ``first_seed + 100 * k`` onwards.  Spread is (Q3 - Q1) / median
over the runs of a set, with quartiles from
``statistics.quantiles(values, n=4)``; drift is the median of the last set
relative to the median of the first.  Bounds, run length and the default
workloads come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def one_run(workload, seed, seconds):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=201)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="write every value as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    sets = {}
    for k in range(args.sets):
        per_workload = sets[f"set_{k + 1}"] = {}
        for workload in args.workloads:
            values, failed = {}, []
            for i in range(args.runs):
                seed = args.first_seed + 100 * k + i
                start = time.perf_counter()
                result = one_run(workload, seed, args.seconds)
                failed.append(result["failed"])
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                print(f"set {k + 1} {workload} seed {seed}: "
                      f"{time.perf_counter() - start:.1f} s, failed {result['failed']}, "
                      + ", ".join(f"{n} {v[-1]:.4g}" for n, v in values.items()),
                      file=sys.stderr, flush=True)
            metrics = {name: {"unit": units[name], **summarize(v)} for name, v in values.items()}
            per_workload[workload] = {"failed": failed, "metrics": metrics}

    print("| workload | metric | unit | " + " | ".join(
        f"set {k + 1} median | set {k + 1} spread" for k in range(args.sets))
        + " | drift | bound |")
    print("|---|---|---|" + "---|---|" * args.sets + "---|---|")
    for workload in args.workloads:
        for name in bounds:
            rows = [sets[s][workload]["metrics"][name] for s in sets]
            drift = rows[-1]["median"] / rows[0]["median"] - 1
            print(f"| {workload} | {name} | {units[name]} | "
                  + " | ".join(f"{r['median']:.4g} | {r['spread']:.3f}" for r in rows)
                  + f" | {drift:+.3f} | {bounds[name]} |")
    if args.out:
        doc = {
            "bounds": bounds,
            "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
            "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds} "
                       "--trace 0",
            "sets": sets,
        }
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
