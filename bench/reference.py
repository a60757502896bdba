"""Measurements to set beside the baseline figures quoted in ROADMAP.md.

    python3 bench/reference.py

Prints one JSON object:

- `h13_canonical_verify_s`: median of 3 `verify` requests on H(1)+H(3) at
  p=3, eps=1, in its block-diagonal basis (the workloads use random bases);
- `h13_phases_s`: one more such request, traced, split into the phases of
  `enumerate_vertices` (see `enumeration_phases`);
- `jordan_rank24_ms`: median of 5 `jordan` requests on one seeded rank-24
  Gram at p=3, built from blocks and disguised as in the `queries` workload;
- `cold_start_s`: median of 15 cold starts in a row, the start that
  `setup_s` times, through the running interpreter.  A launcher in front of
  the interpreter, such as a pyenv shim, adds its own start-up time on top.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from fractions import Fraction

import run
from tracing import Tracer
from workloads import (
    ENUM_FLAGS, block_sum, random_blocks, acceptance_family, disguise, gram_json, random_gl,
)


def median_request(cli, argv, text, repeat):
    times = []
    for _ in range(repeat):
        code, out, elapsed = run.call(cli, argv, text)
        if code != 0:
            raise SystemExit(f"{argv[0]} failed: {out}")
        times.append(elapsed)
    return statistics.median(times)


def enumeration_phases(tracer):
    """Phases of the traced `enumerate_vertices` call, read off its children.

    The enumerator runs them in turn: candidates with the vertex test (up to
    the first `lattice.hnf_canonicalize` child), canonical bases (up to the
    end of the last one), then the poset (up to the end of the call).  For
    the first phase, `of_which_matrix_kernels` is the time inside the
    `lattice` functions it called; the rest of it is candidate generation and
    the inline Gram products of the vertex test.
    """
    spans = [(tracer.names[idx], parent, start, end)
             for _, parent, idx, start, end in tracer.spans]
    sid = next(i for i, s in enumerate(spans) if s[0] == "vertices.enumerate_vertices")
    _, _, start, end = spans[sid]
    kids = [s for s in spans if s[1] == sid]
    hnf = [s for s in kids if s[0] == "lattice.hnf_canonicalize"]
    first, last = hnf[0][2], hnf[-1][3]
    kernels = sum(e - s for n, _, s, e in kids if n.startswith("lattice.") and e <= first)
    return {
        "total": (end - start) / 1e9,
        "candidates_and_vertex_test": (first - start) / 1e9,
        "of_which_matrix_kernels": kernels / 1e9,
        "canonical_bases": (last - first) / 1e9,
        "poset": (end - last) / 1e9,
    }


def main() -> int:
    cli = run.import_cli()
    family = {label: blocks for label, _, _, blocks in acceptance_family()}
    h13 = json.dumps({"gram": gram_json(block_sum(family["p3,eps1:H(1)+H(3)"]))})
    verify = ("verify", "--p", "3", "--epsilon", "1") + ENUM_FLAGS

    rng = random.Random("reference/jordan24")
    pi0 = Fraction(3)
    G = block_sum(random_blocks(rng, 3, pi0, 24)[0])
    jordan24 = json.dumps({"gram": gram_json(disguise(G, random_gl(rng, 3, pi0, 24), pi0))})

    tracer = Tracer()
    tracer.install()
    try:
        run.call(cli, verify, h13, tracer)
    finally:
        tracer.uninstall()
    result = {
        "h13_canonical_verify_s": median_request(cli, verify, h13, 3),
        "h13_phases_s": enumeration_phases(tracer),
        "jordan_rank24_ms": median_request(cli, ("jordan", "--p", "3"), jordan24, 5) * 1e3,
        "cold_start_s": run.cold_start_seconds()[0],
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
