"""Record bench/expected.json from the program as it stands.

    python3 bench/record.py

The vertex table (vertex count, edge count, type histogram, maximal type and
its multiplicity for every lattice of the family) comes from `vertices` on
the block-diagonal Grams; it does not depend on the basis, so it checks the
disguised requests of every seed.  The digests are those of round 0 of every
workload at the digest seed.  Nothing is written unless every response of
those rounds passes its check.  Outputs are meant to stay byte-identical, so
this is rerun only when a change is meant to alter them.
"""

from __future__ import annotations

import json
import sys

import run
from checks import Checker, response_digest, vertex_summary
from workloads import ENUM_FLAGS, WORKLOADS, block_sum, acceptance_family, gram_json, make_round


def vertex_table(cli):
    table = {}
    for label, p, eps, blocks in acceptance_family():
        argv = ("vertices", "--p", str(p), "--epsilon", str(eps)) + ENUM_FLAGS
        text = json.dumps({"gram": gram_json(block_sum(blocks))})
        code, out, _ = run.call(cli, argv, text)
        if code != 0:
            raise SystemExit(f"vertices failed on {label}: {out}")
        table[label] = vertex_summary(json.loads(out))
    return table


def main() -> int:
    cli = run.import_cli()
    table = vertex_table(cli)
    digests = {}
    for workload in WORKLOADS:
        checker = Checker(table)
        requests = make_round(workload, run.DIGEST_SEED, 0)
        run.prepare(cli, checker, requests)
        digests[workload] = []
        failed = 0
        for req in requests:
            code, out, _ = run.call(cli, req.argv, req.text)
            failed += not checker.check(req, code, out)
            digests[workload].append(response_digest(req.argv, req.text, code, out))
        failed += checker.end_round(requests)
        print(f"{workload}: {len(requests)} responses, {failed} failed")
        if failed:
            return 1
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"vertex_table": table, "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
