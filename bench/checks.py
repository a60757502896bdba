"""Correctness checks for every benchmark response.

A response passes when its exit code is the expected one and its document
satisfies the request's expectation (see ``workloads``).  The checks use
only recorded data, the construction of the request, and other answers of
the program; they never call the code paths under test to make up the
expected value, except to answer the undisguised twin of a disguised
Jordan or cycle request.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter


def response_digest(argv, text, code, out) -> str:
    """Short digest binding a request to its exit code and exact output bytes."""
    h = hashlib.sha256()
    for part in (" ".join(argv), text, str(code), out):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def vertex_summary(doc) -> dict:
    """Basis-independent summary of a `vertices` response."""
    types = Counter(v["type"] for v in doc["vertices"])
    return {
        "vertices": len(doc["vertices"]),
        "edges": len(doc["poset_edges"]),
        "types": {str(t): types[t] for t in sorted(types)},
        "max_type": doc["max_type"],
        "max_count": doc["max_count"],
    }


def _legendre(n, q):
    n %= q
    if n == 0:
        return 0
    return 1 if pow(n, (q - 1) // 2, q) == 1 else -1


def _is_inert(delta, q):
    disc = delta if delta % 4 == 1 else 4 * delta
    if q == 2:
        return disc % 2 == 1 and disc % 8 == 5
    return disc % q != 0 and _legendre(disc, q) == -1


class Checker:
    """Checks responses against expectations; `vertex_table` maps a family
    label to its `vertex_summary`, `references` maps the (argv, text) of an
    undisguised request to its parsed answer."""

    def __init__(self, vertex_table: dict):
        self.vertex_table = vertex_table
        self.references: dict = {}
        self._hilbert: dict = {}

    def check(self, req, code, out) -> bool:
        exp = req.expect
        if exp["kind"] == "error":
            return code == exp["exit"] and _error_code(out) == exp["code"]
        if code != 0:
            return False
        try:
            doc = json.loads(out)
        except ValueError:
            return False
        return getattr(self, "_check_" + exp["kind"].replace("-", "_"))(exp, doc)

    def _check_verify(self, exp, doc):
        row = self.vertex_table[exp["label"]]
        return (
            doc.get("passed") is True
            and doc["max_type"] == doc["formula_t"]
            and doc["max_type"] == row["max_type"]
            and doc["max_count"] == row["max_count"]
        )

    def _check_vertices(self, exp, doc):
        return vertex_summary(doc) == self.vertex_table[exp["label"]]

    def _check_jordan(self, exp, doc):
        built = [[b["scale"], b["rank"]] for b in doc["blocks"]]
        return built == [list(x) for x in exp["scale_ranks"]] and doc == self.references[
            exp["reference"]
        ]

    def _check_cycle(self, exp, doc):
        m = sum(k for s, k in exp["scale_ranks"] if s >= 1)
        return doc.get("m") == m and doc == self.references[exp["reference"]]

    def _check_global_golden(self, exp, doc):
        return doc == exp["output"]

    def _check_global(self, exp, doc):
        det = 1
        for q, k in exp["factors"]:
            det *= q**k
        diff0 = sorted(q for q, k in exp["factors"] if k % 2 and _is_inert(exp["delta"], q))
        status = "ramified-supported" if not diff0 else (
            "inert-case" if len(diff0) == 1 else "empty")
        return (
            doc["det"] == str(det)
            and doc["positive_definite"] is True
            and doc["diff0"] == diff0
            and doc["status"] == status
        )

    def _check_hilbert(self, exp, doc):
        symbol = doc.get("symbol")
        if symbol not in (1, -1):
            return False
        self._hilbert.setdefault(exp["group"], []).append(symbol)
        return True

    def end_round(self, requests) -> int:
        """Requests failed by the product formula: the Hilbert symbols of a
        pair over all its places multiply to 1.  A group with a member that
        already failed is not counted again."""
        sizes = {}
        for req in requests:
            if req.expect["kind"] == "hilbert":
                sizes[req.expect["group"]] = req.expect["size"]
        failed = 0
        for gid, size in sizes.items():
            symbols = self._hilbert.get(gid, [])
            if len(symbols) == size:
                product = 1
                for s in symbols:
                    product *= s
                if product != 1:
                    failed += size
        self._hilbert.clear()
        return failed


def _error_code(out):
    try:
        return json.loads(out)["error"]["code"]
    except (ValueError, KeyError, TypeError):
        return None
