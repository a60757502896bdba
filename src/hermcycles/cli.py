"""JSON-in, JSON-out command line frontend.

Commands: jordan, cycle, vertices, verify, global, hilbert.  The request
document is read from a file argument or standard input; output is a single
deterministic JSON document on standard output.  Exit codes: 0 success,
1 schema violation, 2 domain error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cycles import cycle_invariants, cycle_report
from .errors import DomainError, ResourceError, SchemaError
from .global_cycles import global_report
from .lattice import HermGram, HermLattice, jordan_split
from .padic import REAL_PLACE, hilbert_symbol, parse_rational
from .ramified import OHElement, QuadContext, RamifiedContext
from .vertices import (
    EnumerationBounds,
    enumerate_vertices,
    poset_dot,
    verify_structure_theorems,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


def _load_document(args) -> dict:
    if args.input and args.input != "-":
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read input: {exc}") from exc
    else:
        text = sys.stdin.read()
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("request document must be a JSON object")
    return doc


def _require_keys(doc: dict, required: set[str], optional: set[str] = frozenset()):
    missing = required - doc.keys()
    if missing:
        raise SchemaError(f"missing fields: {sorted(missing)}")
    unknown = doc.keys() - required - optional
    if unknown:
        raise SchemaError(f"unknown fields: {sorted(unknown)}")


def _parse_entry(obj, ctx: QuadContext, where: str, keys=("a", "b"), noun="ring"):
    """One element: a number, or an object with the coordinate ``keys``."""
    if isinstance(obj, dict):
        unknown = obj.keys() - keys
        if unknown:
            raise SchemaError(f"unknown fields {sorted(unknown)}", location=where)
        a = parse_rational(obj.get(keys[0], 0))
        b = parse_rational(obj.get(keys[1], 0))
        return OHElement(a, b, ctx)
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        return OHElement(parse_rational(obj), Fraction(0), ctx)
    raise SchemaError(f"not a {noun} element: {obj!r}", location=where)


def _parse_matrix(obj, ctx: QuadContext, where: str, keys=("a", "b"), noun="ring"):
    if not isinstance(obj, list) or not obj:
        raise SchemaError("matrix must be a nonempty array of rows", location=where)
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != len(obj):
            raise SchemaError("matrix must be square", location=f"{where}[{i}]")
        rows.append(
            [_parse_entry(e, ctx, f"{where}[{i}][{j}]", keys, noun) for j, e in enumerate(row)]
        )
    return rows


def _context(args) -> RamifiedContext:
    if args.p is None:
        raise SchemaError("--p is required")
    delta_sq = parse_rational(args.delta_sq) if args.delta_sq is not None else None
    return RamifiedContext(args.p, parse_rational(args.epsilon), delta_sq)


def _bounds(args) -> EnumerationBounds:
    return EnumerationBounds(
        max_rank=args.max_rank,
        max_scale=args.max_scale,
        max_candidates=args.max_candidates,
    )


def _local_request(args, key: str) -> tuple[RamifiedContext, HermGram]:
    """The context of a local command and the Hermitian matrix under ``key``."""
    ctx = _context(args)
    doc = _load_document(args)
    _require_keys(doc, {key})
    return ctx, HermGram(_parse_matrix(doc[key], ctx, key), ctx)


def _cmd_jordan(args):
    _, G = _local_request(args, "gram")
    return {"blocks": jordan_split(G).to_json()}


def _cmd_cycle(args):
    ctx, T = _local_request(args, "matrix")
    T.check_nonsingular()
    if args.raw:
        return cycle_invariants(T).to_json()
    return cycle_report(T, ctx).to_json()


def _cmd_vertices(args):
    _, G = _local_request(args, "gram")
    vs = enumerate_vertices(HermLattice.from_gram(G.check_nonsingular()), _bounds(args))
    if args.dot:
        return poset_dot(vs)
    return vs.to_json()


def _cmd_verify(args):
    _, G = _local_request(args, "gram")
    return verify_structure_theorems(
        HermLattice.from_gram(G.check_nonsingular()), _bounds(args)
    ).to_json()


def _cmd_global(args):
    doc = _load_document(args)
    _require_keys(doc, {"delta", "matrix"})
    delta = doc["delta"]
    if not isinstance(delta, int) or isinstance(delta, bool):
        raise SchemaError("delta must be an integer")
    T = _parse_matrix(doc["matrix"], QuadContext(delta), "matrix", ("x", "y"), "field")
    return global_report(T, delta, bound=args.factor_bound).to_json()


def _cmd_hilbert(args):
    doc = _load_document(args)
    _require_keys(doc, {"a", "b", "place"})
    place = doc["place"]
    if place != REAL_PLACE and (not isinstance(place, int) or isinstance(place, bool)):
        raise SchemaError('place must be a prime integer or "real"')
    a = parse_rational(doc["a"])
    b = parse_rational(doc["b"])
    return {"symbol": hilbert_symbol(a, b, place)}


def build_parser() -> _Parser:
    """The argparse tree of every command; ``run`` builds it once per process."""
    parser = _Parser(prog="hermcycles", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, context=False, bounds=False, extra=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", nargs="?", help="request file (default: stdin)")
        if context:
            p.add_argument("--p", type=int, default=None, help="odd prime")
            p.add_argument("--epsilon", default="1", help="unit with pi^2 = eps*p")
            p.add_argument(
                "--delta-sq",
                dest="delta_sq",
                default=None,
                help="non-square unit class (default: smallest non-residue)",
            )
        if bounds:
            p.add_argument("--max-rank", type=int, default=3)
            p.add_argument("--max-scale", type=int, default=3)
            p.add_argument("--max-candidates", type=int, default=10_000_000)
        for flag, kwargs in (extra or {}).items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    add("jordan", _cmd_jordan, "Jordan block data of a Hermitian Gram matrix", context=True)
    add(
        "cycle",
        _cmd_cycle,
        "cycle invariants of a Hermitian matrix",
        context=True,
        extra={"--raw": {"action": "store_true", "help": "input is the pre-scaled Gram"}},
    )
    add(
        "vertices",
        _cmd_vertices,
        "enumerate supporting vertex lattices",
        context=True,
        bounds=True,
        extra={"--dot": {"action": "store_true", "help": "emit the poset as DOT"}},
    )
    add("verify", _cmd_verify, "check structure results against the enumeration", context=True, bounds=True)
    add(
        "global",
        _cmd_global,
        "support analysis over an imaginary quadratic field",
        extra={"--factor-bound": {"type": int, "default": 10**6, "dest": "factor_bound"}},
    )
    add("hilbert", _cmd_hilbert, "quadratic Hilbert symbol at a place")
    return parser


def _emit(payload) -> None:
    if isinstance(payload, str):
        sys.stdout.write(payload + "\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_error(exc) -> None:
    record = {"error": {"code": exc.code, "message": str(exc)}}
    if getattr(exc, "location", None):
        record["error"]["location"] = exc.location
    if getattr(exc, "count", None) is not None:
        record["error"]["count"] = exc.count
    sys.stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


_PARSER: _Parser | None = None


def _parser() -> _Parser:
    # parse_args keeps no state between calls: every call fills a fresh
    # namespace from the defaults, so one tree serves every request.
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        payload = args.func(args)
    except SchemaError as exc:
        _emit_error(exc)
        return 1
    except DomainError as exc:
        _emit_error(exc)
        return 2
    except ResourceError as exc:
        _emit_error(exc)
        return 3
    _emit(payload)
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
