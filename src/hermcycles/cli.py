"""JSON-in, JSON-out command line frontend.

Commands: jordan, cycle, vertices, verify, global, hilbert.  The request
document is read from a file argument or standard input; output is a single
deterministic JSON document on standard output, byte for byte what
json.dumps(indent=2, sort_keys=True) writes, from a direct writer (_json).
Exit codes: 0 success, 1 schema violation, 2 domain error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .cycles import cycle_report
from .errors import DomainError, ResourceError, SchemaError
from .global_cycles import global_report
from .lattice import HermGram, HermLattice, jordan_split
from .padic import DEFAULT_FACTOR_BOUND, REAL_PLACE, hilbert_symbol, parse_rational
from .ramified import OHElement, QuadContext, RamifiedContext
from .vertices import (
    EnumerationBounds,
    enumerate_vertices,
    poset_dot,
    verify_structure_theorems,
)

_ZERO = Fraction(0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


def _load_document(args) -> dict:
    try:
        if args.input and args.input != "-":
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("invalid JSON: nested too deeply") from exc
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
        a, b = (parse_rational(obj[k]) if k in obj else _ZERO for k in keys)
        return OHElement._raw(a, b, ctx)
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        return OHElement._raw(parse_rational(obj), _ZERO, ctx)
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
    return RamifiedContext(args.p, parse_rational(args.epsilon))


def _bounds(args) -> EnumerationBounds:
    return EnumerationBounds(**{f.name: getattr(args, f.name) for f in fields(EnumerationBounds)})


def _local_request(args, key: str) -> HermGram:
    """The Hermitian matrix under ``key``, in the context of a local command."""
    ctx = _context(args)
    doc = _load_document(args)
    _require_keys(doc, {key})
    return HermGram(_parse_matrix(doc[key], ctx, key), ctx)


def _cmd_jordan(args):
    return {"blocks": jordan_split(_local_request(args, "gram")).to_json()}


def _cmd_cycle(args):
    return cycle_report(_local_request(args, "matrix")).to_json()


def _cmd_vertices(args):
    G = _local_request(args, "gram")
    vs = enumerate_vertices(HermLattice.from_gram(G), _bounds(args))
    if args.dot:
        return poset_dot(vs)
    return vs.to_json()


def _cmd_verify(args):
    G = _local_request(args, "gram")
    return verify_structure_theorems(HermLattice.from_gram(G), _bounds(args)).to_json()


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
            p.add_argument("--epsilon", default=RamifiedContext.eps, help="unit with pi^2 = eps*p")
        if bounds:
            for f in fields(EnumerationBounds):
                p.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default)
        for flag, kwargs in (extra or {}).items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    add("jordan", _cmd_jordan, "Jordan block data of a Hermitian Gram matrix", context=True)
    add("cycle", _cmd_cycle, "cycle invariants of a Hermitian matrix", context=True)
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
        extra={"--factor-bound": {"type": int, "default": DEFAULT_FACTOR_BOUND, "dest": "factor_bound"}},
    )
    add("hilbert", _cmd_hilbert, "quadratic Hilbert symbol at a place")
    return parser


def _json(obj, indent: str = "") -> str:
    """What json.dumps(obj, indent=2, sort_keys=True) writes, for the values
    a command returns: dicts with str keys, lists, tuples, str, int, bool and
    None; any other value, a float included, raises TypeError.  Given an
    indent, json.dumps runs its pure-Python encoder, about twice as slow."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{encode_basestring_ascii(key)}: {_json(obj[key], inner)}")
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json(item, inner) for item in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(payload) -> None:
    sys.stdout.write((payload if isinstance(payload, str) else _json(payload)) + "\n")


def _emit_error(exc) -> None:
    record = {"error": {"code": exc.code, "message": str(exc)}}
    if getattr(exc, "location", None):
        record["error"]["location"] = exc.location
    if getattr(exc, "count", None) is not None:
        record["error"]["count"] = exc.count
    sys.stdout.write(_json(record) + "\n")


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
