"""JSON-in, JSON-out command line frontend.

Commands: jordan, cycle, vertices, verify, global, hilbert.  The request
document is read from a file argument or standard input; output is a single
deterministic JSON document on standard output, byte for byte what
json.dumps(indent=2, sort_keys=True) writes, from a direct writer (_json).
Exit codes: 0 success, 1 schema violation, 2 domain error, 3 resource limit.

Each command is one process, so start-up is paid per request: this module
imports only the standard library, errors and padic, and builds only the
parser of the command named first, once per process, from _COMMANDS.  The
tree of all six (build_parser) answers only a vector that names no command:
top-level help and errors.  A handler reaches every other package module as
an attribute of the package (_modules), whose one lazy loader imports it on
first use (__init__.py), so hilbert loads no lattice code at all.  Handlers
read each function off its module on every call and keep no copy of it, so a
function patched on its module (as bench/tracing.py does) is the one that
runs.  _json writes every document but the vertex census, which the
vertices handler returns as text, written by VertexSet.json_text straight
from the basis strings; _emit writes a text payload as it is.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from .errors import DomainError, ResourceError, SchemaError
from .padic import DEFAULT_FACTOR_BOUND, REAL_PLACE, hilbert_symbol, parse_rational

# The enumeration flags of vertices and verify, one per field of
# vertices.EnumerationBounds, which owns their defaults: an omitted flag is
# None and leaves its field at the default.
_BOUNDS = ("max_rank", "max_scale", "max_candidates")


# The package, whose __getattr__ imports each module on its first read
_modules = sys.modules[__package__]


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


def _parse_entry(obj, element, ctx, where: str, keys, noun):
    """One element, built by ``element(a, b, ctx)``: a number, or an object
    with the coordinate ``keys``; a missing coordinate is 0, and each given
    one, null included, goes through parse_rational.  Every SchemaError
    raised here is located at ``where``."""
    try:
        if isinstance(obj, dict):
            ka, kb = keys
            has_a, has_b = ka in obj, kb in obj
            if len(obj) != has_a + has_b:
                raise SchemaError(f"unknown fields {sorted(obj.keys() - keys)}")
            a = parse_rational(obj[ka]) if has_a else 0
            return element(a, parse_rational(obj[kb]) if has_b else 0, ctx)
        if isinstance(obj, (int, str)) and not isinstance(obj, bool):
            return element(parse_rational(obj), 0, ctx)
        raise SchemaError(f"not a {noun} element: {obj!r}")
    except SchemaError as exc:
        raise SchemaError(str(exc), location=where) from exc


def _parse_matrix(obj, ctx, where: str, keys=("a", "b"), noun="ring"):
    """Rows of OHElements over the QuadContext ``ctx``."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError("matrix must be a nonempty array of rows", location=where)
    element = _modules.ramified.OHElement._raw
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != len(obj):
            raise SchemaError("matrix must be square", location=f"{where}[{i}]")
        rows.append(
            [_parse_entry(e, element, ctx, f"{where}[{i}][{j}]", keys, noun) for j, e in enumerate(row)]
        )
    return rows


def _context(args):
    """The RamifiedContext of ``--p`` and ``--epsilon``."""
    if args.p is None:
        raise SchemaError("--p is required")
    ramified = _modules.ramified
    if args.epsilon is None:
        return ramified.RamifiedContext(args.p)
    return ramified.RamifiedContext(args.p, parse_rational(args.epsilon))


def _bounds(args):
    given = {name: value for name in _BOUNDS if (value := getattr(args, name)) is not None}
    return _modules.vertices.EnumerationBounds(**given)


def _local_request(args, key: str):
    """The HermGram under ``key``, in the context of a local command."""
    ctx = _context(args)
    doc = _load_document(args)
    _require_keys(doc, {key})
    return _modules.lattice.HermGram(_parse_matrix(doc[key], ctx, key), ctx)


def _cmd_jordan(args):
    return {"blocks": _modules.lattice.jordan_split(_local_request(args, "gram")).to_json()}


def _cmd_cycle(args):
    return _modules.cycles.cycle_report(_local_request(args, "matrix")).to_json()


def _cmd_vertices(args):
    G = _local_request(args, "gram")
    vertices = _modules.vertices
    vs = vertices.enumerate_vertices(_modules.lattice.HermLattice.from_gram(G), _bounds(args))
    if args.dot:
        return vertices.poset_dot(vs)
    return vs.json_text()


def _cmd_verify(args):
    L = _modules.lattice.HermLattice.from_gram(_local_request(args, "gram"))
    return _modules.vertices.verify_structure_theorems(L, _bounds(args)).to_json()


def _cmd_global(args):
    doc = _load_document(args)
    _require_keys(doc, {"delta", "matrix"})
    delta = doc["delta"]
    if not isinstance(delta, int) or isinstance(delta, bool):
        raise SchemaError("delta must be an integer")
    field = _modules.ramified.QuadContext(delta)
    T = _parse_matrix(doc["matrix"], field, "matrix", ("x", "y"), "field")
    return _modules.global_cycles.global_report(T, delta, bound=args.factor_bound).to_json()


def _cmd_hilbert(args):
    doc = _load_document(args)
    _require_keys(doc, {"a", "b", "place"})
    place = doc["place"]
    if place != REAL_PLACE and (not isinstance(place, int) or isinstance(place, bool)):
        raise SchemaError('place must be a prime integer or "real"')
    a = parse_rational(doc["a"])
    b = parse_rational(doc["b"])
    return {"symbol": hilbert_symbol(a, b, place)}


# name -> (handler, help line, takes --p and --epsilon, takes the
# EnumerationBounds flags, further options)
_COMMANDS = {
    "jordan": (_cmd_jordan, "Jordan block data of a Hermitian Gram matrix", True, False, {}),
    "cycle": (_cmd_cycle, "cycle invariants of a Hermitian matrix", True, False, {}),
    "vertices": (
        _cmd_vertices,
        "enumerate supporting vertex lattices",
        True,
        True,
        {"--dot": {"action": "store_true", "help": "emit the poset as DOT"}},
    ),
    "verify": (_cmd_verify, "check structure results against the enumeration", True, True, {}),
    "global": (
        _cmd_global,
        "support analysis over an imaginary quadratic field",
        False,
        False,
        {"--factor-bound": {"type": int, "default": DEFAULT_FACTOR_BOUND, "dest": "factor_bound"}},
    ),
    "hilbert": (_cmd_hilbert, "quadratic Hilbert symbol at a place", False, False, {}),
}


def _add_arguments(p: _Parser, func, context: bool, bounds: bool, extra: dict) -> _Parser:
    p.add_argument("input", nargs="?", help="request file (default: stdin)")
    if context:
        p.add_argument("--p", type=int, help="odd prime")
        p.add_argument("--epsilon", help="unit with pi^2 = eps*p")
    if bounds:
        for bound in _BOUNDS:
            p.add_argument("--" + bound.replace("_", "-"), type=int)
    for flag, kwargs in extra.items():
        p.add_argument(flag, **kwargs)
    p.set_defaults(func=func)
    return p


def build_parser() -> _Parser:
    """The argparse tree of every command, for a vector that names none."""
    # the last paragraph of the module docstring is for readers of this file
    parser = _Parser(prog="hermcycles", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, *options) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), func, *options)
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


# parse_args keeps no state between calls: every call fills a fresh
# namespace from the defaults, so one parser serves every request.
_PARSERS: dict[str, _Parser] = {}


def _command_parser(name: str) -> _Parser:
    """The parser of one command, as the tree's subparser of that name."""
    parser = _PARSERS.get(name)
    if parser is None:
        func, _, *options = _COMMANDS[name]
        parser = _PARSERS[name] = _add_arguments(_Parser(prog="hermcycles " + name), func, *options)
    return parser


def run(argv) -> int:
    try:
        if argv and argv[0] in _COMMANDS:
            args = _command_parser(argv[0]).parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
        payload = args.func(args)
    except (SchemaError, DomainError, ResourceError) as exc:
        _emit_error(exc)
        return exc.exit_code
    _emit(payload)
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
