"""Exact invariants of Hermitian lattices over ramified quadratic extensions of Q_p.

Jordan splittings, vertex-lattice enumeration, and the support and dimension
invariants of the special cycles attached to Hermitian matrices, computed
exactly: in rational arithmetic, and in the Jordan elimination and the vertex
enumerator modulo powers of p at which every result they keep is exact.

The names of ``__all__`` are the library API; the README lists them.  The
package imports none of its modules itself, and ``__getattr__`` (PEP 562) is
its one lazy loader: ``_EXPORTS`` maps each name to the module that defines
it, and reading a name, or one of those modules, imports the module on first
use, so ``import hermcycles`` costs almost nothing and a command loads only
what it runs (cli.py).  The import binds a module on the package, so later
reads of ``hermcycles.<module>`` never reach ``__getattr__``.  A name is
looked up in its module on every access and never stored here, so
``hermcycles.<name>`` is always the module's current attribute, also while
a caller has patched it there.
"""

import sys

_EXPORTS = {
    name: module
    for module, names in (
        ("ramified", "OHElement QuadContext RamifiedContext pi_power"),
        ("lattice", "HermGram HermLattice diagonal_gram hyperbolic_gram orthogonal_sum mat_inverse"),
        ("lattice", "JordanBlock JordanReport jordan_split"),
        ("cycles", "CycleInvariants cycle_report"),
        ("vertices", "EnumerationBounds Vertex VertexSet VerificationReport"),
        ("vertices", "enumerate_vertices verify_structure_theorems poset_dot"),
        ("global_cycles", "GlobalReport global_report"),
        ("padic", "REAL_PLACE factorize format_rational hilbert_symbol parse_rational"),
        ("errors", "Error SchemaError DomainError ResourceError"),
        ("errors", "HermitianViolationError SingularMatrixError UnsupportedPrimeError"),
        ("errors", "PreconditionError NonIntegralLatticeError InvalidFieldError"),
        ("errors", "IntegralityError EnumerationLimitError FactorizationLimitError"),
    )
    for name in names.split()
}

_MODULES = set(_EXPORTS.values())

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, whose imports
    # python -X importtime does not report
    qualified = f"{__name__}.{module}"
    __import__(qualified)
    module = sys.modules[qualified]
    return module if name in _MODULES else getattr(module, name)
