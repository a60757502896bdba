"""Exact invariants of Hermitian lattices over ramified quadratic extensions of Q_p.

Jordan splittings, vertex-lattice enumeration, and the support and dimension
invariants of the special cycles attached to Hermitian matrices, computed
exactly: in rational arithmetic, and in the Jordan elimination and the vertex
enumerator modulo powers of p at which every result they keep is exact.

The names imported here are the library API; the README lists them.
"""

from .cycles import CycleInvariants, cycle_report
from .errors import (
    DomainError,
    EnumerationLimitError,
    Error,
    FactorizationLimitError,
    HermitianViolationError,
    IntegralityError,
    InvalidFieldError,
    NonIntegralLatticeError,
    PreconditionError,
    ResourceError,
    SchemaError,
    SingularMatrixError,
    UnsupportedPrimeError,
)
from .global_cycles import GlobalReport, global_report
from .lattice import (
    HermGram,
    HermLattice,
    JordanBlock,
    JordanReport,
    diagonal_gram,
    hyperbolic_gram,
    jordan_split,
    mat_inverse,
    orthogonal_sum,
)
from .padic import REAL_PLACE, factorize, format_rational, hilbert_symbol, parse_rational
from .ramified import OHElement, QuadContext, RamifiedContext, pi_power
from .vertices import (
    EnumerationBounds,
    VerificationReport,
    Vertex,
    VertexSet,
    enumerate_vertices,
    poset_dot,
    verify_structure_theorems,
)

__version__ = "0.1.0"
