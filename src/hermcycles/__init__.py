"""Exact invariants of Hermitian lattices over ramified quadratic extensions of Q_p.

Jordan splittings, vertex-lattice enumeration, and the support and dimension
invariants of the special cycles attached to Hermitian matrices, computed
exactly: in rational arithmetic, and in the Jordan elimination and the vertex
enumerator modulo powers of p at which every result they keep is exact.
"""

from .cycles import (
    CycleInvariants,
    cycle_report,
    invariants_from_report,
)
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
from .global_cycles import (
    GlobalReport,
    diff0,
    embed_matrix,
    global_report,
    is_positive_definite,
    local_context,
    self_dual_exists,
)
from .lattice import (
    HermGram,
    HermLattice,
    JordanBlock,
    JordanReport,
    det_class,
    diagonal_gram,
    hyperbolic_gram,
    is_split_sum,
    jordan_split,
    orthogonal_sum,
)
from .padic import (
    INERT,
    INFINITY,
    RAMIFIED,
    REAL_PLACE,
    SPLIT,
    factorize,
    format_rational,
    hilbert_symbol,
    is_square_unit,
    legendre,
    parse_rational,
    smallest_nonresidue,
    splitting_type,
    unit_part,
    val_p,
)
from .ramified import OHElement, QuadContext, RamifiedContext, is_norm, pi_power
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
