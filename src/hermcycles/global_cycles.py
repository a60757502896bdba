"""Hermitian matrices over an imaginary quadratic field Q(sqrt(delta)).

Computes positivity, the set of obstructing inert primes, existence of a
self-dual lattice in the ambient Hermitian space, and for every odd ramified
prime the local cycle invariants of the matrix embedded through
sqrt(delta) -> pi (an exact ring map because pi**2 = delta there).  Matrix
entries are OHElement values over QuadContext(delta), so x + y*sqrt(delta) is
stored as a = x, b = y, and the embedding only swaps the context.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cycles import CycleInvariants, cycle_report
from .errors import IntegralityError, PreconditionError, SingularMatrixError
from .lattice import HermGram
from .padic import (
    DEFAULT_FACTOR_BOUND,
    INERT,
    RAMIFIED,
    _splitting,
    check_quadratic_field,
    factorize,
    format_rational,
)
from .ramified import OHElement, QuadContext, RamifiedContext

STATUS_EMPTY = "empty"
STATUS_INERT = "inert-case"
STATUS_RAMIFIED = "ramified-supported"


def _is_algebraic_integer(x: OHElement) -> bool:
    """Membership in the maximal order: 2a, 2b and the norm are integers."""
    return (
        (2 * x.a).denominator == 1
        and (2 * x.b).denominator == 1
        and x.norm().denominator == 1
    )


def _hermitian(T, delta: int) -> HermGram:
    """T as a validated Hermitian matrix over QuadContext(delta)."""
    field = QuadContext(delta)
    if isinstance(T, HermGram) and T.ctx == field:
        return T
    return HermGram(T, field, name="matrix")


def is_positive_definite(T, delta: int) -> bool:
    """Whether the one forward elimination of T (HermGram.elimination)
    swapped no rows and found n positive pivots: it swaps only at a zero
    diagonal entry, so on a positive definite T it swaps none, and pivot k
    is leading minor k over leading minor k - 1."""
    G = _hermitian(T, delta)
    pivots, swaps, _ = G.elimination()
    return not swaps and len(pivots) == G.n and all(x.a > 0 for x in pivots)


def _diff0(det: int | Fraction, delta: int, bound: int) -> tuple[int, ...]:
    """Inert primes of odd valuation in a nonzero det, for a checked field.
    det is that of a matrix over O_k, a rational algebraic integer, so an
    integer."""
    return tuple(
        p for p, k in factorize(det.numerator, bound).items()
        if k % 2 and _splitting(delta, p) == INERT
    )


@dataclass(frozen=True)
class GlobalReport:
    """``diff0`` holds the inert primes at which det T has odd valuation;
    more than one of them makes the cycle empty.  ``self_dual_exists`` is
    None when T is not positive definite.  Split and ramified primes never
    obstruct a self-dual lattice; at an inert p the condition is
    (det T, delta)_p = 1, and with det T = p**k * u, u a unit, the symbol is
    (-1)**k: at odd p, delta is a unit non-residue, and at p = 2,
    delta = 5 mod 8, so (u, delta)_2 = 1 and (2, delta)_2 = -1.  Hence a
    self-dual lattice exists exactly when diff0 is empty.  ``det`` is det T,
    an exact rational: an int or a Fraction."""

    positive_definite: bool
    det: int | Fraction
    diff0: tuple[int, ...]
    status: str
    self_dual_exists: bool | None
    ramified_primes_odd: tuple[int, ...]
    unsupported_primes: tuple[int, ...]
    per_prime: dict[int, CycleInvariants]

    def to_json(self) -> dict:
        return {
            "positive_definite": self.positive_definite,
            "det": format_rational(self.det),
            "diff0": list(self.diff0),
            "status": self.status,
            "self_dual_exists": self.self_dual_exists,
            "ramified_primes_odd": list(self.ramified_primes_odd),
            "unsupported_primes": list(self.unsupported_primes),
            "per_prime": {str(p): inv.to_json() for p, inv in self.per_prime.items()},
        }


def local_context(delta: int, p: int) -> RamifiedContext:
    """Local data at an odd p dividing delta, with eps = delta/p so pi**2 = delta."""
    return RamifiedContext(p, Fraction(delta, p))


def embed_matrix(T, delta: int, ctx: RamifiedContext) -> HermGram:
    """Image of T under sqrt(delta) -> pi; requires pi**2 = delta in ctx."""
    G = _hermitian(T, delta)
    if ctx.pi0 != delta:
        raise PreconditionError("context uniformizer does not square to delta")
    return HermGram([[OHElement._raw(x.a, x.b, ctx) for x in row] for row in G.entries], ctx)


def global_report(T, delta: int, bound: int = DEFAULT_FACTOR_BOUND) -> GlobalReport:
    """Support analysis of the cycle attached to an integral Hermitian matrix.

    Empty when T is not positive definite or more than one inert prime
    obstructs; a single obstructing inert prime is reported without dimension
    data; otherwise the support lies over the ramified primes and every odd
    one receives its local invariants (p = 2 is reported as unsupported).
    """
    primes = check_quadratic_field(delta, bound)
    G = _hermitian(T, delta)
    for i, row in enumerate(G.entries):
        for j, e in enumerate(row):
            if not _is_algebraic_integer(e):
                raise IntegralityError(
                    f"entry ({i},{j}) is not an algebraic integer",
                    location=f"matrix[{i}][{j}]",
                )
    det = G.det_rational()
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    positive = is_positive_definite(G, delta)
    obstructions = _diff0(det, delta, bound)
    ramified_odd = tuple(p for p in primes if p != 2)
    unsupported = (2,) if _splitting(delta, 2) == RAMIFIED else ()
    per_prime: dict[int, CycleInvariants] = {}
    if not positive or len(obstructions) > 1:
        status = STATUS_EMPTY
    elif len(obstructions) == 1:
        status = STATUS_INERT
    else:
        status = STATUS_RAMIFIED
        for p in ramified_odd:
            per_prime[p] = cycle_report(embed_matrix(G, delta, local_context(delta, p)))
    return GlobalReport(
        positive_definite=positive,
        det=det,
        diff0=obstructions,
        status=status,
        self_dual_exists=not obstructions if positive else None,
        ramified_primes_odd=ramified_odd,
        unsupported_primes=unsupported,
        per_prime=per_prime,
    )
