"""Support and dimension invariants of the cycle attached to a Hermitian matrix.

The cycle lattice of an input matrix T carries the form of T scaled by a
unit.  Its Jordan data determines the maximal vertex type t, the dimension
t/2, and the irreducibility / zero-dimensionality flags, and none of them
changes when the form is scaled by a unit (cycle_report), so they are read
off the Jordan splitting of T itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import PreconditionError
from .lattice import HermGram, JordanReport, is_split_sum, jordan_split

STATUS_NONEMPTY = "nonempty"
STATUS_EMPTY = "empty-nonintegral"


@dataclass(frozen=True)
class CycleInvariants:
    status: str
    m: int | None = None
    t: int | None = None
    dimension: int | None = None
    n_odd: int | None = None
    n_even: int | None = None
    rank_L1: int | None = None
    L_ge1_split: bool | None = None
    L_ge2_split: bool | None = None
    irreducible: bool | None = None
    zero_dimensional: bool | None = None
    single_point: bool | None = None

    @classmethod
    def empty(cls) -> "CycleInvariants":
        return cls(status=STATUS_EMPTY)

    @property
    def is_empty(self) -> bool:
        return self.status == STATUS_EMPTY

    def to_json(self) -> dict:
        if self.is_empty:
            return {"status": self.status}
        return {f.name: getattr(self, f.name) for f in fields(self)}


def invariants_from_report(report: JordanReport, p: int) -> CycleInvariants:
    """Cycle invariants from the Jordan data of an integral lattice."""
    if any(b.scale < 0 for b in report.blocks):
        raise PreconditionError("Jordan data has negative scales; lattice not integral")
    m = sum(b.rank for b in report.blocks if b.scale >= 1)
    n_odd = sum(b.rank for b in report.blocks if b.scale >= 3 and b.scale % 2 == 1)
    n_even = sum(b.rank for b in report.blocks if b.scale >= 2 and b.scale % 2 == 0)
    rank_l1 = report.rank_at(1)
    ge1_split = is_split_sum(report.filtered(1), p)
    ge2_split = is_split_sum(report.filtered(2), p)
    if m % 2 == 1:
        t = m - 1
    elif ge1_split:
        t = m
    else:
        t = m - 2
    irreducible = n_odd == 0 and (n_even <= 1 or (n_even == 2 and not ge2_split))
    zero_dimensional = irreducible and rank_l1 == 0
    return CycleInvariants(
        status=STATUS_NONEMPTY,
        m=m,
        t=t,
        dimension=t // 2,
        n_odd=n_odd,
        n_even=n_even,
        rank_L1=rank_l1,
        L_ge1_split=ge1_split,
        L_ge2_split=ge2_split,
        irreducible=irreducible,
        zero_dimensional=zero_dimensional,
        single_point=zero_dimensional,
    )


def cycle_report(T: HermGram) -> CycleInvariants:
    """The empty-cycle marker for a non-integral T, else the invariants of
    the cycle lattice, read off the Jordan splitting of T (also the
    singularity test).  Scaling by a unit u keeps Jordan scales and ranks
    and multiplies a rank-r block determinant by u**r (Jacobowitz 1962);
    invariants_from_report reads unit classes only through is_split_sum on
    an even total rank, where the blocks of odd rank are even in number, so
    the parity of the non-square blocks is kept."""
    report = jordan_split(T)
    if not T.is_integral():
        return CycleInvariants.empty()
    return invariants_from_report(report, T.ctx.p)
