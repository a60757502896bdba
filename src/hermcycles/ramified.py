"""Exact arithmetic in a quadratic algebra a + b*g with g**2 = pi0.

Locally g is the uniformizer pi of the ramified extension H = Q_p(pi) with
pi**2 = pi0 = eps*p; globally it is sqrt(delta) in Q(sqrt(delta)) with
pi0 = delta.  Elements are pairs of exact rationals, each an int or a
Fraction and never a float: integral coordinates may stay ints, and the one
true division, in ``inverse``, is done in Fraction.  Conjugation sends g to
-g, the norm of a + b*g is a**2 - b**2*pi0, and over H the pi-adic order of
a + b*pi is min(2*val_p(a), 2*val_p(b) + 1).  All values are immutable and
safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError, UnsupportedPrimeError
from .padic import INFINITY, _check_prime, _coordinate, _val

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class QuadContext:
    """The algebra a + b*g with g**2 = pi0, for a nonzero rational pi0.

    Enough for ring arithmetic, conjugation, norms and determinants; the
    p-adic operations (``ord``, ``is_integral``) need a RamifiedContext.
    """

    pi0: Fraction

    def __post_init__(self):
        object.__setattr__(self, "pi0", Fraction(self.pi0))

    def element(self, a, b=0) -> "OHElement":
        return OHElement(a, b, self)

    def zero(self) -> "OHElement":
        return OHElement._raw(_ZERO, _ZERO, self)

    def one(self) -> "OHElement":
        return OHElement._raw(_ONE, _ZERO, self)


@dataclass(frozen=True)
class RamifiedContext(QuadContext):
    """Fixes the odd prime p and the p-adic unit eps with pi**2 = pi0 = eps*p.

    No other choice enters: the cycle invariants of a matrix do not change
    when its form is scaled by a unit (cycles.cycle_report).
    """

    pi0: Fraction = field(init=False, compare=False, repr=False)
    p: int
    eps: Fraction = _ONE

    def __post_init__(self):
        if self.p == 2:
            raise UnsupportedPrimeError("p = 2 is not supported by the lattice layer")
        _check_prime(self.p)
        object.__setattr__(self, "eps", Fraction(self.eps))
        if _val(self.eps, self.p) != 0:
            raise PreconditionError(f"eps = {self.eps} must be a unit at {self.p}")
        object.__setattr__(self, "pi0", self.eps * self.p)


class OHElement:
    """a + b*pi with exact rational coefficients, each an int or a Fraction;
    pi**2 rewrites to ctx.pi0."""

    __slots__ = ("a", "b", "ctx")

    def __init__(self, a, b, ctx: QuadContext):
        self.a = _coordinate(a)
        self.b = _coordinate(b)
        self.ctx = ctx

    @classmethod
    def _raw(cls, a: int | Fraction, b: int | Fraction, ctx: QuadContext) -> "OHElement":
        self = object.__new__(cls)
        self.a = a
        self.b = b
        self.ctx = ctx
        return self

    def _coerce(self, other):
        if isinstance(other, OHElement):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise PreconditionError("context mismatch between ring elements")
            return other
        if isinstance(other, (int, Fraction)):
            return OHElement._raw(_coordinate(other), 0, self.ctx)
        return None

    # Zero components cost no Fraction work: a zero addend leaves the other
    # component as it is, and a rational factor makes a product one or two
    # Fraction products instead of the general formula's five.

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, o.a, o.b
        return OHElement._raw(
            (a + c if c else a) if a else c, (b + d if d else b) if b else d, self.ctx
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, o.a, o.b
        return OHElement._raw(
            (a - c if a else -c) if c else a, (b - d if b else -d) if d else b, self.ctx
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        a, b = self.a, self.b
        return OHElement._raw(-a if a else a, -b if b else b, self.ctx)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, o.a, o.b
        if not b:
            if not d:
                return OHElement._raw(a * c, _ZERO, self.ctx)
            return OHElement._raw(a * c, a * d, self.ctx)
        if not d:
            return OHElement._raw(a * c, b * c, self.ctx)
        return OHElement._raw(a * c + b * d * self.ctx.pi0, a * d + b * c, self.ctx)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def inverse(self) -> "OHElement":
        """The inverse, its coordinates divided in Fraction: 1/a of an int a
        would be a float."""
        a, b = self.a, self.b
        n = self.norm() if b else a
        if n == 0:
            raise PreconditionError("division by zero in H")
        if not b:  # rational: one division
            return OHElement._raw(Fraction(1, a), b, self.ctx)
        return OHElement._raw(Fraction(a, n) if a else a, Fraction(-b, n), self.ctx)

    def conjugate(self) -> "OHElement":
        return OHElement._raw(self.a, -self.b, self.ctx) if self.b else self

    def norm(self) -> int | Fraction:
        """x * conj(x) = a**2 - b**2 * pi0, fixed by conjugation."""
        a, b = self.a, self.b
        if not b:
            return a * a
        if not a:
            return -(b * b * self.ctx.pi0)
        return a * a - b * b * self.ctx.pi0

    def ord(self):
        """pi-adic order: min(2*val_p(a), 2*val_p(b) + 1); +inf for 0."""
        p = self.ctx.p
        if self.a:
            va = 2 * _val(self.a, p)
            if self.b:
                return min(va, 2 * _val(self.b, p) + 1)
            return va
        if self.b:
            return 2 * _val(self.b, p) + 1
        return INFINITY

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_integral(self) -> bool:
        p = self.ctx.p
        return self.a.denominator % p != 0 and self.b.denominator % p != 0

    def __eq__(self, other):
        # a rational element (b = 0) is its number in every context, so that
        # equality stays transitive across contexts through plain numbers
        if isinstance(other, OHElement):
            if not self.b and not other.b:
                return self.a == other.a
            return self.a == other.a and self.b == other.b and self.ctx == other.ctx
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self):  # a rational element hashes as the int or Fraction it equals
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        return f"({self.a} + {self.b}*pi)"

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b)}


def _pi0_power(ctx: QuadContext, e: int) -> tuple[int, int]:
    """pi0**h, h = floor(e/2), as the int pair (numerator, denominator) of int
    powers of pi0's; the denominator may be negative when h < 0."""
    u, v, h = ctx.pi0.numerator, ctx.pi0.denominator, e // 2
    if h < 0:
        u, v, h = v, u, -h
    return u**h, v**h


def pi_power(ctx: QuadContext, e: int) -> OHElement:
    """pi**e as an exact element, for any integer e: pi0**h or pi0**h * pi,
    h = floor(e/2), from int powers of pi0's numerator and denominator (a
    power of the Fraction pi0 costs twice as much)."""
    u, v = _pi0_power(ctx, e)
    c = Fraction(u) if v == 1 else Fraction(u, v)
    return OHElement._raw(_ZERO, c, ctx) if e % 2 else OHElement._raw(c, _ZERO, ctx)

