"""Exact arithmetic over Q viewed inside Q_p.

Valuations, square classes, Legendre/Kronecker and Hilbert symbols, and prime
splitting in an imaginary quadratic field.  Everything here works on exact
arbitrary-precision rationals, with no truncated p-adic precision; only the
vertex enumerator computes modulo a power of p, where the quotient is exact.
Rationals are parsed and printed as decimal strings "n" or "n/d".
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import (
    FactorizationLimitError,
    InvalidFieldError,
    PreconditionError,
    SchemaError,
    UnsupportedPrimeError,
)

INFINITY = math.inf

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"

REAL_PLACE = "real"

DEFAULT_FACTOR_BOUND = 10**6

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Deterministic Miller-Rabin with these thirteen bases is valid below _MR_LIMIT,
# the smallest strong pseudoprime to all of them (OEIS A014233).
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def parse_rational(value) -> Fraction:
    """Parse "n" or "n/d" (also accepts int/Fraction) into an exact Fraction.

    Decimal strings such as "2.5e2" parse too, but an exponent beyond the
    interpreter's integer digit limit is refused before it is expanded: the
    power of ten it asks for would have that many digits.
    """
    if isinstance(value, bool):
        raise SchemaError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        e = max(value.rfind("e"), value.rfind("E"))
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if e >= 0 and limit:
            digits = value[e + 1 :].strip().lstrip("+-").replace("_", "").lstrip("0")
            if len(digits) > len(str(limit)) or (digits.isdecimal() and int(digits) > limit):
                raise SchemaError(f"not a rational: {value!r} (exponent beyond {limit})")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"not a rational: {value!r}") from exc
    raise SchemaError(f"not a rational: {value!r}")


def format_rational(q) -> str:
    return str(Fraction(q))


def is_prime(n: int) -> bool:
    """Exact below _MR_LIMIT; from there on, refuses n with no factor among the bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise PreconditionError(f"primality of {n} is not certified at or above {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise PreconditionError(f"{p!r} is not prime")
    return p


def _count_factor(n: int, p: int) -> tuple[int, int]:
    """Multiplicity of p in n and the cofactor; n nonzero."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n


def _val(q: Fraction, p: int):
    # Fast path without primality re-checks; q must be a Fraction.
    if not q:
        return INFINITY
    k, _ = _count_factor(q.numerator, p)
    if k:
        return k
    k, _ = _count_factor(q.denominator, p)
    return -k


def val_p(q, p: int):
    """Exact p-adic valuation of a rational; +inf for 0."""
    _check_prime(p)
    return _val(Fraction(q), p)


def unit_part(q, p: int) -> Fraction:
    """q * p**(-val_p(q)), the unit cofactor of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise PreconditionError("0 has no unit part")
    _check_prime(p)
    return q / Fraction(p) ** _val(q, p)


def residue(q, p: int) -> int:
    """Residue mod p of a p-integral rational."""
    q = Fraction(q)
    if _val(q, p) < 0:
        raise PreconditionError(f"{q} is not integral at {p}")
    return q.numerator * pow(q.denominator, -1, p) % p


def legendre(n: int, p: int) -> int:
    """Legendre symbol (n|p) for an odd prime p."""
    n %= p
    if n == 0:
        return 0
    return 1 if pow(n, (p - 1) // 2, p) == 1 else -1


def is_square_unit(q, p: int) -> bool:
    """Whether a unit of Z_p is a square; p odd (Hensel lifts the residue)."""
    if p == 2:
        raise UnsupportedPrimeError("square classes at p = 2 are not supported")
    _check_prime(p)
    q = Fraction(q)
    if q == 0 or _val(q, p) != 0:
        raise PreconditionError(f"{q} is not a unit at {p}")
    return legendre(residue(q, p), p) == 1


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod an odd prime."""
    for r in range(2, p):
        if legendre(r, p) == -1:
            return r
    raise PreconditionError(f"no quadratic non-residue mod {p}")


def _unit_mod(u: Fraction, m: int) -> int:
    return u.numerator * pow(u.denominator, -1, m) % m


def hilbert_symbol(a, b, place) -> int:
    """Quadratic Hilbert symbol (a, b) at a finite prime or the real place.

    ``place`` is a prime integer or the string "real".
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise PreconditionError("hilbert_symbol needs nonzero arguments")
    if place == REAL_PLACE:
        return -1 if a < 0 and b < 0 else 1
    p = _check_prime(place)
    alpha, beta = _val(a, p), _val(b, p)
    u = a / Fraction(p) ** alpha
    v = b / Fraction(p) ** beta
    if p == 2:
        u8, v8 = _unit_mod(u, 8), _unit_mod(v, 8)
        eps_u, eps_v = (u8 - 1) // 2 % 2, (v8 - 1) // 2 % 2
        omega_u, omega_v = (u8 * u8 - 1) // 8 % 2, (v8 * v8 - 1) // 8 % 2
        exponent = eps_u * eps_v + alpha * omega_v + beta * omega_u
    else:
        exponent = alpha * beta * ((p - 1) // 2)
        if legendre(residue(u, p), p) == -1:
            exponent += beta
        if legendre(residue(v, p), p) == -1:
            exponent += alpha
    return -1 if exponent % 2 else 1


def factorize(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> dict[int, int]:
    """Factor a nonzero integer by trial division up to ``bound``.

    A leftover cofactor is kept only when it is provably prime (below bound**2,
    or certified by deterministic Miller-Rabin); otherwise a
    FactorizationLimitError is raised rather than guessing.
    """
    if n == 0:
        raise PreconditionError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        k, n = _count_factor(n, p)
        if k:
            out[p] = k
    f = 5
    while f * f <= n and f <= bound:
        for p in (f, f + 2):
            k, n = _count_factor(n, p)
            if k:
                out[p] = k
        f += 6
    if n > 1:
        if n <= bound * bound or (n < _MR_LIMIT and is_prime(n)):
            out[n] = out.get(n, 0) + 1
        else:
            raise FactorizationLimitError(
                f"unfactored remainder {n} beyond trial bound {bound}"
            )
    return dict(sorted(out.items()))


def rational_factorization(q, bound: int = DEFAULT_FACTOR_BOUND) -> dict[int, int]:
    """Signed prime exponents of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise PreconditionError("cannot factor 0")
    out = {p: k for p, k in factorize(q.numerator, bound).items()} if abs(q.numerator) != 1 else {}
    if q.denominator != 1:
        for p, k in factorize(q.denominator, bound).items():
            out[p] = out.get(p, 0) - k
    return dict(sorted(out.items()))


def is_squarefree(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> bool:
    return all(k == 1 for k in factorize(n, bound).values())


def check_quadratic_field(delta: int, bound: int = DEFAULT_FACTOR_BOUND) -> None:
    """Validate delta as a negative squarefree integer."""
    if not isinstance(delta, int) or isinstance(delta, bool) or delta >= 0:
        raise InvalidFieldError(f"delta must be a negative integer, got {delta!r}")
    if not is_squarefree(delta, bound):
        raise InvalidFieldError(f"delta must be squarefree, got {delta}")


def field_discriminant(delta: int, bound: int = DEFAULT_FACTOR_BOUND) -> int:
    """Discriminant of Q(sqrt(delta)) for squarefree delta < 0."""
    check_quadratic_field(delta, bound)
    return delta if delta % 4 == 1 else 4 * delta


def splitting_type(delta: int, p: int, bound: int = DEFAULT_FACTOR_BOUND) -> str:
    """How the prime p behaves in Q(sqrt(delta)): split, inert or ramified."""
    _check_prime(p)
    disc = field_discriminant(delta, bound)
    if p == 2:
        if disc % 2 == 0:
            return RAMIFIED
        return SPLIT if disc % 8 == 1 else INERT
    if disc % p == 0:
        return RAMIFIED
    return SPLIT if legendre(disc % p, p) == 1 else INERT
