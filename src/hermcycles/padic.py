"""Exact arithmetic over Q viewed inside Q_p.

Valuations, Legendre and Hilbert symbols, factorization, and prime splitting
in an imaginary quadratic field.  Everything here works on exact
arbitrary-precision rationals, ints or Fractions and never floats, with no
truncated p-adic precision; the Jordan elimination and the vertex enumerator
run modulo certified powers of p.  Rationals are parsed and printed as
decimal strings "n" or "n/d"; the parser returns an int for an integral value.
The Hilbert symbol reads valuations and unit residues off the numerator and
the denominator, and builds no Fraction for int arguments.
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


def _coordinate(x) -> int | Fraction:
    """An int or Fraction as it is; any other number (a bool, a float) as a Fraction."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


def _rational(q: Fraction) -> int | Fraction:
    """q as an int when it is integral, else as it is."""
    return q.numerator if q.denominator == 1 else q


def parse_rational(value) -> int | Fraction:
    """Parse "n" or "n/d" (also accepts int/Fraction) into an exact rational:
    an int when the value is integral, a Fraction otherwise, never a float.

    Canonical literals, ASCII digits with an optional leading "-", take an
    integer path; every other form goes through the Fraction string parser,
    with the same values and the same errors.  Decimal strings such as
    "2.5e2" parse too, but an exponent beyond the interpreter's integer digit
    limit is refused before it is expanded: the power of ten it asks for
    would have that many digits.
    """
    if type(value) is str:
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
            try:  # int() refuses a digit string past the limit, as Fraction() does
                return _rational(Fraction(int(num), int(den))) if slash else int(num)
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"not a rational: {value!r}") from exc
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise SchemaError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return _rational(Fraction(value))
    if isinstance(value, str):
        e = max(value.rfind("e"), value.rfind("E"))
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if e >= 0 and limit:
            digits = value[e + 1 :].strip().lstrip("+-").replace("_", "").lstrip("0")
            if len(digits) > len(str(limit)) or (digits.isdecimal() and int(digits) > limit):
                raise SchemaError(f"not a rational: {value!r} (exponent beyond {limit})")
        try:
            return _rational(Fraction(value.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"not a rational: {value!r}") from exc
    raise SchemaError(f"not a rational: {value!r}")


def format_rational(q) -> str:
    return str(Fraction(q))


def is_prime(n: int) -> bool:
    """Exact below _MR_LIMIT; from there on, refuses n with no factor among the bases.

    An n that reaches Miller-Rabin runs all thirteen bases: fewer suffice
    below the earlier terms of A014233, but an extra base never changes the
    answer below _MR_LIMIT."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True  # no prime factor up to 41, none above sqrt(n)
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


def _val(q: int | Fraction, p: int):
    """Exact p-adic valuation of an int or Fraction, +inf for 0; p is not checked."""
    if not q:
        return INFINITY
    k, _ = _count_factor(q.numerator, p)
    if k:
        return k
    k, _ = _count_factor(q.denominator, p)
    return -k


def _mod(q: int | Fraction, m: int, s: int = 1) -> int:
    """The residue modulo m of s * q, for an int or Fraction q and an int s
    with s * q of denominator prime to m, read off q's numerator and
    denominator: no Fraction is built."""
    if type(q) is int:
        return q * s % m
    if q.denominator == 1:
        return q.numerator * s % m
    g = math.gcd(q.denominator, s)
    return q.numerator * (s // g) * pow(q.denominator // g, -1, m) % m


def legendre(n: int, p: int) -> int:
    """Legendre symbol (n|p) for an odd prime p."""
    n %= p
    if n == 0:
        return 0
    return 1 if pow(n, (p - 1) // 2, p) == 1 else -1


def _unit_part(q: int | Fraction, p: int) -> tuple[int, int]:
    """The valuation v of a nonzero int or Fraction q and num * den, where
    num / den = q / p^v in lowest terms (p divides at most one of q's numerator
    and denominator): num * den has the Legendre symbol of the unit q / p^v,
    and at p = 2 its residue modulo 8, since den^-1 = den modulo 8."""
    v, num = _count_factor(q.numerator, p)
    w, den = _count_factor(q.denominator, p)
    return v - w, num * den


def hilbert_symbol(a, b, place) -> int:
    """Quadratic Hilbert symbol (a, b) at a finite prime or the real place.

    ``place`` is a prime integer or the string "real".  An int or Fraction
    argument is taken as it is, any other number as a Fraction.  The symbol
    reads valuations and unit residues off the numerator and the
    denominator, and builds no Fraction for int arguments.
    """
    a, b = _coordinate(a), _coordinate(b)
    if a == 0 or b == 0:
        raise PreconditionError("hilbert_symbol needs nonzero arguments")
    if place == REAL_PLACE:
        return -1 if a < 0 and b < 0 else 1
    p = _check_prime(place)
    (alpha, u), (beta, v) = _unit_part(a, p), _unit_part(b, p)
    if p == 2:
        u8, v8 = u % 8, v % 8
        eps_u, eps_v = (u8 - 1) // 2 % 2, (v8 - 1) // 2 % 2
        omega_u, omega_v = (u8 * u8 - 1) // 8 % 2, (v8 * v8 - 1) // 8 % 2
        exponent = eps_u * eps_v + alpha * omega_v + beta * omega_u
    else:
        exponent = alpha * beta * ((p - 1) // 2)
        if legendre(u, p) == -1:
            exponent += beta
        if legendre(v, p) == -1:
            exponent += alpha
    return -1 if exponent % 2 else 1


def _trial_divide(n: int, bound: int, out: dict[int, int]) -> int:
    """Divide n by every 6k +- 1 up to min(sqrt(n), bound), counting the
    prime factors found into out; returns the cofactor."""
    f = 5
    while f * f <= n and f <= bound:
        for p in (f, f + 2):
            if n % p == 0:
                k, n = _count_factor(n, p)
                out[p] = out.get(p, 0) + k
        f += 6
    return n


def _rho(n: int, budget: int) -> int | None:
    """A proper divisor of a composite n by Brent's variant of Pollard's rho,
    or None when about ``budget`` squarings find none.

    Starts at y = 2 with c = 1 and moves to the next c only when a gcd
    collapses to n; differences are multiplied 128 at a time per gcd.
    """
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if r >= budget:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget -= r
            k = 0
            while k < r and g == 1 and budget > 0:
                ys, step = y, min(128, r - k)
                for _ in range(step):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += step
                budget -= step
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g < n:
            return g
        c += 1


def factorize(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> dict[int, int]:
    """Factor a nonzero integer with the answers and errors of trial division
    up to ``bound``.

    T, the last divisor that trial division tries, is 3 for bound < 5 and
    bound - (bound - 5) % 6 + 2 otherwise; no prime lies in (T, bound].  Every
    prime factor up to T is found.  The rest, R, the product of the prime
    powers above T, is kept only when it is 1 or provably prime (at most
    bound**2, or certified by deterministic Miller-Rabin below _MR_LIMIT);
    otherwise a FactorizationLimitError names R rather than guessing.  A
    negative bound is refused: every R would pass the bound**2 test.

    Pieces are split by Brent's rho, with a budget of about 1/16 of the
    time trial division would take; a piece it cannot split within that
    budget, or whose budget is below one batch of 128 steps, is trial
    divided.  So the bound decides the answer, and the running time follows
    the second-largest prime factor, not the bound, except on pieces rho
    cannot split.
    """
    if bound < 0:
        raise PreconditionError(f"factor bound must be nonnegative, got {bound}")
    if n == 0:
        raise PreconditionError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        k, n = _count_factor(n, p)
        if k:
            out[p] = k
    top = 3 if bound < 5 else bound - (bound - 5) % 6 + 2
    rest = 1
    pieces = [n] if n > 1 else []
    while pieces:
        m = pieces.pop()
        if not (m < _MR_LIMIT and is_prime(m)):
            # rho gets 1/16 of the trial divisions it may save; one of its
            # steps costs about 2 + bits/64 of them, and a budget below one
            # batch of 128 steps splits too little to be worth a call
            trial_steps = min(math.isqrt(m), bound) // 6
            budget = trial_steps // (16 * (2 + m.bit_length() // 64))
            g = _rho(m, budget) if budget >= 128 else None
            if g:
                pieces += (g, m // g)
                continue
            m = _trial_divide(m, bound, out)
        if m > top:
            rest *= m
        elif m > 1:
            out[m] = out.get(m, 0) + 1
    if rest > 1:
        if not (rest <= bound * bound or (rest < _MR_LIMIT and is_prime(rest))):
            raise FactorizationLimitError(
                f"unfactored remainder {rest} beyond trial bound {bound}"
            )
        out[rest] = 1
    return dict(sorted(out.items()))


def check_quadratic_field(delta: int, bound: int = DEFAULT_FACTOR_BOUND) -> tuple[int, ...]:
    """Validate delta as a negative squarefree integer; returns its primes.

    This is the one factorization of delta a request needs: the odd primes
    returned are the odd ramified primes, and _splitting reads how any prime
    behaves off delta itself, without checking the field again.
    """
    if not isinstance(delta, int) or isinstance(delta, bool) or delta >= 0:
        raise InvalidFieldError(f"delta must be a negative integer, got {delta!r}")
    primes = factorize(delta, bound)
    if any(k > 1 for k in primes.values()):
        raise InvalidFieldError(f"delta must be squarefree, got {delta}")
    return tuple(primes)


def _splitting(delta: int, p: int) -> str:
    """Split, inert or ramified for a checked field and a prime p, read off
    the discriminant (delta, or 4*delta unless delta = 1 mod 4)."""
    disc = delta if delta % 4 == 1 else 4 * delta
    if p == 2:
        if disc % 2 == 0:
            return RAMIFIED
        return SPLIT if disc % 8 == 1 else INERT
    if disc % p == 0:
        return RAMIFIED
    return SPLIT if legendre(disc % p, p) == 1 else INERT

