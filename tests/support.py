"""Shared test helpers: independent oracles and random generators.

The oracles here deliberately avoid the code paths they check: the Hilbert
symbol is compared against a primitive-solution search for the conic
a x^2 + b y^2 = z^2 over Z/p^4 and against its earlier Fraction formula
(``hilbert_symbol_oracle``), norm membership (the index-two norm group)
against an enumeration of norm residues, the self-dual field of
``global_report`` against the Hilbert symbols at the inert primes,
positivity against the signs of the leading principal minors, the Jordan
block data against the class of the rational determinant (``det_class``,
on unit square classes by Euler's criterion), the modular Jordan
elimination against the exact-rational one, module lengths and the vertex
oracle's dual basis against a standalone Smith form, the enumerator's
modular canonical bases against a Fraction HNF, the vertex enumerator
against an exact-rational enumerator, the candidates its walk completes
against the Birkhoff-Butler count of submodules (``birkhoff_count``), the
walk-order checks of ``verify`` against the same checks on the printed
census, and the rho factorizer against plain trial division.  ``scaled_gram`` scales a form by a unit,
and ``invoke`` runs one CLI request in-process.
"""

from __future__ import annotations

import io
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from math import isqrt, prod
from unittest.mock import patch

from hermcycles import (
    HermGram,
    HermLattice,
    JordanBlock,
    JordanReport,
    OHElement,
    QuadContext,
    RamifiedContext,
    diagonal_gram,
    hyperbolic_gram,
    orthogonal_sum,
)
from hermcycles.cli import run
from hermcycles.cycles import invariants_from_report
from hermcycles.errors import (
    EnumerationLimitError,
    FactorizationLimitError,
    NonIntegralLatticeError,
    PreconditionError,
    SchemaError,
    SingularMatrixError,
    UnsupportedPrimeError,
)
from hermcycles.lattice import (
    _forward_eliminate,
    mat_conj,
    mat_inverse,
    mat_is_integral,
    mat_mul,
    mat_transpose,
)
from hermcycles.padic import (
    _MR_LIMIT,
    DEFAULT_FACTOR_BOUND,
    INERT,
    INFINITY,
    REAL_PLACE,
    _check_prime,
    _count_factor,
    _mod,
    _splitting,
    _val,
    check_quadratic_field,
    factorize,
    hilbert_symbol,
    is_prime,
    legendre,
)
from hermcycles import vertices
from hermcycles.ramified import pi_power
from hermcycles.vertices import EnumerationBounds, Vertex


def mat_det(A, ctx: QuadContext) -> OHElement:
    """det A of any square matrix over H, such as a basis matrix (the
    package takes determinants of Gram matrices only, HermGram.det): the
    product of the pivots of one forward elimination
    (lattice._forward_eliminate), negated per row swap, or zero when the
    pivots stop short."""
    n = len(A)
    pivots, swaps = _forward_eliminate([list(row) for row in A], n, ctx)
    if len(pivots) < n:
        return ctx.zero()
    return prod(pivots, start=-ctx.one() if swaps % 2 else ctx.one())


def invoke(argv, stdin_text=None):
    """Exit code and standard output of one CLI request, run in-process."""
    buf = io.StringIO()
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with redirect_stdout(buf):
                code = run(argv)
        finally:
            sys.stdin = old
    else:
        with redirect_stdout(buf):
            code = run(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# rational literal oracle


def parse_rational_oracle(value) -> int | Fraction:
    """parse_rational with every string through the Fraction string parser,
    and the result normalised to the exactness contract: an int iff the
    value is integral, else a Fraction."""
    q = _fraction_oracle(value)
    return q.numerator if q.denominator == 1 else q


def _fraction_oracle(value) -> Fraction:
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


# ---------------------------------------------------------------------------
# square classes


def is_square_unit(q, p: int) -> bool:
    """Whether a unit of Z_p is a square; p odd (Hensel lifts the residue)."""
    if p == 2:
        raise UnsupportedPrimeError("square classes at p = 2 are not supported")
    _check_prime(p)
    q = Fraction(q)
    if q == 0 or _val(q, p) != 0:
        raise PreconditionError(f"{q} is not a unit at {p}")
    return legendre(_mod(q, p), p) == 1


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod an odd prime."""
    return next(r for r in range(2, p) if legendre(r, p) == -1)


def det_class(G: HermGram) -> tuple[int, bool]:
    """(pi-order of det, whether the pi0-normalized unit part is a square),
    from the rational determinant (oracle for the Jordan block data)."""
    d = G.check_nonsingular().det_rational()
    v = 2 * _val(d, G.ctx.p)
    return v, is_square_unit(d / G.ctx.pi0 ** (v // 2), G.ctx.p)


def scaled_gram(G: HermGram, u) -> HermGram:
    """Gram of the same basis with the form scaled by a rational unit u."""
    s = G.ctx.element(u)
    return HermGram([[x * s for x in row] for row in G.entries], G.ctx)


# ---------------------------------------------------------------------------
# Hilbert symbol oracle


def _strip_even_p_power(n: int, p: int) -> int:
    while n % (p * p) == 0:
        n //= p * p
    return n


def squarefree_deltas(lowest: int = -399) -> list[int]:
    """The squarefree integers in [lowest, -1], by trial division by squares."""
    return [d for d in range(lowest, 0) if all(d % (q * q) for q in range(2, isqrt(-lowest) + 1))]


def conic_has_primitive_zero(a, b, p: int) -> bool:
    """Search for a primitive zero of a x^2 + b y^2 = z^2 over Z/p^4 (odd p).

    Square denominators and even powers of p do not change solvability, so
    coefficients are first reduced to integers of valuation at most 1; any
    primitive solution can be scaled so that one coordinate equals 1, and a
    solution mod p^4 with a unit coordinate lifts to Z_p.
    """
    a, b = Fraction(a), Fraction(b)
    ai = _strip_even_p_power(a.numerator * a.denominator, p)
    bi = _strip_even_p_power(b.numerator * b.denominator, p)
    m = p**4
    squares = {z * z % m for z in range(m)}
    ai_m, bi_m = ai % m, bi % m
    # x = 1
    if any((ai_m + bi_m * y * y) % m in squares for y in range(m)):
        return True
    # y = 1
    if any((ai_m * x * x + bi_m) % m in squares for x in range(m)):
        return True
    # z = 1
    b_values = {bi_m * y * y % m for y in range(m)}
    return any((1 - ai_m * x * x) % m in b_values for x in range(m))


def hilbert_symbol_oracle(a, b, place) -> int:
    """The Hilbert symbol by the Fraction formula it had before it read
    valuations off numerators and denominators: both arguments as
    Fractions, the units a / p^alpha and b / p^beta by Fraction division."""
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
        u8, v8 = _mod(u, 8), _mod(v, 8)
        eps_u, eps_v = (u8 - 1) // 2 % 2, (v8 - 1) // 2 % 2
        omega_u, omega_v = (u8 * u8 - 1) // 8 % 2, (v8 * v8 - 1) // 8 % 2
        exponent = eps_u * eps_v + alpha * omega_v + beta * omega_u
    else:
        exponent = alpha * beta * ((p - 1) // 2)
        if legendre(_mod(u, p), p) == -1:
            exponent += beta
        if legendre(_mod(v, p), p) == -1:
            exponent += alpha
    return -1 if exponent % 2 else 1


# ---------------------------------------------------------------------------
# self-dual lattice oracle


def self_dual_oracle(T, delta: int, bound: int = DEFAULT_FACTOR_BOUND) -> bool | None:
    """Whether the Hermitian space of T has a self-dual lattice, by symbols;
    None when T is not positive definite (by its leading minors).

    At split and ramified primes the condition is automatic; at an inert prime
    p it reads (det T, delta)_p = 1, and only primes dividing 2 * det * delta
    can obstruct.  det T is factored before positivity is tested, as
    ``global_report`` does, so a factor bound fails the same matrices.
    """
    check_quadratic_field(delta, bound)
    det = HermGram(T).det_rational()
    assert det.denominator == 1  # T is integral
    primes = {2, *factorize(int(det), bound), *factorize(delta, bound)}
    if not positive_definite_oracle(T, delta):
        return None
    return all(
        _splitting(delta, p) != INERT or hilbert_symbol(det, delta, p) == 1 for p in primes
    )


# ---------------------------------------------------------------------------
# norm group oracle


def unit_norm_residues(ctx: RamifiedContext) -> set[int]:
    """Residues mod p^2 of norms of units of O_H, by enumeration."""
    m = ctx.p * ctx.p
    pi0 = ctx.pi0
    pi0_res = pi0.numerator * pow(pi0.denominator, -1, m) % m
    out = set()
    for a in range(m):
        if a % ctx.p == 0:
            continue
        for b in range(m):
            out.add((a * a - b * b * pi0_res) % m)
    return out


def is_norm_oracle(q, ctx: RamifiedContext, residues: set[int] | None = None) -> bool:
    """Norm membership decided by residue enumeration instead of symbols."""
    q = Fraction(q)
    v = _val(q, ctx.p)
    u = q / (-ctx.pi0) ** v
    m = ctx.p * ctx.p
    r = u.numerator * pow(u.denominator, -1, m) % m
    if residues is None:
        residues = unit_norm_residues(ctx)
    return r in residues


# ---------------------------------------------------------------------------
# standalone elementary divisors over O_H (for quotient-length cross-checks
# and the oracle's own dual basis)


def smith_diagonalize(M, cols=None):
    """Exponents e with O^n / M O^n = sum of O/pi^e, ascending, by naive
    diagonalization; ``cols`` (default: none) are columns D whose span of
    D * M must stay fixed.

    Every unimodular row operation E on M is mirrored as D <- D * E^-1, so
    the product D * M keeps its span; column operations never change it.
    Returns the exponents and the transformed columns, so that at the end
    span(D_k * pi^e_k) = span(D * M).
    """
    n = len(M)
    W = [row[:] for row in M]
    cols = list(cols) if cols is not None else [()] * n
    exps = []
    for k in range(n):
        best, best_ord = None, None
        for i in range(k, n):
            for j in range(k, n):
                o = W[i][j].ord()
                if best_ord is None or o < best_ord:
                    best, best_ord = (i, j), o
        i, j = best
        if i != k:
            W[i], W[k] = W[k], W[i]
            cols[i], cols[k] = cols[k], cols[i]
        if j != k:
            for row in W:
                row[j], row[k] = row[k], row[j]
        piv = W[k][k]
        for r in range(k + 1, n):
            if W[r][k].is_zero():
                continue
            q = W[r][k] / piv
            W[r] = [x - q * y for x, y in zip(W[r], W[k])]
            cols[k] = [x + q * y for x, y in zip(cols[k], cols[r])]
        for c in range(k + 1, n):
            if W[k][c].is_zero():
                continue
            q = W[k][c] / piv
            for r in range(k, n):
                W[r][c] = W[r][c] - q * W[r][k]
        exps.append(best_ord)
    if any(f2 < f1 for f1, f2 in zip(exps, exps[1:])):
        raise AssertionError("elementary divisors not ascending")
    return exps, cols


def elementary_divisor_exponents(M, ctx: RamifiedContext) -> list[int]:
    """Exponents e with O^n / M O^n = sum of O/pi^e."""
    return smith_diagonalize(M)[0]


def snf_dual_basis(L: HermLattice):
    """Columns spanning the dual of L and exponents f with dual*diag(pi^f) = L.

    L = dual * conj(Gram of L) (see HermLattice.dual), so diagonalizing the
    conjugate Gram with the dual's columns mirrored gives both.
    """
    n = L.n
    dual = L.dual()
    Y = [[x.conjugate() for x in row] for row in L.gram().entries]
    fs, dcols = smith_diagonalize(Y, [[dual.basis[i][j] for i in range(n)] for j in range(n)])
    return dcols, fs


# ---------------------------------------------------------------------------
# Fraction Jordan elimination (differential oracle for lattice._jordan_chunks,
# which runs modulo a power of p)


def _min_entry_ord(M):
    """Least order of the upper triangle, with its first diagonal and first
    off-diagonal position."""
    s, diag, offdiag = INFINITY, None, None
    n = len(M)
    for i in range(n):
        for j in range(i, n):
            o = M[i][j].ord()
            if o < s:
                s, diag, offdiag = o, None, None
            if o == s:
                if i == j:
                    if diag is None:
                        diag = i
                elif offdiag is None:
                    offdiag = (i, j)
    return s, diag, offdiag


def jordan_chunks_oracle(G: HermGram, vectors):
    """The pivoting of jordan_split in exact rationals, applying each basis
    change to ``vectors`` too (one coordinate vector per basis vector of G, possibly of length 0).
    Returns (scale, rational det, pivot block, pivot vectors) per pivot, scales
    ascending; the Gram of all the pivot vectors is the block diagonal."""
    M = [list(row) for row in G.entries]
    vecs = list(vectors)
    chunks = []
    while M:
        n = len(M)
        s, diag, offdiag = _min_entry_ord(M)
        if s is INFINITY:
            raise SingularMatrixError("Gram matrix is singular")
        if diag is None and s % 2 == 0:
            # fold e_i <- e_i + e_j to surface a diagonal entry of order s
            i, j = offdiag
            new_diag = M[i][i] + M[i][j] + M[j][i] + M[j][j]
            new_row = [
                M[i][k] + M[j][k] if k != i else new_diag for k in range(n)
            ]
            M[i] = new_row
            for k in range(n):
                if k != i:
                    M[k][i] = new_row[k].conjugate()
            vecs[i] = [x + y for x, y in zip(vecs[i], vecs[j])]
            if M[i][i].ord() != s:
                raise AssertionError("diagonal fold failed to attain the minimal order")
            diag = i
        if diag is not None:
            # e_k <- e_k - lambda_k e_i with lambda_k = M[k][i] / M[i][i]
            i = diag
            g = M[i][i]
            if g.b:
                raise AssertionError("diagonal pivot must be rational")
            chunks.append((s, g.a, [[g]], [vecs[i]]))
            others = [k for k in range(n) if k != i]
            ginv = g.inverse()
            lam = {k: M[k][i] * ginv for k in others}
            M = [[M[k][l] - lam[k] * M[i][l] for l in others] for k in others]
            vecs = [[x - lam[k] * y for x, y in zip(vecs[k], vecs[i])] for k in others]
            continue
        # odd minimal order, attained only off the diagonal: split a 2x2 block
        # by e_k <- e_k - alpha_k e_i - beta_k e_j
        i, j = offdiag
        s00, s01, s10, s11 = M[i][i], M[i][j], M[j][i], M[j][j]
        det2 = s00 * s11 - s01 * s10
        if det2.b:
            raise AssertionError("2x2 block determinant must be rational")
        chunks.append((s, det2.a, [[s00, s01], [s10, s11]], [vecs[i], vecs[j]]))
        dinv = det2.inverse()
        others = [k for k in range(n) if k != i and k != j]
        alphas = {k: (M[k][i] * s11 - M[k][j] * s10) * dinv for k in others}
        betas = {k: (M[k][j] * s00 - M[k][i] * s01) * dinv for k in others}
        M = [
            [M[k][l] - alphas[k] * M[i][l] - betas[k] * M[j][l] for l in others]
            for k in others
        ]
        vecs = [
            [x - alphas[k] * y - betas[k] * z for x, y, z in zip(vecs[k], vecs[i], vecs[j])]
            for k in others
        ]
    return chunks


def jordan_split_oracle(G: HermGram) -> JordanReport:
    """jordan_split by the exact rational elimination, with the determinant
    classes read off the products of the rational pivot determinants."""
    grouped: dict[int, list] = {}
    for scale, det, block, _ in jordan_chunks_oracle(G, [()] * G.n):
        acc = grouped.setdefault(scale, [0, Fraction(1)])
        acc[0] += len(block)
        acc[1] *= det
    ctx = G.ctx
    blocks = []
    p = ctx.p
    for scale in sorted(grouped):
        rank, det = grouped[scale]
        if scale % 2 and rank % 2:
            raise AssertionError("odd-modular block of odd rank")
        det_val = scale * rank
        if 2 * _val(det, p) != det_val:
            raise AssertionError("block determinant order mismatch")
        unit = det / ctx.pi0 ** (det_val // 2)
        sq = is_square_unit(unit, p)
        if scale % 2:
            split = True
        else:
            split = rank % 2 == 0 and is_square_unit(Fraction(-1) ** (rank // 2) * unit, p)
        blocks.append(JordanBlock(scale, rank, det_val, sq, split))
    return JordanReport(tuple(blocks))


# ---------------------------------------------------------------------------
# Fraction canonical bases and inclusion (oracles for the enumerator's modular
# HNF and its containment test)


def reduce_mod_p_power(q: Fraction, p: int, k: int) -> Fraction:
    """Canonical representative of q modulo p**k * Z_p.

    The representative is u * p**v with v = val_p(q) and u the residue of the
    unit part mod p**(k - v); it depends only on the class of q.
    """
    if not q:
        return Fraction(0)
    v = _val(q, p)
    if v >= k:
        return Fraction(0)
    return _mod(q / Fraction(p) ** v, p ** (k - v)) * Fraction(p) ** v


def reduce_mod_pi_power(x: OHElement, e: int) -> OHElement:
    """Canonical representative of x modulo pi**e * O_H.

    pi**e O_H = p**ceil(e/2) Z_p + p**floor(e/2) pi Z_p, so both coordinates
    reduce independently.
    """
    p = x.ctx.p
    return OHElement._raw(
        reduce_mod_p_power(x.a, p, (e + 1) // 2),
        reduce_mod_p_power(x.b, p, e // 2),
        x.ctx,
    )


def hnf_canonicalize(L: HermLattice) -> HermLattice:
    """Canonical upper-triangular basis over the valuation ring O_H.

    Pivots are exact powers of pi on the diagonal, entries below vanish and
    the remaining entries of each pivot row are reduced to the canonical
    fundamental domain modulo the pivot.  Two bases spanning the same lattice
    produce identical output.
    """
    ctx = L.ctx
    n = L.n
    cols = [[L.basis[i][j] for i in range(n)] for j in range(n)]
    for i in range(n - 1, -1, -1):
        best, best_ord = None, INFINITY
        for j in range(i + 1):
            o = cols[j][i].ord()
            if o < best_ord:
                best, best_ord = j, o
        if best is None or best_ord is INFINITY:
            raise SingularMatrixError("basis matrix is singular")
        if best != i:
            cols[best], cols[i] = cols[i], cols[best]
        e = best_ord
        unit = pi_power(ctx, e) / cols[i][i]
        cols[i] = [unit * x for x in cols[i]]
        piv_inv = pi_power(ctx, -e)
        for j in range(i):
            if cols[j][i].is_zero():
                continue
            q = cols[j][i] * piv_inv
            cols[j] = [x - q * y for x, y in zip(cols[j], cols[i])]
        for j in range(i + 1, n):
            x = cols[j][i]
            q = (x - reduce_mod_pi_power(x, e)) * piv_inv
            if q.is_zero():
                continue
            cols[j] = [x - q * y for x, y in zip(cols[j], cols[i])]
    basis = [[cols[j][i] for j in range(n)] for i in range(n)]
    return HermLattice(L.ambient, basis)


def contains(big: HermLattice, small: HermLattice) -> bool:
    """Exact inclusion test small <= big: big^-1 * small is integral."""
    if big.ambient != small.ambient:
        raise PreconditionError("lattices live in different ambient spaces")
    X = mat_mul(mat_inverse(big.basis_rows(), big.ctx), small.basis_rows())
    return mat_is_integral(X)


def same_lattice(A: HermLattice, B: HermLattice) -> bool:
    return contains(A, B) and contains(B, A)


# ---------------------------------------------------------------------------
# leading-minor positivity (oracle for global_cycles.is_positive_definite)


def positive_definite_oracle(T, delta: int) -> bool:
    """All leading principal minors of the rows T positive (they are exact
    rationals)."""
    G = HermGram(T, QuadContext(delta))
    for k in range(1, G.n + 1):
        minor = mat_det([list(row[:k]) for row in G.entries[:k]], G.ctx)
        if minor.a <= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# trial-division factorization (differential oracle for padic.factorize,
# which splits by Brent's rho)


def factorize_oracle(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> dict[int, int]:
    """Factor by trial division by 2, 3 and every 6k +- 1 up to
    min(sqrt(n), bound); a leftover is kept only when it is at most bound**2
    or certified prime by Miller-Rabin below _MR_LIMIT."""
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
    f = 5
    while f * f <= n and f <= bound:
        for p in (f, f + 2):
            if n % p == 0:
                out[p], n = _count_factor(n, p)
        f += 6
    if n > 1:
        if n <= bound * bound or (n < _MR_LIMIT and is_prime(n)):
            out[n] = out.get(n, 0) + 1
        else:
            raise FactorizationLimitError(
                f"unfactored remainder {n} beyond trial bound {bound}"
            )
    return dict(sorted(out.items()))


def trial_limit(bound: int) -> int:
    """The last divisor that factorize_oracle tries at ``bound``."""
    return 3 if bound < 5 else bound - (bound - 5) % 6 + 2


def factor_outcome(factor, n: int, bound: int):
    """factor(n, bound), or the type and message of the error it raises."""
    try:
        return factor(n, bound)
    except (PreconditionError, FactorizationLimitError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# random generators


def rand_unit(rng: random.Random, p: int) -> Fraction:
    num = rng.choice([n for n in range(-3 * p, 3 * p + 1) if n and n % p])
    den = rng.choice([n for n in range(1, 2 * p + 1) if n % p])
    return Fraction(num, den)


def rand_rational(rng: random.Random, p: int, min_val=0, max_val=2, zero_chance=0.2):
    if rng.random() < zero_chance:
        return Fraction(0)
    return rand_unit(rng, p) * Fraction(p) ** rng.randint(min_val, max_val)


def rand_oh(rng: random.Random, ctx: RamifiedContext, min_val=0, max_val=1) -> OHElement:
    return OHElement(
        rand_rational(rng, ctx.p, min_val, max_val),
        rand_rational(rng, ctx.p, min_val, max_val),
        ctx,
    )


def random_hermitian_gram(
    rng: random.Random, ctx: RamifiedContext, n: int, min_val=0, max_val=1
) -> HermGram:
    """Random nonsingular integral Hermitian Gram with small entry orders."""
    while True:
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = OHElement(
                rand_rational(rng, ctx.p, min_val, max_val, zero_chance=0.3),
                Fraction(0),
                ctx,
            )
            for j in range(i + 1, n):
                rows[i][j] = rand_oh(rng, ctx, min_val, max_val)
                rows[j][i] = rows[i][j].conjugate()
        G = HermGram(rows, ctx)
        if not G.det().is_zero():
            return G


def random_basis_change(rng: random.Random, ctx: RamifiedContext, n: int):
    """Random element of GL_n(O_H): unit diagonal x unipotents x permutation."""
    diag = [
        [
            OHElement(rand_unit(rng, ctx.p), rand_rational(rng, ctx.p), ctx)
            if i == j
            else ctx.zero()
            for j in range(n)
        ]
        for i in range(n)
    ]
    upper = [
        [
            ctx.one()
            if i == j
            else (rand_oh(rng, ctx) if i < j else ctx.zero())
            for j in range(n)
        ]
        for i in range(n)
    ]
    lower = [
        [
            ctx.one()
            if i == j
            else (rand_oh(rng, ctx) if i > j else ctx.zero())
            for j in range(n)
        ]
        for i in range(n)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[ctx.one() if perm[i] == j else ctx.zero() for j in range(n)] for i in range(n)]
    return mat_mul(mat_mul(mat_mul(diag, upper), lower), P)


def transformed_gram(G: HermGram, U) -> HermGram:
    """Gram of the same lattice expressed in the changed basis U."""
    M = [list(row) for row in G.entries]
    return HermGram(mat_mul(mat_mul(mat_transpose(U), M), mat_conj(U)), G.ctx)


# ---------------------------------------------------------------------------
# the shared verification family


def acceptance_family(include_h13_primes=(3,)):
    """The exhaustive small-instance family: (label, ctx, gram) triples."""
    for p in (3, 5):
        for eps in (1, -1):
            ctx = RamifiedContext(p, Fraction(eps))
            pi0 = ctx.pi0
            r = smallest_nonresidue(p)
            for a1 in range(3):
                for a2 in range(3):
                    for u1 in (1, r):
                        for u2 in (1, r):
                            label = f"p{p},eps{eps}:diag(pi0^{a1}*{u1}, pi0^{a2}*{u2})"
                            yield label, ctx, diagonal_gram(
                                ctx, [pi0**a1 * u1, pi0**a2 * u2]
                            )
            h1 = hyperbolic_gram(ctx, 1)
            yield f"p{p},eps{eps}:H(1)", ctx, h1
            yield f"p{p},eps{eps}:H(3)", ctx, hyperbolic_gram(ctx, 3)
            yield f"p{p},eps{eps}:H(1)+(1)", ctx, orthogonal_sum(h1, diagonal_gram(ctx, [1]))
            yield f"p{p},eps{eps}:H(1)+(pi0)", ctx, orthogonal_sum(
                h1, diagonal_gram(ctx, [pi0])
            )
            yield f"p{p},eps{eps}:H(1)+(pi0*r)", ctx, orthogonal_sum(
                h1, diagonal_gram(ctx, [pi0 * r])
            )
            if p in include_h13_primes:
                yield f"p{p},eps{eps}:H(1)+H(3)", ctx, orthogonal_sum(
                    h1, hyperbolic_gram(ctx, 3)
                )


def block_sum_family(primes=(3, 5), epsilons=(1, -1, Fraction(1, 2))):
    """Orthogonal sums of rank at most 4 of unit and pi0-scaled diagonal
    entries and hyperbolic planes H(0) to H(3), as (label, ctx, gram).

    H(0) and H(2) make the Jordan elimination fold, H(1) and H(3) split off
    rank-2 blocks."""
    for p in primes:
        for eps in epsilons:
            ctx = RamifiedContext(p, Fraction(eps))
            pi0, r = ctx.pi0, smallest_nonresidue(p)
            h = [hyperbolic_gram(ctx, i) for i in range(4)]

            def d(*values):
                return diagonal_gram(ctx, values)

            sums = {
                "(1)": d(1),
                "(pi0*r)": d(pi0 * r),
                "H(1)": h[1],
                "H(2)": h[2],
                "(1)+(pi0)": d(1, pi0),
                "H(1)+(1)": orthogonal_sum(h[1], d(1)),
                "H(0)+(pi0)": orthogonal_sum(h[0], d(pi0)),
                "H(1)+H(3)": orthogonal_sum(h[1], h[3]),
                "H(2)+(pi0)+(1)": orthogonal_sum(h[2], d(pi0, 1)),
                "(1)+(r)+(pi0)+(pi0^2*r)": d(1, r, pi0, pi0**2 * r),
            }
            for label, gram in sums.items():
                yield f"p{p},eps{eps}:{label}", ctx, gram


def scaled_lattice(L: HermLattice, e: int) -> HermLattice:
    """The lattice pi^e * L."""
    s = pi_power(L.ctx, e)
    return HermLattice(L.ambient, [[x * s for x in row] for row in L.basis])


# ---------------------------------------------------------------------------
# the candidate count in closed form (completeness oracle for the walk of
# hermcycles.vertices)


def _gaussian_binomial(n: int, k: int, p: int) -> int:
    """[n choose k]_p, the number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def birkhoff_count(fs, p: int) -> int:
    """The number of O_H-submodules of M = sum of O_H / pi^(f_i) of length in
    [d - hi, d - lo], d = sum f, lo = max(0, ceil((d - n)/2)), hi = floor(d/2),
    on pure ints: the candidates V of the enumerator, as V/L <= L^#/L = M
    has length d minus the sum of V's pivot exponents (the walk's window).

    M is a finite module over the DVR O_H with residue field F_p, of type
    the partition lam = sorted f.  Its submodules of type mu, mu <= lam,
    number prod over i of p^(mu'_(i+1) * (lam'_i - mu'_i)) times [lam'_i -
    mu'_(i+1) choose mu'_i - mu'_(i+1)]_p, primes marking conjugate
    partitions (Birkhoff 1935; Butler, Mem. AMS 539, 1994).  It shares
    nothing with the walk's triangular scheme."""
    lam = sorted(fs, reverse=True)
    n, d = len(lam), sum(lam)
    lo, hi = max(0, (d - n + 1) // 2), d // 2

    def conjugate(part):
        return [sum(x >= i for x in part) for i in range(1, lam[0] + 2)]

    lam_c, total = conjugate(lam), 0
    for mu in product(*(range(x + 1) for x in lam)):
        if any(x < y for x, y in zip(mu, mu[1:])) or not d - hi <= sum(mu) <= d - lo:
            continue
        mu_c, term = conjugate(mu), 1
        for i in range(lam[0]):
            low = mu_c[i + 1]
            term *= p ** (low * (lam_c[i] - mu_c[i])) * _gaussian_binomial(lam_c[i] - low, mu_c[i] - low, p)
        total += term
    return total


def completed_candidates(L: HermLattice, bounds: EnumerationBounds) -> int:
    """The candidates ``enumerate_vertices(L, bounds)`` completes: at rank 2
    and up the residues its last slot asks _last_diagonal's ``vanishes``
    about, at rank 1 (no slot) its _is_vertex calls."""
    calls = [0]
    last_diagonal, is_vertex = vertices._last_diagonal, vertices._is_vertex

    def counting_last_diagonal(*args):
        vanishes = last_diagonal(*args)

        def counted(za, zb):
            calls[0] += 1
            return vanishes(za, zb)

        return counted

    def counting_is_vertex(Z, *args):
        calls[0] += len(Z) == 1
        return is_vertex(Z, *args)

    with patch.object(vertices, "_last_diagonal", counting_last_diagonal):
        with patch.object(vertices, "_is_vertex", counting_is_vertex):
            vertices.enumerate_vertices(L, bounds)
    return calls[0]


# ---------------------------------------------------------------------------
# Fraction vertex enumerator (differential oracle for hermcycles.vertices)


def _oracle_candidates(fs, ctx: RamifiedContext, max_candidates: int, tally: list):
    """Canonical triangular bases Z between L and its dual, as OHElements.

    Walks every residue of every slot in turn and checks each back-substituted
    entry of Z^-1 * diag(pi^f) for integrality, counting residues in
    ``tally[0]``.
    """
    n = len(fs)
    reps = {}
    for e in range(max(fs) + 1):
        reps[e] = [
            OHElement(a, b, ctx)
            for a in range(ctx.p ** ((e + 1) // 2))
            for b in range(ctx.p ** (e // 2))
        ]
    zero = ctx.zero()
    Z = [[zero] * n for _ in range(n)]
    X = [[zero] * n for _ in range(n)]
    d = sum(fs)
    lo, hi = max(0, (d - n + 1) // 2), d // 2
    budget = [sum(fs[:i]) for i in range(n)]

    def rec_row(i, pivot_sum):
        if i < 0:
            yield [row[:] for row in Z]
            return
        row = Z[i]
        for e in range(fs[i] + 1):
            total = pivot_sum + e
            if total > hi:
                break
            if total + budget[i] < lo:
                continue
            row[i] = pi_power(ctx, e)
            X[i][i] = pi_power(ctx, fs[i] - e)
            yield from rec_slot(i, i + 1, e, pi_power(ctx, -e), total)
        for j in range(i, n):
            row[j] = zero

    def rec_slot(i, j, e, piv_inv, pivot_sum):
        if j == n:
            yield from rec_row(i - 1, pivot_sum)
            return
        row = Z[i]
        for z in reps[e]:
            tally[0] += 1
            if tally[0] > max_candidates:
                raise EnumerationLimitError(
                    f"candidate count exceeded {max_candidates}", count=tally[0]
                )
            row[j] = z
            acc = ctx.zero()
            for k in range(i + 1, j + 1):
                acc = acc + row[k] * X[k][j]
            if acc.ord() < e:
                continue
            X[i][j] = -(acc * piv_inv)
            yield from rec_slot(i, j + 1, e, piv_inv, pivot_sum)

    yield from rec_row(n - 1, 0)


def _oracle_vertex_type(Z, gram_dual, ctx: RamifiedContext):
    """-ord det of the candidate Gram when it is a vertex lattice, else None."""
    gram = mat_mul(mat_mul(mat_transpose(Z), gram_dual), mat_conj(Z))
    if any(x.ord() < -1 for row in gram for x in row):
        return None
    if not mat_is_integral(mat_inverse(gram, ctx)):
        return None
    return -mat_det(gram, ctx).ord()


def oracle_vertex_census(L: HermLattice, bounds: EnumerationBounds):
    """``enumerate_vertices(L, bounds).to_json()`` computed on exact rationals,
    and the number of candidate residues visited.

    Shares no code past ``L.dual()`` with the enumerator: the dual basis
    (``snf_dual_basis``, a Smith form where the enumerator takes a Jordan
    basis of L^#), candidates, the vertex test (Fraction inverse and
    determinant) and the containment test (integrality of Z_b^-1 * Z_a) are
    its own.
    """
    if not L.gram().is_integral():
        raise NonIntegralLatticeError("lattice does not pair integrally with itself")
    if L.n > bounds.max_rank:
        raise EnumerationLimitError(f"rank {L.n} exceeds enumeration bound {bounds.max_rank}")
    ctx, n = L.ctx, L.n
    dcols, fs = snf_dual_basis(L)
    if max(fs) > bounds.max_scale:
        raise EnumerationLimitError(f"Jordan scale {max(fs)} exceeds enumeration bound")
    dual_mat = [[dcols[j][i] for j in range(n)] for i in range(n)]
    amb = [list(row) for row in L.ambient.entries]
    gram_dual = mat_mul(mat_mul(mat_transpose(dual_mat), amb), mat_conj(dual_mat))
    tally = [0]
    decorated = []
    for Z in _oracle_candidates(fs, ctx, bounds.max_candidates, tally):
        t = _oracle_vertex_type(Z, gram_dual, ctx)
        if t is None:
            continue
        lat = hnf_canonicalize(HermLattice(L.ambient, mat_mul(dual_mat, Z)))
        basis = tuple(tuple((str(x.a), str(x.b)) for x in row) for row in lat.basis)
        decorated.append(((t, basis), Vertex(t, basis, L.ambient), Z))
    decorated.sort(key=lambda item: item[0])
    vertices = [item[1] for item in decorated]
    mats = [item[2] for item in decorated]
    inverses = [mat_inverse(Z, ctx) for Z in mats]
    edges = [  # V_a < V_b puts V_b^# < V_a^#, so the type grows strictly
        (a, b)
        for a in range(len(mats))
        for b in range(len(mats))
        if vertices[a].type < vertices[b].type
        and mat_is_integral(mat_mul(inverses[b], mats[a]))
    ]
    max_type = max((v.type for v in vertices), default=-1)
    census = {
        "vertices": [
            {"basis": [[{"a": x, "b": y} for x, y in row] for row in v.basis], "type": v.type}
            for v in vertices
        ],
        "poset_edges": [list(e) for e in edges],
        "max_type": max_type,
        "max_count": sum(1 for v in vertices if v.type == max_type),
    }
    return census, tally[0]


def verify_report_oracle(vs, p: int) -> dict:
    """``verify_structure_theorems(L).to_json()`` for the census ``vs`` of L,
    with every check loop run on the census as printed (``vs.vertices`` and
    ``vs.poset_edges``), where the package checks the walk order and names
    the census only to word a failure."""
    inv = invariants_from_report(vs.jordan, p)
    counterexamples = []

    max_type_matches = vs.max_type == inv.t
    if not max_type_matches:
        counterexamples.append(
            f"formula t = {inv.t} but enumeration found max type {vs.max_type}"
        )

    edge_set = set(vs.poset_edges)
    above: dict[int, list[int]] = {}
    for a, b in vs.poset_edges:
        above.setdefault(a, []).append(b)
    saturation = True
    for i, v in enumerate(vs.vertices):
        if v.type == vs.max_type:
            continue
        if not any(vs.vertices[j].type == vs.max_type for j in above.get(i, ())):
            saturation = False
            counterexamples.append(
                f"vertex {i} (type {v.type}) lies in no maximal-type vertex"
            )

    predicted_unique = bool(inv.irreducible)
    uniqueness_matches = (vs.max_count == 1) == predicted_unique
    if not uniqueness_matches:
        counterexamples.append(
            f"predicted unique={predicted_unique} but {vs.max_count} maximal vertices"
        )

    all_types_even = all(v.type % 2 == 0 for v in vs.vertices)
    if not all_types_even:
        counterexamples.append("odd vertex type found")

    poset_transitive = True
    for a, b in vs.poset_edges:
        for d in above.get(b, ()):
            if a != d and (a, d) not in edge_set:
                poset_transitive = False
                counterexamples.append(f"missing transitive edge ({a},{d})")

    passed = (
        max_type_matches and saturation and uniqueness_matches and all_types_even and poset_transitive
    )
    return {
        "formula_t": inv.t,
        "max_type": vs.max_type,
        "max_count": vs.max_count,
        "predicted_unique": predicted_unique,
        "max_type_matches": max_type_matches,
        "saturation": saturation,
        "uniqueness_matches": uniqueness_matches,
        "all_types_even": all_types_even,
        "poset_transitive": poset_transitive,
        "passed": passed,
        "counterexamples": counterexamples,
    }
