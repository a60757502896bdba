"""Shared test helpers: independent oracles and random generators.

The oracles here deliberately avoid the code paths they check: the Hilbert
symbol is compared against a primitive-solution search for the conic
a x^2 + b y^2 = z^2 over Z/p^4, norm membership against an enumeration of
norm residues, self-duality against the Hilbert symbols at the inert primes,
and module lengths against a standalone elementary-divisor routine.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hermcycles import (
    HermGram,
    HermLattice,
    OHElement,
    RamifiedContext,
    diagonal_gram,
    hyperbolic_gram,
    orthogonal_sum,
    smallest_nonresidue,
)
from hermcycles.errors import (
    EnumerationLimitError,
    NonIntegralLatticeError,
    PreconditionError,
)
from hermcycles.lattice import (
    mat_conj,
    mat_det,
    mat_inverse,
    mat_is_integral,
    mat_mul,
    mat_transpose,
)
from hermcycles.global_cycles import is_positive_definite
from hermcycles.padic import (
    DEFAULT_FACTOR_BOUND,
    INERT,
    _val,
    check_quadratic_field,
    hilbert_symbol,
    rational_factorization,
    splitting_type,
)
from hermcycles.ramified import pi_power
from hermcycles.vertices import EnumerationBounds, Vertex, VertexSet, _snf_dual_basis


# ---------------------------------------------------------------------------
# Hilbert symbol oracle


def _strip_even_p_power(n: int, p: int) -> int:
    while n % (p * p) == 0:
        n //= p * p
    return n


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


# ---------------------------------------------------------------------------
# self-dual lattice oracle


def self_dual_oracle(T, delta: int, bound: int = DEFAULT_FACTOR_BOUND) -> bool:
    """Whether the Hermitian space of T has a self-dual lattice, by symbols.

    At split and ramified primes the condition is automatic; at an inert prime
    p it reads (det T, delta)_p = 1, and only primes dividing 2 * det * delta
    can obstruct.  Raises what ``self_dual_exists`` raises, in the same order.
    """
    check_quadratic_field(delta, bound)
    if not is_positive_definite(T, delta):
        raise PreconditionError("matrix must be positive definite")
    det = HermGram(T).det_rational()
    primes = {2}
    primes.update(rational_factorization(det, bound))
    primes.update(rational_factorization(delta, bound))
    for p in sorted(primes):
        if splitting_type(delta, p, bound) != INERT:
            continue
        if hilbert_symbol(det, delta, p) != 1:
            return False
    return True


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
# standalone elementary divisors over O_H (for quotient-length cross-checks)


def elementary_divisor_exponents(M, ctx: RamifiedContext) -> list[int]:
    """Exponents e with O^n / M O^n = sum of O/pi^e, by naive diagonalization."""
    n = len(M)
    W = [row[:] for row in M]
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
        if j != k:
            for row in W:
                row[j], row[k] = row[k], row[j]
        piv = W[k][k]
        for r in range(k + 1, n):
            if W[r][k].is_zero():
                continue
            q = W[r][k] / piv
            W[r] = [x - q * y for x, y in zip(W[r], W[k])]
        for c in range(k + 1, n):
            if W[k][c].is_zero():
                continue
            q = W[k][c] / piv
            for r in range(k, n):
                W[r][c] = W[r][c] - q * W[r][k]
        exps.append(best_ord)
    return exps


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


def scaled_lattice(L: HermLattice, e: int) -> HermLattice:
    """The lattice pi^e * L."""
    s = pi_power(L.ctx, e)
    return HermLattice(L.ambient, [[x * s for x in row] for row in L.basis])


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

    Shares only the dual basis (``_snf_dual_basis``) with the enumerator:
    candidates, the vertex test (Fraction inverse and determinant) and the
    containment test (integrality of Z_b^-1 * Z_a) are its own.
    """
    if not L.gram().is_integral():
        raise NonIntegralLatticeError("lattice does not pair integrally with itself")
    if L.n > bounds.max_rank:
        raise EnumerationLimitError(f"rank {L.n} exceeds enumeration bound {bounds.max_rank}")
    ctx, n = L.ctx, L.n
    dcols, fs = _snf_dual_basis(L)
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
        lat = HermLattice(L.ambient, mat_mul(dual_mat, Z)).canonical()
        key = tuple((str(x.a), str(x.b)) for row in lat.basis for x in row)
        decorated.append(((t, key), Vertex(lat, t), Z))
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
    max_count = sum(1 for v in vertices if v.type == max_type)
    census = VertexSet(tuple(vertices), tuple(edges), max_type, max_count)
    return census.to_json(), tally[0]
