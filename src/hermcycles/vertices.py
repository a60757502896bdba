"""Brute-force enumeration of the vertex lattices supporting an integral lattice.

A vertex lattice satisfies pi*V <= V_dual <= V; the lattice L supports V when
L <= V_dual, which pins every such V between L and its dual.  The oracle walks
all intermediate lattices through their canonical triangular bases (pivot
exponents bounded by the elementary divisors of L inside its dual), filters by
the exact vertex conditions, and reports types, counts and the full inclusion
poset.  It exists to double-check the closed-form invariants on small
instances, so correctness beats speed throughout.

All of that work lives in the finite module L^#/L, so from the dual basis
through the canonical bases of the vertices found it runs on pairs of Python
ints modulo a power of p, where the arithmetic is exact (see _Quotient);
tests/support.py keeps the exact-rational enumerator it replaced as an
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cycles import CycleInvariants, cycle_invariants
from .errors import EnumerationLimitError, NonIntegralLatticeError
from .lattice import HermLattice, mat_conj, mat_mul, mat_transpose
from .lattice import mat_inverse  # noqa: F401  kept: bench/test_bench.py checks the tracer wraps it here
from .padic import _val
from .ramified import OHElement, RamifiedContext, pi_power


@dataclass(frozen=True)
class EnumerationBounds:
    max_rank: int = 3
    max_scale: int = 3
    max_candidates: int = 10_000_000


@dataclass(frozen=True)
class Vertex:
    lattice: HermLattice
    type: int

    def to_json(self):
        return {"basis": self.lattice.to_json()["basis"], "type": self.type}


@dataclass(frozen=True)
class VertexSet:
    vertices: tuple[Vertex, ...]
    poset_edges: tuple[tuple[int, int], ...]
    max_type: int
    max_count: int

    def types(self) -> list[int]:
        return [v.type for v in self.vertices]

    def to_json(self):
        return {
            "vertices": [v.to_json() for v in self.vertices],
            "poset_edges": [list(e) for e in self.poset_edges],
            "max_type": self.max_type,
            "max_count": self.max_count,
        }


def _snf_dual_basis(L: HermLattice):
    """Columns spanning the dual of L and exponents f with dual*diag(pi^f) = L.

    Diagonalizes the inclusion matrix of L in its dual (which is the conjugate
    Gram matrix) by unimodular row and column operations, mirroring the row
    operations into the dual basis so the product keeps spanning L.
    """
    ctx = L.ctx
    n = L.n
    dual = L.dual()
    dcols = [[dual.basis[i][j] for i in range(n)] for j in range(n)]
    Y = [[x.conjugate() for x in row] for row in L.gram().entries]
    fs = []
    for k in range(n):
        best, best_ord = None, None
        for i in range(k, n):
            for j in range(k, n):
                o = Y[i][j].ord()
                if best_ord is None or o < best_ord:
                    best, best_ord = (i, j), o
        i, j = best
        e = best_ord
        if i != k:
            Y[i], Y[k] = Y[k], Y[i]
            dcols[i], dcols[k] = dcols[k], dcols[i]
        if j != k:
            for row in Y:
                row[j], row[k] = row[k], row[j]
        unit = pi_power(ctx, e) / Y[k][k]
        if unit != 1:
            Y[k] = [unit * x for x in Y[k]]
            inv = unit.inverse()
            dcols[k] = [inv * x for x in dcols[k]]
        piv_inv = pi_power(ctx, -e)
        for r in range(k + 1, n):
            if Y[r][k].is_zero():
                continue
            q = Y[r][k] * piv_inv
            Y[r] = [x - q * y for x, y in zip(Y[r], Y[k])]
            dcols[k] = [x + q * y for x, y in zip(dcols[k], dcols[r])]
        for c in range(k + 1, n):
            if Y[k][c].is_zero():
                continue
            q = Y[k][c] * piv_inv
            for r in range(k, n):
                Y[r][c] = Y[r][c] - q * Y[r][k]
        fs.append(e)
    if any(f2 < f1 for f1, f2 in zip(fs, fs[1:])):
        raise AssertionError("elementary divisors not ascending")
    return dcols, fs


def _residue(q: Fraction, m: int) -> int:
    """The residue modulo m of a rational whose denominator is prime to m."""
    return q.numerator * pow(q.denominator, -1, m) % m


def _int_val(c: int, p: int, cap: int) -> int:
    """val_p(c), capped at cap (so 0 reads as cap)."""
    v = 0
    while v < cap and c % p == 0:
        c //= p
        v += 1
    return v


class _Quotient:
    """O_H / p^K on pairs of ints (a, b) = a + b*pi reduced modulo p^K.

    Reduction modulo p^K O_H = pi^(2K) O_H is a ring map, so sums and products
    of integral elements stay exact; every rational that enters (entries,
    pi0 = eps*p, eps**-1) is reduced through the inverse of its denominator.
    Division by pi^e of an element of order >= e costs precision: a pair
    known modulo pi^P gives the quotient modulo pi^(P - e), and its order is
    decided correctly up to P.  Callers bound the total division by 2K.
    """

    __slots__ = ("p", "k", "m", "pi0", "eps", "inv_eps")

    def __init__(self, ctx: RamifiedContext, k: int):
        self.p = ctx.p
        self.k = k
        self.m = ctx.p**k
        self.pi0 = _residue(ctx.pi0, self.m)
        self.eps = _residue(ctx.eps, self.m)
        self.inv_eps = pow(self.eps, -1, self.m)

    def reduce(self, x) -> tuple[int, int]:
        return _residue(x.a, self.m), _residue(x.b, self.m)

    def pi_power(self, e: int) -> tuple[int, int]:
        s = pow(self.pi0, e // 2, self.m)
        return (0, s) if e % 2 else (s, 0)

    def mul(self, x, y) -> tuple[int, int]:
        (xa, xb), (ya, yb), m = x, y, self.m
        return (xa * ya + xb * yb * self.pi0) % m, (xa * yb + xb * ya) % m

    def ord(self, x) -> int:
        """pi-order of a + b*pi, read as at least 2K when both vanish modulo p^K."""
        va, vb = (_int_val(c, self.p, self.k) for c in x)
        return min(2 * va, 2 * vb + 1)

    def has_order(self, x, e: int) -> bool:
        """ord(a + b*pi) >= e: p^ceil(e/2) divides a and p^floor(e/2) divides b."""
        return x[0] % self.p ** ((e + 1) // 2) == 0 and x[1] % self.p ** (e // 2) == 0

    def div_pi_power(self, x, e: int) -> tuple[int, int]:
        """x / pi^e for x of order >= e, from pi^-2 = eps^-1 / p and pi^-1 = pi / pi0."""
        a, b = x
        m = self.m
        if e >= 2:
            q = self.p ** (e // 2)
            u = pow(self.inv_eps, e // 2, m)
            a, b = a // q * u % m, b // q * u % m
        if e % 2:
            a, b = b, a // self.p * self.inv_eps % m
        return a, b


def _iter_candidates(fs, q: _Quotient, max_candidates: int):
    """All canonical triangular bases Z with L <= span(dual*Z) <= dual that
    can still be vertex lattices, as (pivot exponents, Z over O_H / p^K).

    Z is upper triangular with pivot pi**e_i at (i, i), 0 <= e_i <= f_i, and
    entries right of each pivot ranging over the residues a + b*pi modulo the
    pivot (0 <= a < p^ceil(e_i/2), 0 <= b < p^floor(e_i/2)).  Rows are filled
    bottom-up and entries left to right.  The back-substituted solution X of
    Z*X = diag(pi^f) only depends on entries already placed: slot (i, j) adds
    Z[i][j] * pi^g, g = f_j - e_j, to a sum s fixed by the entries left of
    it, and X[i][j] = -(s + Z[i][j] * pi^g) / pi^e_i must be integral.  So the
    residues that pass are solved for rather than searched: none, or all
    those congruent to -s / pi^g modulo pi^(e_i - g).  Every residue of every
    slot reached still counts against ``max_candidates``.

    A vertex has type between 0 and the rank, which pins the pivot-exponent
    sum to the window [(d - n)/2, d/2] with d the order of det L; pivot
    choices outside the window are skipped up front.

    Precision: X[j][j] = pi^(f_j - e_j) is exact and X[i][j] divides by
    pi^e_i, so s at slot (i, j) is known modulo pi^(2K - e_(i+1) - ... -
    e_(j-1)).  Deciding whether it has order e_i then needs
    2K >= e_i + ... + e_(j-1), which 2K >= d = f_1 + ... + f_n guarantees.
    """
    n = len(fs)
    p, m, pi0 = q.p, q.m, q.pi0
    Z = [[(0, 0)] * n for _ in range(n)]
    X = [[(0, 0)] * n for _ in range(n)]
    es = [0] * n
    d = sum(fs)
    lo, hi = max(0, (d - n + 1) // 2), d // 2
    budget = [sum(fs[:i]) for i in range(n)]  # max addable by the rows above i
    count = 0

    def rec_row(i, pivot_sum):
        if i < 0:
            yield tuple(es), [row[:] for row in Z]
            return
        for e in range(fs[i] + 1):
            total = pivot_sum + e
            if total > hi:
                break
            if total + budget[i] < lo:
                continue
            es[i] = e
            Z[i][i] = q.pi_power(e)
            X[i][i] = q.pi_power(fs[i] - e)
            yield from rec_slot(i, i + 1, total)

    def rec_slot(i, j, pivot_sum):
        nonlocal count
        if j == n:
            yield from rec_row(i - 1, pivot_sum)
            return
        e = es[i]
        count += p**e
        if count > max_candidates:
            # the (max_candidates + 1)-th residue falls in this slot
            raise EnumerationLimitError(
                f"candidate count exceeded {max_candidates}", count=max_candidates + 1
            )
        row = Z[i]
        sa = sb = 0
        for k in range(i + 1, j):
            za, zb = row[k]
            xa, xb = X[k][j]
            sa += za * xa + zb * xb * pi0
            sb += za * xb + zb * xa
        neg_s = (-sa % m, -sb % m)
        g = fs[j] - es[j]
        h = max(0, e - g)  # Z[i][j] is pinned modulo pi^h
        if not q.has_order(neg_s, e - h):
            return
        a0, b0 = q.div_pi_power(neg_s, e - h)
        step_a, step_b = p ** ((h + 1) // 2), p ** (h // 2)
        ga, gb = q.pi_power(g)
        for a in range(a0 % step_a, p ** ((e + 1) // 2), step_a):
            for b in range(b0 % step_b, p ** (e // 2), step_b):
                row[j] = (a, b)
                acc = ((neg_s[0] - a * ga - b * gb * pi0) % m, (neg_s[1] - a * gb - b * ga) % m)
                X[i][j] = q.div_pi_power(acc, e)
                yield from rec_slot(i, j + 1, pivot_sum)

    yield from rec_row(n - 1, 0)


def _eliminate_units(NX, NY, rows, cols, p: int) -> int:
    """Eliminate the unit pivots of N = NX + NY*pi over F_p[pi]/(pi^2), in place.

    Each pivot's row and column leave ``rows`` and ``cols``; the Schur
    complement stays behind, with NX = 0 on it once no unit is left.
    Returns the number of pivots.
    """
    found = 0
    while True:
        piv = next(((i, j) for i in rows for j in cols if NX[i][j]), None)
        if piv is None:
            return found
        i, j = piv
        rows.remove(i)
        cols.remove(j)
        ux = pow(NX[i][j], -1, p)
        uy = -NY[i][j] * ux * ux  # the pivot's inverse is ux + uy*pi
        for k in rows:
            ax, ay = NX[k][j], NY[k][j]
            fx, fy = ax * ux % p, (ax * uy + ay * ux) % p
            if fx or fy:
                for c in cols:
                    bx = NX[i][c]
                    NX[k][c] = (NX[k][c] - fx * bx) % p
                    NY[k][c] = (NY[k][c] - fx * NY[i][c] - fy * bx) % p
        found += 1


def _vertex_type(Z, H, c: int, q: _Quotient):
    """Type of the candidate, or None when it is not a vertex lattice.

    The candidate Gram is M = Z^T * G# * conj(Z), with G# the Gram of the
    dual basis.  H = p^c * G# is integral and reduced modulo p^K, K >= c + 1,
    so S = p^c * M = Z^T * H * conj(Z) is exact modulo pi^(2c + 2).  A vertex
    needs every entry of M of order >= -1 (pi*V pairs integrally with V),
    that is S = 0 modulo pi^(2c - 1).  Then N = pi*M is integral and known
    modulo pi^2, which is all that matters: M^-1 = pi * N^-1 is integral (the
    dual sits inside V) exactly when every elementary divisor of N is 1 or
    pi.  Over F_p[pi]/(pi^2): once the r unit pivots of N are eliminated,
    the rest must be pi times a matrix invertible over F_p.  The type, minus
    the pi-order of det M = pi^-n * det N, is then n - (n - r) = r.
    """
    n = len(Z)
    p, m, pi0 = q.p, q.m, q.pi0
    pc, pc1 = p**c, p ** (c - 1)
    eps = q.eps % p
    P = [[None] * n for _ in range(n)]  # H * conj(Z), row a filled at step a
    NX = [[0] * n for _ in range(n)]
    NY = [[0] * n for _ in range(n)]
    for a in range(n):
        Ha, Pa = H[a], P[a]
        for b in range(a, n):  # column b of Z vanishes below row b
            sa = sb = 0
            for k in range(b + 1):
                ha, hb = Ha[k]
                za, zb = Z[k][b]
                sa += ha * za - hb * zb * pi0
                sb += hb * za - ha * zb
            Pa[b] = (sa % m, sb % m)
        for b in range(a, n):  # S is Hermitian, so its upper half decides
            sa = sb = 0
            for k in range(a + 1):
                za, zb = Z[k][a]
                xa, xb = P[k][b]
                sa += za * xa + zb * xb * pi0
                sb += za * xb + zb * xa
            if sa % pc or sb % pc1:
                return None
            # N = pi*S / p^c = eps * sb/p^(c-1) + (sa/p^c)*pi, and N^T = -conj(N)
            x, y = sb // pc1 * eps % p, sa // pc % p
            NX[a][b], NY[a][b] = x, y
            NX[b][a], NY[b][a] = -x % p, y
    rows, cols = list(range(n)), list(range(n))
    t = _eliminate_units(NX, NY, rows, cols, p)
    for i in rows:
        for j in cols:
            NX[i][j], NY[i][j] = NY[i][j], 0  # the rest of N, divided by pi
    _eliminate_units(NX, NY, rows, cols, p)
    if rows:
        return None
    if t % 2:
        raise AssertionError(f"vertex type {t} must be a nonnegative even integer")
    return t


def _contains(Zb, eb, Za, ea, q: _Quotient) -> bool:
    """Whether span(Za) <= span(Zb), for canonical triangular bases over O_H / p^K
    whose pivot exponents satisfy ea >= eb entrywise.

    Back-substitutes Zb * Y = Za column by column, stopping at the first
    non-integral entry: Y[j][j] = pi^(ea_j - eb_j), and Y[i][j] is
    (Za[i][j] - Zb[i][i+1] * Y[i+1][j] - ... - Zb[i][j] * Y[j][j]) / pi^eb_i.
    The divisions lose eb_1 + ... + eb_n <= d <= 2K digits of pi in all,
    as in _iter_candidates.
    """
    n = len(Za)
    m, pi0 = q.m, q.pi0
    for j in range(1, n):
        col = [None] * n
        col[j] = q.pi_power(ea[j] - eb[j])
        for i in range(j - 1, -1, -1):
            sa, sb = Za[i][j]
            row = Zb[i]
            for k in range(i + 1, j + 1):
                za, zb = row[k]
                ya, yb = col[k]
                sa -= za * ya + zb * yb * pi0
                sb -= za * yb + zb * ya
            s = (sa % m, sb % m)
            if not q.has_order(s, eb[i]):
                return False
            col[i] = q.div_pi_power(s, eb[i])
    return True


def _canonical_basis(D, Z, es, a: int, q: _Quotient, ctx: RamifiedContext):
    """hnf_canonicalize of span(dual * Z), computed from M = D * Z over O_H / p^K,
    where D = p^a * dual is integral.

    M spans p^a * V, and its canonical basis is p^a times that of V: the
    pivot of V's column i is pi^e, so the pivot of M's is p^a * pi^e, of
    order e' = e + 2a; an entry right of it, reduced modulo pi^e in V, is
    reduced modulo pi^e' in M, and since reduce_mod_p_power(p^a * x, p, k +
    a) = p^a * reduce_mod_p_power(x, p, k), both coordinates of the
    integral entry of M are the box representatives in [0, p^ceil(e'/2)) x
    [0, p^floor(e'/2)).  The pivot must be p^a * pi^e = eps^-a * pi^e', not
    pi^e': the two differ by a unit, and for eps != 1 the other choice is
    another triangular basis.  Rows are processed bottom-up, each taking a
    column of least order as pivot as in hnf_canonicalize; the canonical
    basis is unique, so ties may break differently.  The result divides M
    by p^a, with the pivots the exact pi^e.  Z's entries right of its
    pivots are exact residues; its pivots are reduced again modulo p^K.

    Precision: M is exact modulo pi^(2K).  Normalising the pivot of row i
    and clearing or reducing its row divide by pi^(e'_i), so the rows above
    lose e'_i digits: row i is known modulo pi^(2K - e'_(i+1) - ... -
    e'_n).  Finding its least order e'_i and reducing modulo pi^(e'_i)
    need that precision to exceed e'_i, which holds when 2K >= ord det M + 1
    = e'_1 + ... + e'_n + 1.
    """
    n = len(Z)
    p, m, pi0 = q.p, q.m, q.pi0
    cols = []
    for j in range(n):
        zj = [Z[k][j] for k in range(j)] + [q.pi_power(es[j])]
        col = []
        for row in D:
            sa = sb = 0
            for (da, db), (za, zb) in zip(row, zj):
                sa += da * za + db * zb * pi0
                sb += da * zb + db * za
            col.append((sa % m, sb % m))
        cols.append(col)
    eps_a = (pow(q.eps, a, m), 0)  # pi^(2a) / p^a
    inv_eps_a = pow(q.inv_eps, a, m)
    den = p**a
    zero = ctx.zero()
    basis = [[zero] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        orders = [q.ord(cols[j][i]) for j in range(i + 1)]
        e = min(orders)
        best = orders.index(e)
        if e >= 2 * q.k:
            raise AssertionError("vertex basis is singular modulo p^K")
        cols[best], cols[i] = cols[i], cols[best]
        piv = cols[i]
        ua, ub = q.div_pi_power(piv[i], e)
        s = pow(ua * ua - ub * ub * pi0, -1, m) * inv_eps_a
        unit = (ua * s % m, -ub * s % m)  # p^a * pi^e / piv[i]
        for r in range(i):
            piv[r] = q.mul(unit, piv[r])
        mod_a, mod_b = p ** ((e + 1) // 2), p ** (e // 2)
        for j in range(n):
            if j == i:
                continue
            x = cols[j][i]
            if j > i:
                ra, rb = x[0] % mod_a, x[1] % mod_b
                basis[i][j] = OHElement(Fraction(ra, den), Fraction(rb, den), ctx)
                x = (x[0] - ra, x[1] - rb)
            if x == (0, 0):
                continue
            f = q.mul(q.div_pi_power(x, e), eps_a)  # x / (p^a * pi^e)
            col = cols[j]
            for r in range(i):
                fa, fb = q.mul(f, piv[r])
                col[r] = ((col[r][0] - fa) % m, (col[r][1] - fb) % m)
        basis[i][i] = pi_power(ctx, e - 2 * a)
    return basis


def enumerate_vertices(
    L: HermLattice, bounds: EnumerationBounds = EnumerationBounds()
) -> VertexSet:
    """All vertex lattices V with L <= V_dual, with types and inclusion poset.

    Requires L integral for the form.  Results are deterministic: vertices are
    sorted by type and canonical basis, and do not depend on the basis in
    which L was presented.

    From the dual basis through the canonical bases of the vertices found,
    the work runs on pairs of ints modulo p^K (see _Quotient).  With
    F = max f, pi^F kills L^#/L, so pi^F * L^# lies in L and pairs integrally
    with L^#: pi^F * G# is integral, and so is p^c * G# for
    c = max(1, ceil(F/2)).  K = max(c + 1, ceil(d/2)) serves the vertex test
    (K >= c + 1) and the back-substitutions of the candidates and the poset
    (2K >= d = f_1 + ... + f_n).

    The canonical bases use their own modulus p^K2.  With a the least
    exponent making D = p^a * dual integral in ambient coordinates (for a
    request from the command line, where L is O_H^n, a = ceil(F/2), which
    is c unless L is unimodular), a vertex's
    M = D * Z has ord det M = ord det D + e_1 + ... + e_n, at most
    ord det D + floor(d/2) by the candidates' pivot window; ord det D =
    2an + ord det dual, and ord det dual = -(d + ord det G)/2 for the
    ambient Gram G, because the Gram of L^# has determinant order -d.  So
    2K2 >= ord det D + floor(d/2) + 1 gives _canonical_basis the precision
    it needs.
    """
    gram_l = L.gram()
    if not gram_l.is_integral():
        raise NonIntegralLatticeError("lattice does not pair integrally with itself")
    if L.n > bounds.max_rank:
        raise EnumerationLimitError(
            f"rank {L.n} exceeds enumeration bound {bounds.max_rank}"
        )
    ctx = L.ctx
    dcols, fs = _snf_dual_basis(L)
    if max(fs) > bounds.max_scale:
        raise EnumerationLimitError(
            f"Jordan scale {max(fs)} exceeds enumeration bound {bounds.max_scale}"
        )
    n = L.n
    dual_mat = [[dcols[j][i] for j in range(n)] for i in range(n)]
    amb = [list(row) for row in L.ambient.entries]
    gram_dual = mat_mul(mat_mul(mat_transpose(dual_mat), amb), mat_conj(dual_mat))
    c = max(1, (max(fs) + 1) // 2)
    q = _Quotient(ctx, max(c + 1, (sum(fs) + 1) // 2))
    H = [[q.reduce(x * ctx.p**c) for x in row] for row in gram_dual]
    a = max([0] + [-_val(y, ctx.p) for row in dual_mat for x in row for y in (x.a, x.b) if y])
    ord_det_D = 2 * a * n - (sum(fs) + L.ambient.det().ord()) // 2
    q2 = _Quotient(ctx, max(1, (ord_det_D + sum(fs) // 2 + 2) // 2))
    D = [[q2.reduce(x * ctx.p**a) for x in row] for row in dual_mat]
    decorated = []
    for es, Z in _iter_candidates(fs, q, bounds.max_candidates):
        t = _vertex_type(Z, H, c, q)
        if t is None:
            continue
        lat = HermLattice(L.ambient, _canonical_basis(D, Z, es, a, q2, ctx))
        key = tuple((str(x.a), str(x.b)) for row in lat.basis for x in row)
        decorated.append(((t, key), Vertex(lat, t), es, Z))
    decorated.sort(key=lambda item: item[0])
    vertices = tuple(item[1] for item in decorated)
    exps = [item[2] for item in decorated]
    mats = [item[3] for item in decorated]
    # Containment a < b multiplies the index in the dual by the covolume
    # ratio, and each index step drops the type by exactly 2; it also needs
    # the pivot exponents of a to dominate those of b.  Vertices are grouped
    # by (exponents, type), and only pairs of groups that pass both tests
    # meet the back-substitution.
    groups: dict[tuple, list[int]] = {}
    for a, (es, v) in enumerate(zip(exps, vertices)):
        groups.setdefault((es, v.type), []).append(a)
    edges = []
    for (ea, ta), members_a in groups.items():
        for (eb, tb), members_b in groups.items():
            step = sum(ea) - sum(eb)
            if step <= 0 or tb - ta != 2 * step or any(x < y for x, y in zip(ea, eb)):
                continue
            for a in members_a:
                for b in members_b:
                    if _contains(mats[b], eb, mats[a], ea, q):
                        edges.append((a, b))
    edges.sort()
    if vertices:
        max_type = max(v.type for v in vertices)
        max_count = sum(1 for v in vertices if v.type == max_type)
    else:
        max_type, max_count = -1, 0
    return VertexSet(vertices, tuple(edges), max_type, max_count)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking the closed-form invariants against the enumeration."""

    formula_t: int
    max_type: int
    max_count: int
    predicted_unique: bool
    max_type_matches: bool
    saturation: bool
    uniqueness_matches: bool
    all_types_even: bool
    poset_transitive: bool
    counterexamples: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return (
            self.max_type_matches
            and self.saturation
            and self.uniqueness_matches
            and self.all_types_even
            and self.poset_transitive
        )

    def to_json(self):
        return {
            "formula_t": self.formula_t,
            "max_type": self.max_type,
            "max_count": self.max_count,
            "predicted_unique": self.predicted_unique,
            "max_type_matches": self.max_type_matches,
            "saturation": self.saturation,
            "uniqueness_matches": self.uniqueness_matches,
            "all_types_even": self.all_types_even,
            "poset_transitive": self.poset_transitive,
            "passed": self.passed,
            "counterexamples": list(self.counterexamples),
        }


def verify_structure_theorems(
    L: HermLattice, bounds: EnumerationBounds = EnumerationBounds()
) -> VerificationReport:
    """Compare the enumerated vertex set with the closed-form predictions.

    Checks: the maximal type equals the formula value t; every vertex is
    contained in one of maximal type; the maximal vertex is unique exactly
    when the irreducibility conditions hold; all types are even; and the
    recorded inclusion poset is transitively closed.
    """
    vs = enumerate_vertices(L, bounds)
    inv: CycleInvariants = cycle_invariants(L.gram())
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

    return VerificationReport(
        formula_t=inv.t,
        max_type=vs.max_type,
        max_count=vs.max_count,
        predicted_unique=predicted_unique,
        max_type_matches=max_type_matches,
        saturation=saturation,
        uniqueness_matches=uniqueness_matches,
        all_types_even=all_types_even,
        poset_transitive=poset_transitive,
        counterexamples=tuple(counterexamples),
    )


def poset_dot(vs: VertexSet) -> str:
    """GraphViz rendering of the vertex inclusion poset."""
    lines = ["digraph vertices {"]
    for i, v in enumerate(vs.vertices):
        lines.append(f'  v{i} [label="v{i} (type {v.type})"];')
    for a, b in vs.poset_edges:
        lines.append(f"  v{a} -> v{b};")
    lines.append("}")
    return "\n".join(lines)
