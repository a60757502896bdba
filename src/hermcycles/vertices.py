"""Brute-force enumeration of the vertex lattices supporting an integral lattice.

A vertex lattice satisfies pi*V <= V_dual <= V; the lattice L supports V when
L <= V_dual, which pins every such V between L and its dual.  The oracle walks
all intermediate lattices through their canonical triangular bases (pivot
exponents bounded by the elementary divisors of L inside its dual), filters by
the exact vertex conditions, and reports types, counts and the full inclusion
poset.  It exists to double-check the closed-form invariants on small
instances, so correctness beats speed throughout.

Everything runs on pairs of Python ints modulo powers of p, where the
arithmetic is exact (lattice._Quotient): the Jordan elimination of Gram(L),
shared with jordan_split, gives a Jordan basis C of L^# with C * diag(pi^f)
spanning L (_dual_jordan_basis), and the work in the finite module L^#/L
runs modulo one p^K.  The one rational step is the exact inverse of the
block-diagonal Jordan Gram; from there to the census JSON no Fraction is
built: canonical bases come as ints over p^a and are printed from ints.
tests/support.py keeps the exact-rational enumerator as an oracle, with its
own dual basis from a Smith form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import gcd

from . import lattice
from .cycles import CycleInvariants, invariants_from_report
from .errors import EnumerationLimitError, NonIntegralLatticeError, PreconditionError
from .lattice import HermGram, HermLattice, JordanReport, _int_val, _jordan_chunks, _jordan_report
from .lattice import _Quotient, mat_conj, mat_inverse
from .padic import _mod, _val
from .ramified import OHElement, RamifiedContext, _pi0_power


@dataclass(frozen=True)
class EnumerationBounds:
    max_rank: int = 3
    max_scale: int = 3
    max_candidates: int = 10_000_000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise PreconditionError(f"{f.name} must be nonnegative, got {value}")


@dataclass(frozen=True)
class Vertex:
    """A vertex lattice: its type and its canonical basis (columns in the
    coordinates of ``ambient``) as the (a, b) strings of each entry, which is
    what the census sorts, compares and prints.  ``lattice`` builds the
    HermLattice on demand."""

    type: int
    basis: tuple[tuple[tuple[str, str], ...], ...]
    ambient: HermGram = field(compare=False, repr=False)

    @property
    def lattice(self) -> HermLattice:
        ctx = self.ambient.ctx
        return HermLattice(self.ambient, [[OHElement(x, y, ctx) for x, y in row] for row in self.basis])

    def to_json(self):
        return {"basis": [[{"a": x, "b": y} for x, y in row] for row in self.basis], "type": self.type}


@dataclass(frozen=True)
class VertexSet:
    vertices: tuple[Vertex, ...]
    poset_edges: tuple[tuple[int, int], ...]
    max_type: int
    max_count: int
    jordan: JordanReport | None = field(default=None, compare=False, repr=False)  # of L

    def types(self) -> list[int]:
        return [v.type for v in self.vertices]

    def to_json(self):
        return {
            "vertices": [v.to_json() for v in self.vertices],
            "poset_edges": [list(e) for e in self.poset_edges],
            "max_type": self.max_type,
            "max_count": self.max_count,
        }


def _dual_jordan_basis(L: HermLattice, h: int, need):
    """The ascending scales f, a, H = p^c * G# and D = p^a * C as int pairs,
    and the JordanReport of L, for a Jordan basis C of L^# with C *
    diag(pi^f) spanning L and Gram G#; c = max(1, ceil(F/2)), F = max f, a
    the least exponent making p^a * C integral, p^h * L.basis integral.

    The elimination of jordan_split on Gram(L), modulo the p^k ``need`` asks
    for, gives U in GL_n(O_H) (each step adds O_H-multiples of pivot vectors
    to the others, as the pivot has least order) and B = L.basis * U with
    B^T G conj(B) = J + E: J block diagonal, scales ascending, E = 0 modulo
    pi^(2k).  A block J_b of scale s is pi^s-modular (Jacobowitz): a rank-1
    pivot is pi^s times a unit; a rank-2 pivot has off-diagonal entries of
    order s, diagonal ones above s and det of order 2s.  So ord det J = d =
    ord det G + 2 * ord det(L.basis), and W = conj(J)^-1 is block diagonal
    of order >= -F.  C = B * W (see HermLattice.dual) has C^T G conj(B) =
    W^T (J + E) = I + W^T E in GL_n(O_H), as J^T = conj(J), so C spans L^#;
    B_b = C_b * conj(J_b) spans C_b * pi^s; and G# = conj(W) = J^-1 is the
    Gram of C up to W^T E conj(W), of order >= 2k - 2F.

    W is the one exact inverse, of J lifted from its residues; past it the
    work runs on int pairs modulo p^k.  With w = ceil(F/2), p^w * W is
    integral, and H = p^(c - w) * conj(p^w * W).  The tracked vectors are
    the columns of U, so E = p^h * L.basis * U * p^w * W = p^(h + w) * C is
    integral.  Against the exact elimination, U is off by order >= 2k - F
    and W by order >= 2k - 2F, so E is off by order >= 2k - 2F + 2w, and H
    (modulo p^k) by order >= 2k - 2F + 2c.  So E is known modulo p^(k - F +
    w), which reaches past p^(h + w) as k >= F + h: that fixes a = h + w -
    v, v the least p-order of E's components capped at h + w (a zero reads
    as h + w).  D = E / p^v is then off by order >= 2k - 2F - 2h + 2a.
    enumerate_vertices asks for k = K' + F + h, K' its modulus computed
    with a <= ceil(F/2) + h (so K' >= K, its modulus for the actual a), and
    D and H modulo p^K are those of the exact elimination.

    H comes as sparse rows: row i lists (j, H[i][j]) over the nonzero
    entries of W, which lie in the block of i.
    """
    n, ctx, p = L.n, L.ctx, L.ctx.p
    k, chunks = _jordan_chunks(L.gram(), True, need)
    m, pi0 = p**k, _mod(ctx.pi0, p**k)
    J = [[ctx.zero()] * n for _ in range(n)]
    vecs, fs = [], []
    for scale, _, block, pivots in chunks:
        i = len(vecs)
        for r, row in enumerate(block):
            J[i + r][i : i + len(row)] = [OHElement(x, y, ctx) for x, y in row]
        vecs.extend(pivots)
        fs.extend([scale] * len(pivots))
    W = mat_inverse(mat_conj(J), ctx)
    w = (max(fs) + 1) // 2
    pw, ph, pcw = p**w, p**h, p ** (max(1, w) - w)
    R = [  # p^w * W
        [(j, (_residue(x.a, pw, m), _residue(x.b, pw, m))) for j, x in enumerate(row) if x]
        for row in W
    ]
    H = [[(j, (ra * pcw % m, -rb * pcw % m)) for j, (ra, rb) in row] for row in R]
    E = []
    for row in L.basis:
        P = [(_residue(x.a, ph, m), _residue(x.b, ph, m)) for x in row]
        acc = [[0, 0] for _ in range(n)]
        for vec, R_r in zip(vecs, R):  # (p^h * L.basis * U)[i][r] times row r of p^w * W
            ba = bb = 0
            for (xa, xb), (ua, ub) in zip(P, vec):
                ba += xa * ua + xb * ub * pi0
                bb += xa * ub + xb * ua
            for j, (ra, rb) in R_r:
                acc[j][0] += ba * ra + bb * rb * pi0
                acc[j][1] += ba * rb + bb * ra
        E.append([(x % m, y % m) for x, y in acc])
    v = min(_int_val(y, p, h + w) for row in E for pair in row for y in pair)
    t = p**v
    D = [[(x // t, y // t) for x, y in row] for row in E]
    return fs, h + w - v, H, D, _jordan_report(chunks, p)


def _residue(y, s: int, m: int) -> int:
    """The residue modulo m of s * y, for a Fraction y and a power s of p with
    s * y p-integral, read off y's numerator and denominator: no Fraction is
    built."""
    if not y:
        return 0
    g = gcd(y.denominator, s)
    return y.numerator * (s // g) * pow(y.denominator // g, -1, m) % m


def _modulus(fs, a: int, ord_det_basis: int) -> int:
    """The least K meeting the enumeration's three needs (enumerate_vertices)."""
    n, d = len(fs), sum(fs)
    c = max(1, (max(fs) + 1) // 2)
    return max(c, (d + 1) // 2, (2 * a * n - d + ord_det_basis + d // 2 + 2) // 2)


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

    A candidate has type d - 2*(e_1 + ... + e_n), d the order of det L (see
    _is_vertex).  A vertex has type between 0 and the rank, which pins the
    pivot-exponent sum to the window [(d - n)/2, d/2]; pivot choices outside
    the window are skipped up front.

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


def _is_vertex(Z, H, c: int, t: int, q: _Quotient) -> bool:
    """Whether the candidate with triangular basis Z and type t is a vertex lattice.

    The candidate Gram is M = Z^T * G# * conj(Z), with G# the Gram of the
    dual basis, of determinant order -d, so ord det M = 2*(e_1 + ... + e_n)
    - d = -t.  H = p^c * G# is integral and reduced modulo p^K, K >= c, so
    S = p^c * M = Z^T * H * conj(Z) is exact modulo pi^(2c).  A vertex needs
    every entry of M of order >= -1 (pi*V pairs integrally with V), that is
    S = 0 modulo pi^(2c - 1).  Then N = pi*M is integral, with ord det N =
    n - t, and M^-1 = pi * N^-1 is integral (the dual sits inside V) exactly
    when every elementary divisor of N is 1 or pi.  Their exponents sum to
    n - t, and to at least n - r, r the rank over F_p of N modulo pi, with
    equality only when none exceeds 1: V is a vertex exactly when r = t.
    N modulo pi is alternating (N^T = -conj(N), and the diagonal of N is pi
    times a rational), so r is even and an odd t is never accepted.

    The checks run cheapest-first: the diagonal of S from the last column
    (S[b][b] needs column b of P = H * conj(Z) only, and most candidates
    fail there), then the entries above it (S is Hermitian, so its upper
    half decides), then the rank.  H comes as sparse rows of (column,
    entry), as G# is block diagonal (_dual_jordan_basis).
    """
    n = len(Z)
    p, m, pi0 = q.p, q.m, q.pi0
    pc, pc1 = p**c, p ** (c - 1)
    P = [None] * n  # P[b][k] = (H * conj(Z))[k][b] for k <= b
    for b in range(n - 1, -1, -1):
        Pb = []
        for k in range(b + 1):  # column b of Z vanishes below row b
            sa = sb = 0
            for j, (ha, hb) in H[k]:
                za, zb = Z[j][b]
                sa += ha * za - hb * zb * pi0
                sb += hb * za - ha * zb
            Pb.append((sa % m, sb % m))
        P[b] = Pb
        sa = 0
        for k in range(b + 1):
            (za, zb), (xa, xb) = Z[k][b], Pb[k]
            sa += za * xa + zb * xb * pi0
        if sa % pc:  # S[b][b] is rational, its pi-component vanishes
            return False
    eps = q.eps % p
    R = [[0] * n for _ in range(n)]  # N modulo pi, alternating
    for b in range(n - 1, 0, -1):
        Pb = P[b]
        for a in range(b - 1, -1, -1):
            sa = sb = 0
            for k in range(a + 1):
                (za, zb), (xa, xb) = Z[k][a], Pb[k]
                sa += za * xa + zb * xb * pi0
                sb += za * xb + zb * xa
            if sa % pc or sb % pc1:
                return False
            # N = pi*S / p^c = eps * sb/p^(c-1) + (sa/p^c)*pi
            R[a][b] = sb // pc1 * eps % p
            R[b][a] = -R[a][b] % p
    r = 0
    for j in range(n):
        i = next((i for i in range(r, n) if R[i][j]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        inv = pow(R[r][j], -1, p)
        for i in range(r + 1, n):
            f = R[i][j] * inv % p
            if f:
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[r])]
        r += 1
    return r == t


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


def _canonical_basis(D, Z, a: int, q: _Quotient):
    """The canonical triangular basis of span(dual * Z) (the Fraction HNF of
    tests/support.py), computed from M = D * Z over O_H / p^K, where
    D = p^a * dual is integral, as ints over p^a: (es, N), V's pivot at
    (i, i) being pi^es[i] and its entry at (i, j), j > i, N[i][j] / p^a for
    the int pair N[i][j] (_basis_text prints it).

    M spans p^a * V, and its canonical basis is p^a times that of V: the
    pivot of V's column i is pi^e, so the pivot of M's is p^a * pi^e, of
    order e' = e + 2a; an entry right of it, reduced modulo pi^e in V, is
    reduced modulo pi^e' in M, and since reduce_mod_p_power(p^a * x, p, k +
    a) = p^a * reduce_mod_p_power(x, p, k), both coordinates of the
    integral entry of M are the box representatives in [0, p^ceil(e'/2)) x
    [0, p^floor(e'/2)).  The pivot must be p^a * pi^e = eps^-a * pi^e', not
    pi^e': the two differ by a unit, and for eps != 1 the other choice is
    another triangular basis.  Rows are processed bottom-up, each taking a
    column of least order as pivot as the Fraction HNF does; the canonical
    basis is unique, so ties may break differently.  The result is M over
    p^a, with the pivots the exact pi^e.

    Precision: M is exact modulo pi^(2K).  Normalising the pivot of row i
    and clearing or reducing its row divide by pi^(e'_i), so the rows above
    lose e'_i digits: row i is known modulo pi^(2K - e'_(i+1) - ... -
    e'_n).  Finding its least order e'_i and reducing modulo pi^(e'_i)
    need that precision to exceed e'_i, which holds when 2K >= ord det M + 1
    = e'_1 + ... + e'_n + 1; enumerate_vertices bounds ord det M so.
    """
    n = len(Z)
    p, m, pi0 = q.p, q.m, q.pi0
    cols = []
    for j in range(n):
        zj = [Z[k][j] for k in range(j + 1)]
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
    es, N = [0] * n, [[(0, 0)] * n for _ in range(n)]
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
                N[i][j] = (ra, rb)
                x = (x[0] - ra, x[1] - rb)
            if x == (0, 0):
                continue
            f = q.mul(q.div_pi_power(x, e), eps_a)  # x / (p^a * pi^e)
            col = cols[j]
            for r in range(i):
                fa, fb = q.mul(f, piv[r])
                col[r] = ((col[r][0] - fa) % m, (col[r][1] - fb) % m)
        es[i] = e - 2 * a
    return es, N


def _fraction_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for ints, den nonzero, without the Fraction."""
    g = gcd(num, den)
    num, den = (num // g, den // g) if den > 0 else (-num // g, -den // g)
    return str(num) if den == 1 else f"{num}/{den}"


def _basis_text(es, N, a: int, ctx: RamifiedContext):
    """The (a, b) component strings, as str(Fraction) prints them, of the
    basis _canonical_basis returns: pi^e_i at (i, i), N[i][j] / p^a right of
    it and 0 left of it."""
    den, rows = ctx.p**a, []
    for i, (e, row) in enumerate(zip(es, N)):
        pivot = _fraction_text(*_pi0_power(ctx, e))
        text = [("0", "0")] * i + [("0", pivot) if e % 2 else (pivot, "0")]
        text += [(_fraction_text(x, den), _fraction_text(y, den)) for x, y in row[i + 1 :]]
        rows.append(tuple(text))
    return tuple(rows)


def enumerate_vertices(
    L: HermLattice, bounds: EnumerationBounds = EnumerationBounds()
) -> VertexSet:
    """All vertex lattices V with L <= V_dual, with types and inclusion poset.

    Requires L integral for the form.  Results are deterministic: vertices are
    sorted by type and canonical basis, and do not depend on the basis in
    which L was presented.

    The dual columns are a Jordan basis of L^#, times pi^f spanning L, with
    G# their Gram (_dual_jordan_basis).  Past the one exact inverse there,
    through the canonical bases of the vertices found, the work runs on
    pairs of ints modulo one p^K (see _Quotient), and each vertex keeps its
    basis as the strings the census prints (_basis_text); K is the least
    meeting three needs:

    - the vertex test needs K >= c.  With F = max f, pi^F kills L^#/L, so
      pi^F * G# is integral, and so is p^c * G# for c = max(1, ceil(F/2));
    - the back-substitutions of the candidates and the poset need
      2K >= d = f_1 + ... + f_n;
    - the canonical bases need 2K >= ord det M + 1 (_canonical_basis).
      With a the least exponent making D = p^a * dual integral in ambient
      coordinates (ceil(F/2) for a request from the command line, where L
      is O_H^n), a vertex's M = D * Z has ord det M = ord det D + e_1 + ...
      + e_n, at most ord det D + floor(d/2) by the candidates' pivot window;
      ord det D = 2an + ord det(L.basis) - d (_dual_jordan_basis), and
      L.basis is the identity for a request from the command line.

    The elimination runs F + h digits past the K of a <= ceil(F/2) + h,
    p^h * L.basis integral, so H = p^c * G# and D modulo p^K are those of
    the exact rational elimination (_jordan_chunks, _dual_jordan_basis).
    """
    gram_l = L.gram()
    if not gram_l.is_integral():
        raise NonIntegralLatticeError("lattice does not pair integrally with itself")
    if L.n > bounds.max_rank:
        raise EnumerationLimitError(
            f"rank {L.n} exceeds enumeration bound {bounds.max_rank}"
        )
    ctx, p = L.ctx, L.ctx.p
    h = max([0] + [-_val(y, p) for row in L.basis for x in row for y in (x.a, x.b) if y])
    ord_det_basis = []

    def need(fs):  # a <= ceil(F/2) + h, as pi^F * L^# <= L <= p^-h * O_H^n
        if max(fs) > bounds.max_scale:
            return 0
        ord_det_basis.append(lattice.mat_det(L.basis_rows(), ctx).ord())
        return _modulus(fs, (max(fs) + 1) // 2 + h, ord_det_basis[0]) + max(fs) + h

    fs, a, H, D, report = _dual_jordan_basis(L, h, need)
    if max(fs) > bounds.max_scale:
        raise EnumerationLimitError(
            f"Jordan scale {max(fs)} exceeds enumeration bound {bounds.max_scale}"
        )
    d = sum(fs)
    c = max(1, (max(fs) + 1) // 2)
    q = _Quotient(ctx, _modulus(fs, a, ord_det_basis[0]))
    m = q.m
    H = [[(j, (x % m, y % m)) for j, (x, y) in row] for row in H]
    D = [[(x % m, y % m) for x, y in row] for row in D]
    decorated = []
    for es, Z in _iter_candidates(fs, q, bounds.max_candidates):
        t = d - 2 * sum(es)
        if not _is_vertex(Z, H, c, t, q):
            continue
        basis = _basis_text(*_canonical_basis(D, Z, a, q), a, ctx)
        decorated.append(((t, basis), Vertex(t, basis, L.ambient), es, Z))
    decorated.sort(key=lambda item: item[0])
    vertices = tuple(item[1] for item in decorated)
    exps = [item[2] for item in decorated]
    mats = [item[3] for item in decorated]
    # Containment a < b needs the pivot exponents of a to dominate those of
    # b and to differ from them, as equal exponents mean equal covolumes.
    # Vertices are grouped by exponents, and only pairs of groups that pass
    # meet the back-substitution.
    groups: dict[tuple, list[int]] = {}
    for a, es in enumerate(exps):
        groups.setdefault(es, []).append(a)
    edges = []
    for ea, members_a in groups.items():
        for eb, members_b in groups.items():
            if ea == eb or any(x < y for x, y in zip(ea, eb)):
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
    return VertexSet(vertices, tuple(edges), max_type, max_count, report)


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
    inv: CycleInvariants = invariants_from_report(vs.jordan, L.ctx.p)
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
