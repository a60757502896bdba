"""Brute-force enumeration of the vertex lattices supporting an integral lattice.

A vertex lattice satisfies pi*V <= V_dual <= V; the lattice L supports V
when L <= V_dual, which pins every such V between L and its dual.  The
enumerator walks all intermediate lattices through their canonical
triangular bases (pivot exponents bounded by the elementary divisors of L
inside its dual), filters by the exact vertex conditions, and reports types,
counts and the full inclusion poset.  It exists to double-check the
closed-form invariants on small instances, so correctness beats speed
throughout.  The census keeps the order of the walk until something reads it
as printed: only then does each vertex get its canonical basis, and the
census its sorted order (VertexSet).

Everything runs on pairs of Python ints modulo powers of p, where the
arithmetic is exact (lattice._Quotient): the Jordan elimination of Gram(L),
shared with jordan_split, gives a Jordan basis C of L^# with C * diag(pi^f)
spanning L (_dual_jordan_basis), and the work in the finite module L^#/L
runs modulo one p^K.  The one rational step is the exact inverse of the
Jordan Gram, taken one 1x1 or 2x2 block at a time; from there to the
census JSON no Fraction is built: canonical bases come as ints over p^a,
are printed from ints, and the census JSON is written from those strings
(VertexSet.json_text).
tests/support.py keeps the exact-rational enumerator as an oracle, with its
own dual basis from a Smith form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from math import gcd
from typing import Callable

from .cycles import CycleInvariants, invariants_from_report
from .errors import EnumerationLimitError, NonIntegralLatticeError, PreconditionError
from .lattice import HermGram, HermLattice, JordanReport, _jordan_chunks, _jordan_report
from .lattice import _p_denominator, _Quotient, _vector_scales, mat_inverse
from .padic import _mod
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


@dataclass(frozen=True, eq=False)
class VertexSet:
    """The census of enumerate_vertices, held in the order the candidate
    walk found the vertices: their types, the inclusion poset as pairs of
    walk positions, max_type, max_count and the JordanReport of L.

    ``vertices`` and ``poset_edges`` are the census as printed: vertices
    sorted by type and canonical basis, edges relabelled to that order and
    sorted.  They are named on first read (through them, ``to_json`` or
    equality), as naming computes and prints every canonical basis, which
    verify_structure_theorems does without.  Equality and hashing go by the
    named census, so the censuses of one lattice in two bases are equal.
    Only enumerate_vertices builds one.
    """

    _types: tuple[int, ...]
    _edges: tuple[tuple[int, int], ...]
    max_type: int
    max_count: int
    jordan: JordanReport = field(repr=False)  # of L
    _name_walk: Callable[[], list[Vertex]] = field(repr=False)  # the vertices in walk order

    @cached_property
    def _census(self):
        walk = self._name_walk()
        order = sorted(range(len(walk)), key=lambda i: (walk[i].type, walk[i].basis))
        index = [0] * len(order)
        for i, w in enumerate(order):
            index[w] = i
        edges = tuple(sorted((index[a], index[b]) for a, b in self._edges))
        return tuple(walk[w] for w in order), edges

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._census[0]

    @property
    def poset_edges(self) -> tuple[tuple[int, int], ...]:
        return self._census[1]

    def _key(self):
        return (*self._census, self.max_type, self.max_count)

    def __eq__(self, other):
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def to_json(self):
        """The census as json_text prints it, read back."""
        return json.loads(self.json_text())

    def json_text(self) -> str:
        """The census JSON, {"max_count", "max_type", "poset_edges",
        "vertices": [{"basis": rows of {"a", "b"}, "type"}]}, as json.dumps
        writes it with indent=2 and sort_keys=True, in one pass from the
        basis strings, which need no escaping; each entry object is
        formatted where it stands, from the strings _basis_text shares."""
        vertices = []
        for v in self.vertices:
            rows = [_json_list([_ENTRY % xy for xy in row], " " * 8) for row in v.basis]
            vertices.append(
                f'{{\n      "basis": {_json_list(rows, " " * 6)},\n      "type": {v.type}\n    }}'
            )
        edges = [f"[\n      {a},\n      {b}\n    ]" for a, b in self.poset_edges]
        return (
            f'{{\n  "max_count": {self.max_count},\n  "max_type": {self.max_type},\n'
            f'  "poset_edges": {_json_list(edges, "  ")},\n'
            f'  "vertices": {_json_list(vertices, "  ")}\n}}'
        )


_ENTRY = '{\n            "a": "%s",\n            "b": "%s"\n          }'


def _json_list(items, indent: str) -> str:
    """A JSON array at ``indent`` of items already printed one level deeper."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _dual_jordan_basis(L: HermLattice, max_scale: int):
    """The enumerator's setup and its one precision rule: the ascending
    scales f, one per basis vector, c = max(1, ceil(F/2)) for F = max f,
    a = ceil(F/2) + h for p^h * L.basis integral (h least), the ring q =
    O_H / p^K' of the walk, H = p^c * G# modulo p^K' as int pairs, a
    function ``dual`` giving D = p^a * C modulo p^K', and the JordanReport
    of L, for a Jordan basis C of L^# with C * diag(pi^f) spanning L and
    Gram G#.  D is formed only when ``dual`` is called, as only naming the
    census reads it.  A scale above ``max_scale`` raises on the first
    certified pass of the elimination, before the exact block inverses.

    The elimination of jordan_split on Gram(L), modulo a p^k, gives U in
    GL_n(O_H) (each step adds O_H-multiples of pivot vectors to the others,
    as the pivot has least order) and B = L.basis * U with B^T G conj(B) = J
    + E: J block diagonal, scales ascending, E = 0 modulo pi^(2k).  A block
    J_b of scale s is pi^s-modular (Jacobowitz): a rank-1 pivot is pi^s
    times a unit; a rank-2 pivot has off-diagonal entries of order s,
    diagonal ones above s and det of order 2s.  So ord det J = d = ord det G
    + 2 * ord det(L.basis), which is how the setup reads ord det(L.basis):
    0 with no elimination when Gram(L) is the ambient (HermLattice.from_gram,
    as for every request from the command line), else (d - ord det G) / 2,
    after the certified pass and off the ambient's cached determinant.  And
    W = conj(J)^-1 is block diagonal of order >= -F.  C = B * W (see
    HermLattice.dual) has C^T G conj(B) = W^T (J + E) = I + W^T E in
    GL_n(O_H), as J^T = conj(J), so C spans L^#; B_b = C_b * conj(J_b) spans
    C_b * pi^s; and G# = conj(W) = J^-1 is the Gram of C up to W^T E
    conj(W), of order >= 2k - 2F.

    W is the one exact step, taken one block at a time: W_b = conj(J_b)^-1,
    the inverse of the 1x1 or 2x2 block lifted from J_b's residues a + b*pi
    as a - b*pi, fills the rows and columns of that block, and W is zero off
    the blocks; no n x n matrix is formed.  Past those inverses the work
    runs on int pairs modulo p^k.  With w = ceil(F/2), p^w * W is integral,
    and H = p^(c - w) * conj(p^w * W).  The tracked vectors are the columns
    of U, so D = p^h * L.basis * U * p^w * W = p^a * C is integral; a need
    not be the least such exponent, and the canonical bases print the same
    strings for any (_canonical_basis).
    Against the exact elimination, U is off by order >= 2k - F and W by
    order >= 2k - 2F, so D is off by order >= 2k - 2F + 2w, and H (modulo
    p^k) by order >= 2k - 2F + 2c, no less as c >= w.

    The precision rule (_precision).  K' is the least modulus the walk, the
    poset and the naming need (the K of enumerate_vertices) for this a,
    with f one scale per basis vector (_vector_scales: a rank-2 block
    counts twice in d, so K' is the walk's own).  The setup eliminates once
    at the default k = 8, reads f off that certified pass, and asks the
    elimination again at k = K' + floor(F/2) = K' + F - w only when the
    certified ring is narrower; both orders above are then at least 2K': H
    and D modulo p^K' are those of the exact elimination.  The walk, the
    poset and the naming run on q, not on the elimination's wider ring.

    H comes as sparse rows: row i lists (j, H[i][j]) over the nonzero
    entries of row i, all in the block of i, read off that block's inverse
    at the block's column offset.
    """
    n, ctx, p = L.n, L.ctx, L.ctx.p
    h = _p_denominator([y for row in L.basis for x in row for y in (x.a, x.b)], p)
    G = L.gram()
    ring, chunks = _jordan_chunks(G, True)
    fs = _vector_scales(chunks)
    if fs[-1] > max_scale:
        raise EnumerationLimitError(f"Jordan scale {fs[-1]} exceeds enumeration bound {max_scale}")
    ord_det_basis = 0 if G is L.ambient else (sum(fs) - L.ambient.det().ord()) // 2
    a, c, K, k = _precision(fs, h, ord_det_basis)
    w = a - h
    if k > ring.k:
        ring, chunks = _jordan_chunks(G, True, k)
    q = _Quotient(ctx, K)
    m, pi0, mq = ring.m, ring.pi0, q.m
    pw, pcw = p**w, p ** (c - w)
    vecs, R = [], []  # R = p^w * W, W = conj(J)^-1 one block at a time
    for _, _, block, pivots in chunks:
        i = len(vecs)
        for W_r in mat_inverse([[OHElement(x, -y, ctx) for x, y in row] for row in block], ctx):
            row = [(i + j, (_mod(x.a, m, pw), _mod(x.b, m, pw))) for j, x in enumerate(W_r)]
            R.append([e for e in row if e[1] != (0, 0)])
        vecs.extend(pivots)
    H = [[(j, (ra * pcw % mq, -rb * pcw % mq)) for j, (ra, rb) in row] for row in R]

    def dual():
        ph, D = p**h, []
        for row in L.basis:
            P = [(j, _mod(x.a, m, ph), _mod(x.b, m, ph)) for j, x in enumerate(row) if x]
            acc = [[0, 0] for _ in range(n)]
            for vec, R_r in zip(vecs, R):  # (p^h * L.basis * U)[i][r] times row r of p^w * W
                ba = bb = 0
                for j, xa, xb in P:
                    ua, ub = vec[j]
                    ba += xa * ua + xb * ub * pi0
                    bb += xa * ub + xb * ua
                for j, (ra, rb) in R_r:
                    acc[j][0] += ba * ra + bb * rb * pi0
                    acc[j][1] += ba * rb + bb * ra
            D.append([(x % mq, y % mq) for x, y in acc])
        return D

    return fs, a, c, q, H, dual, _jordan_report(chunks, p)


def _precision(fs, h: int, ord_det_basis: int):
    """The precision rule of _dual_jordan_basis for the scales f, one per
    basis vector, p^h * L.basis integral and ord_det_basis = ord
    det(L.basis), which _dual_jordan_basis reads off f: the census's a =
    ceil(F/2) + h, c = max(1, ceil(F/2)), the walk's modulus K', the least
    meeting the enumeration's three needs (enumerate_vertices) for that a,
    and the elimination's k = K' + floor(F/2).

    K' is the larger of two terms: c, and the canonical bases' K3, the
    least K with 2K >= 2an + ord det(L.basis) - d + floor(d/2) + 1.  K3
    meets the back-substitutions' need, 2K > floor(d/2), too: p^h * L.basis
    is integral, so ord det(L.basis) >= -2hn, and with w = ceil(F/2),
    2an + ord det(L.basis) >= 2(a - h)n = 2wn >= Fn >= d; hence 2 * K3 >=
    floor(d/2) + 1.
    """
    n, d, F = len(fs), sum(fs), max(fs)
    w = (F + 1) // 2
    a, c = w + h, max(1, w)
    K = max(c, (2 * a * n - d + ord_det_basis + d // 2 + 2) // 2)
    return a, c, K, K + F // 2


def _iter_candidates(fs, H, c: int, q: _Quotient, max_candidates: int):
    """The vertex lattices among the canonical triangular bases Z with L <=
    span(dual*Z) <= dual, in walk order, as (type, pivot exponents, Z over
    O_H / p^K); H = p^c * G# as in _is_vertex.

    Z is upper triangular with pivot pi**e_i at (i, i), 0 <= e_i <= f_i, and
    entries right of each pivot ranging over the residues a + b*pi modulo the
    pivot (0 <= a < p^ceil(e_i/2), 0 <= b < p^floor(e_i/2)).  Rows are filled
    bottom-up and entries left to right.  The back-substituted solution X of
    Z*X = diag(pi^f) only depends on entries already placed: slot (i, j) adds
    Z[i][j] * pi^g, g = f_j - e_j, to a sum s fixed by the entries left of
    it, and X[i][j] = -(s + Z[i][j] * pi^g) / pi^e_i must be integral.  So the
    residues that pass are solved for rather than searched: none, or all
    those congruent to -s / pi^g modulo pi^(e_i - g).  Every residue of every
    slot reached still counts against ``max_candidates``, and so does each
    candidate of a rank-1 walk, which has no slot.

    A candidate has type d - 2*(e_1 + ... + e_n), d the order of det L (see
    _is_vertex).  A vertex has type between 0 and the rank, which pins the
    pivot-exponent sum to the window [(d - n)/2, d/2]; pivot choices outside
    the window are skipped up front.

    The last slot, (0, n - 1), completes a candidate.  There only z =
    Z[0][n-1] is still free, and the diagonal entry S[n-1][n-1] that
    _is_vertex tests first is a quadratic in z (_last_diagonal), read off
    _is_vertex's own column product at z = 0: each residue that passes the
    congruence is checked against it, and only the survivors meet
    _is_vertex, which decides them.  Row 0 is the last row, so its X is
    never read and the slot does not form it.  A rank-1 walk has no slot:
    each candidate is counted, then goes straight to _is_vertex.  Only an
    accepted Z is copied.

    Precision: X[j][j] = pi^(f_j - e_j) is exact and X[i][j] divides by
    pi^e_i, so s at slot (i, j) is known modulo pi^(2K - e_(i+1) - ... -
    e_(j-1)).  Deciding whether it has order e_i then needs
    2K >= e_i + ... + e_(j-1), which 2K > floor(d/2) guarantees: the pivot
    exponents sum to at most floor(d/2), the top of the window.
    """
    n = len(fs)
    p, m, pi0 = q.p, q.m, q.pi0
    Z = [[(0, 0)] * n for _ in range(n)]
    X = [[(0, 0)] * n for _ in range(n)]
    es = [0] * n
    d = sum(fs)
    lo, hi = max(0, (d - n + 1) // 2), d // 2
    budget = [sum(fs[:i]) for i in range(n)]  # max addable by the rows above i
    pis = [q.pi_power(e) for e in range(max(fs) + 1)]
    count = 0
    found = []

    def test(pivot_sum):
        t = d - 2 * pivot_sum
        if _is_vertex(Z, H, c, t, q):
            found.append((t, tuple(es), [row[:] for row in Z]))

    def over_budget():
        return EnumerationLimitError(
            f"candidate count exceeded {max_candidates}", count=max_candidates + 1
        )

    def rec_row(i, pivot_sum):
        nonlocal count
        if i < 0:  # only a rank-1 walk gets here
            count += 1
            if count > max_candidates:
                raise over_budget()
            test(pivot_sum)
            return
        for e in range(fs[i] + 1):
            total = pivot_sum + e
            if total > hi:
                break
            if total + budget[i] < lo:
                continue
            es[i] = e
            Z[i][i] = pis[e]
            X[i][i] = pis[fs[i] - e]
            rec_slot(i, i + 1, total)

    def rec_slot(i, j, pivot_sum):
        nonlocal count
        if j == n:
            rec_row(i - 1, pivot_sum)
            return
        e = es[i]
        count += p**e
        if count > max_candidates:
            # the (max_candidates + 1)-th residue falls in this slot
            raise over_budget()
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
        a_range = range(a0 % step_a, p ** ((e + 1) // 2), step_a)
        b_range = range(b0 % step_b, p ** (e // 2), step_b)
        if i == 0 and j == n - 1:
            vanishes = _last_diagonal(Z, H, c, q)
            for a in a_range:
                for b in b_range:
                    if vanishes(a, b):
                        row[j] = (a, b)
                        test(pivot_sum)
            return
        ga, gb = pis[g]
        for a in a_range:
            for b in b_range:
                row[j] = (a, b)
                acc = ((neg_s[0] - a * ga - b * gb * pi0) % m, (neg_s[1] - a * gb - b * ga) % m)
                X[i][j] = q.div_pi_power(acc, e)
                rec_slot(i, j + 1, pivot_sum)

    rec_row(n - 1, 0)
    return found


def _last_diagonal(Z, H, c: int, q: _Quotient):
    """Whether S[n-1][n-1] of _is_vertex vanishes modulo p^c, as a function
    of z = Z[0][n-1] = za + zb*pi alone, the rest of column n - 1 of Z fixed.

    H is Hermitian (H[k][0] = conj(H[0][k]), modulo p^K as G# is), so S(z)
    = S(0) + h00 * Nm(z) + 2 * Re(z * A), with h00 = H[0][0] rational and
    A, S(0) the vertex test's own column product at z = 0 (_column_product):
    A = P[0] and S(0) = C = s.  Nm(z) = za^2 - zb^2 * pi0 and Re(z * A) =
    za * Aa + zb * Ab * pi0, so the condition reads h00 * (za^2 - zb^2 *
    pi0) + 2 * (za * Aa + zb * Ab * pi0) + C = 0 modulo p^c: exactly the
    first check of _is_vertex.  h00, A and C are formed once per completed
    column.
    """
    pc = q.p**c
    col = [row[-1] for row in Z]
    col[0] = (0, 0)  # z = 0
    P, C = _column_product(H, col, q.pi0, pc)
    h00, pi0 = 0, q.pi0 % pc
    for j, (ha, _) in H[0]:
        if j == 0:
            h00 = ha % pc
    lin_a, lin_b, C = 2 * P[0][0] % pc, 2 * P[0][1] * pi0 % pc, C % pc

    def vanishes(za, zb):
        return (h00 * (za * za - zb * zb * pi0) + za * lin_a + zb * lin_b + C) % pc == 0

    return vanishes


def _column_product(H, col, pi0: int, m: int):
    """(P, s) for a column col of Z of length b + 1 (it vanishes below row
    b): P, rows 0..b of H * conj(col) modulo m, and s = col^T * P, an int
    congruent modulo m to the rational part of the diagonal entry of S =
    Z^T * H * conj(Z) at that column (_is_vertex).  H comes as sparse rows
    of (column, entry)."""
    b = len(col) - 1
    P, s = [], 0
    for (ca, cb), row in zip(col, H):
        sa = sb = 0
        for j, (ha, hb) in row:
            if j <= b:
                za, zb = col[j]
                sa += ha * za - hb * zb * pi0
                sb += hb * za - ha * zb
        sa, sb = sa % m, sb % m
        P.append((sa, sb))
        s += ca * sa + cb * sb * pi0
    return P, s


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
    (S[b][b] needs column b of P = H * conj(Z) only, _column_product, and
    most candidates fail there), then the entries above it (S is Hermitian,
    so its upper half decides), then the rank, which t = 0 skips: r = 0
    exactly when N vanishes modulo pi.  Every check reads S modulo p^c, so
    P is kept modulo p^c.  H comes as sparse rows of (column, entry), as G#
    is block diagonal (_dual_jordan_basis).

    The walk (_iter_candidates) checks the first of these, S[n-1][n-1],
    itself on every candidate of rank 2 or more (_last_diagonal, from this
    test's own column product at z = Z[0][n-1] = 0) and calls this test
    only where it vanishes.  This stays the one complete test: it checks
    S[n-1][n-1] again, for a rank-1 candidate and for any caller.
    """
    n = len(Z)
    p, pi0 = q.p, q.pi0
    pc, pc1 = p**c, p ** (c - 1)
    P = [None] * n  # P[b][k] = (H * conj(Z))[k][b] modulo p^c, for k <= b
    for b in range(n - 1, -1, -1):
        Pb, diagonal = _column_product(H, [Z[j][b] for j in range(b + 1)], pi0, pc)
        if diagonal % pc:  # S[b][b] is rational, its pi-component vanishes
            return False
        P[b] = Pb
    eps = q.eps % p
    R = [[0] * n for _ in range(n)] if t else None  # N modulo pi, alternating
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
            x = sb % pc // pc1 * eps % p
            if x:
                if not t:  # r > 0 = t
                    return False
                R[a][b], R[b][a] = x, p - x
    if not t:  # R = 0
        return True
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
    The divisions lose eb_1 + ... + eb_n <= floor(d/2) < 2K digits of pi
    in all, as in _iter_candidates.
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
            if i:  # row 0 is the last to read it
                col[i] = q.div_pi_power(s, eb[i])
    return True


def _canonical_basis(D, Z, a: int, q: _Quotient):
    """The canonical triangular basis of span(dual * Z) (the Fraction HNF of
    tests/support.py), computed from M = D * Z over O_H / p^K, where
    D = p^a * dual is integral, as ints over p^a: (es, N), V's pivot at
    (i, i) being pi^es[i] and its entry at (i, j), j > i, N[i][j] / p^a for
    the int pair N[i][j] (_basis_text prints it).  Any a making D integral
    will do, the least or not: the fractions N[i][j] / p^a, and so the
    printed strings, do not depend on it.

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
        zj = [(k, Z[k][j]) for k in range(j + 1) if Z[k][j] != (0, 0)]
        col = []
        for row in D:
            sa = sb = 0
            for k, (za, zb) in zj:
                da, db = row[k]
                sa += da * za + db * zb * pi0
                sb += da * zb + db * za
            col.append((sa % m, sb % m))
        cols.append(col)
    eps_a = pow(q.eps, a, m)  # pi^(2a) / p^a
    inv_eps_a = pow(q.inv_eps, a, m)
    es, N = [0] * n, [[(0, 0)] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        e, best = 2 * q.k, 0
        for j in range(i + 1):  # the first column of least order
            o = q.ord(cols[j][i])
            if o < e:
                e, best = o, j
                if not o:
                    break
        if e >= 2 * q.k:
            raise AssertionError("vertex basis is singular modulo p^K")
        cols[best], cols[i] = cols[i], cols[best]
        piv = cols[i]
        es[i] = e - 2 * a
        mod_a, mod_b = p ** ((e + 1) // 2), p ** (e // 2)
        Ni = N[i]
        for j in range(i + 1, n):
            x = cols[j][i]
            Ni[j] = (x[0] % mod_a, x[1] % mod_b)
        if not i:  # no row is left above to clear
            break
        ua, ub = q.div_pi_power(piv[i], e)
        t = pow(ua * ua - ub * ub * pi0, -1, m) * inv_eps_a
        ua, ub = ua * t % m, -ub * t % m  # p^a * pi^e / piv[i]
        for r in range(i):
            xa, xb = piv[r]
            piv[r] = ((ua * xa + ub * xb * pi0) % m, (ua * xb + ub * xa) % m)
        for j in range(n):
            if j == i:
                continue
            xa, xb = cols[j][i]
            if j > i:  # what is left past the reduction N[i][j]
                xa, xb = xa - Ni[j][0], xb - Ni[j][1]
            if not (xa or xb):
                continue
            fa, fb = q.div_pi_power((xa, xb), e)
            fa, fb = fa * eps_a, fb * eps_a  # x / (p^a * pi^e)
            col = cols[j]
            for r in range(i):
                (ya, yb), (ca, cb) = piv[r], col[r]
                col[r] = ((ca - fa * ya - fb * yb * pi0) % m, (cb - fa * yb - fb * ya) % m)
    return es, N


def _fraction_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for ints, den nonzero, without the Fraction."""
    g = gcd(num, den)
    num, den = (num // g, den // g) if den > 0 else (-num // g, -den // g)
    return str(num) if den == 1 else f"{num}/{den}"


def _basis_text(es, N, den: int, printed: dict, ctx: RamifiedContext):
    """The (a, b) component strings, as str(Fraction) prints them, of the
    basis _canonical_basis returns: pi^e_i at (i, i), N[i][j] / den right of
    it and 0 left of it.  ``printed`` keeps the strings printed so far for
    the census, under the int x for x / den and under ("pi", e) for the
    pivot pi^e, so each is printed once; it maps 0 to "0" from the start."""
    rows = []
    for i, (e, row) in enumerate(zip(es, N)):
        pivot = printed.get(("pi", e))
        if pivot is None:
            text = _fraction_text(*_pi0_power(ctx, e))
            pivot = printed["pi", e] = ("0", text) if e % 2 else (text, "0")
        texts = [("0", "0")] * i + [pivot]
        for xy in row[i + 1 :]:
            pair = []
            for x in xy:
                text = printed.get(x)
                if text is None:
                    text = printed[x] = _fraction_text(x, den)
                pair.append(text)
            texts.append(tuple(pair))
        rows.append(tuple(texts))
    return tuple(rows)


def enumerate_vertices(
    L: HermLattice, bounds: EnumerationBounds = EnumerationBounds()
) -> VertexSet:
    """All vertex lattices V with L <= V_dual, with types and inclusion poset.

    Requires L integral for the form.  The VertexSet holds the vertices in
    the order the walk found them, with the poset on walk positions; read
    through ``vertices``, ``poset_edges``, ``to_json`` or equality, it is
    named: each vertex gets the strings of its canonical basis
    (_canonical_basis, _basis_text), and the vertices are sorted by type and
    basis, so the census does not depend on the basis in which L was
    presented.  The walk (_iter_candidates) returns the vertices themselves:
    it decides each candidate where its last column is filled, by the
    quadratic in Z[0][n-1] that is the first check of _is_vertex
    (_last_diagonal), and runs _is_vertex only on what passes.

    The dual columns are a Jordan basis of L^#, times pi^f spanning L, with
    G# their Gram (_dual_jordan_basis).  Past the exact inverses there, one
    per Jordan block, through the canonical bases of the vertices found,
    the work runs on pairs of ints modulo one p^K (see _Quotient); K is the
    least meeting three needs:

    - the vertex test needs K >= c.  With F = max f, pi^F kills L^#/L, so
      pi^F * G# is integral, and so is p^c * G# for c = max(1, ceil(F/2));
    - the back-substitutions of the candidates and the poset divide by the
      pivot exponents of one candidate, which sum to at most floor(d/2), d =
      f_1 + ... + f_n: 2K > floor(d/2) covers them;
    - the canonical bases need 2K >= ord det M + 1 (_canonical_basis).
      With a = ceil(F/2) + h, p^h * L.basis integral (h = 0 for a request
      from the command line, where L is O_H^n), D = p^a * dual is integral
      in ambient coordinates, and a vertex's M = D * Z has ord det M = ord
      det D + e_1 + ... + e_n, at most ord det D + floor(d/2) by the
      candidates' pivot window; ord det D = 2an + ord det(L.basis) - d
      (_dual_jordan_basis, which reads ord det(L.basis) off f and ord det
      G, and takes 0 for the identity basis of a request from the command
      line).  This need implies the second (_precision), so K is the
      larger of c and the least K it allows.

    D is formed when the census is named, so a verify that passes never
    forms it.  The Jordan elimination runs on a wider ring of its own.
    _dual_jordan_basis owns the one precision rule (_precision): after the
    elimination's first certified pass it knows f, and it asks for k = K +
    floor(F/2) digits when that pass gave fewer, so that H = p^c * G# and D
    modulo p^K are those of the exact rational elimination.
    """
    gram_l = L.gram()
    if not gram_l.is_integral():
        raise NonIntegralLatticeError("lattice does not pair integrally with itself")
    if L.n > bounds.max_rank:
        raise EnumerationLimitError(
            f"rank {L.n} exceeds enumeration bound {bounds.max_rank}"
        )
    ctx, p = L.ctx, L.ctx.p
    fs, a, c, q, H, dual, report = _dual_jordan_basis(L, bounds.max_scale)
    found = _iter_candidates(fs, H, c, q, bounds.max_candidates)
    # Containment i < j needs the pivot exponents of i to dominate those of
    # j and to differ from them, as equal exponents mean equal covolumes.
    # Vertices are grouped by exponents, and only pairs of groups that pass
    # meet the back-substitution.
    groups: dict[tuple, list[int]] = {}
    for i, (_, es, _) in enumerate(found):
        groups.setdefault(es, []).append(i)
    edges = []
    for ei, members_i in groups.items():
        for ej, members_j in groups.items():
            if ei == ej or any(x < y for x, y in zip(ei, ej)):
                continue
            for i in members_i:
                for j in members_j:
                    if _contains(found[j][2], ej, found[i][2], ei, q):
                        edges.append((i, j))
    types = tuple(t for t, _, _ in found)
    max_type = max(types, default=-1)

    def name_walk():
        D, den, printed = dual(), p**a, {0: "0"}
        return [
            Vertex(t, _basis_text(*_canonical_basis(D, Z, a, q), den, printed, ctx), L.ambient)
            for t, _, Z in found
        ]

    return VertexSet(types, tuple(edges), max_type, types.count(max_type), report, name_walk)


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
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**record, "counterexamples": list(self.counterexamples), "passed": self.passed}


def _poset_faults(types, edges, max_type: int):
    """The vertices (index, type) below no vertex of type ``max_type``, and
    the edges (a, d) missing from ``edges`` though (a, b) and (b, d) are in
    it, once per such b, in the order of ``edges``."""
    above: dict[int, list[int]] = {}
    for a, b in edges:
        above.setdefault(a, []).append(b)
    lonely = [
        (i, t)
        for i, t in enumerate(types)
        if t != max_type and not any(types[j] == max_type for j in above.get(i, ()))
    ]
    edge_set = set(edges)
    missing = [
        (a, d)
        for a, b in edges
        for d in above.get(b, ())
        if a != d and (a, d) not in edge_set
    ]
    return lonely, missing


def verify_structure_theorems(
    L: HermLattice, bounds: EnumerationBounds = EnumerationBounds()
) -> VerificationReport:
    """Compare the enumerated vertex set with the closed-form predictions.

    Checks: the maximal type equals the formula value t; every vertex is
    contained in one of maximal type; the maximal vertex is unique exactly
    when the irreducibility conditions hold; all types are even; and the
    recorded inclusion poset is transitively closed.

    The checks read the census in walk order, so a passing report names no
    vertex and builds no canonical basis.  When saturation or transitivity
    fails, the census is named and the counterexamples give the indices of
    the printed census (``enumerate_vertices(L).vertices``).
    """
    vs = enumerate_vertices(L, bounds)
    inv: CycleInvariants = invariants_from_report(vs.jordan, L.ctx.p)
    lonely, missing = _poset_faults(vs._types, vs._edges, vs.max_type)
    if lonely or missing:
        lonely, missing = _poset_faults([v.type for v in vs.vertices], vs.poset_edges, vs.max_type)
    counterexamples = []

    max_type_matches = vs.max_type == inv.t
    if not max_type_matches:
        counterexamples.append(
            f"formula t = {inv.t} but enumeration found max type {vs.max_type}"
        )

    for i, t in lonely:
        counterexamples.append(f"vertex {i} (type {t}) lies in no maximal-type vertex")

    predicted_unique = bool(inv.irreducible)
    uniqueness_matches = (vs.max_count == 1) == predicted_unique
    if not uniqueness_matches:
        counterexamples.append(
            f"predicted unique={predicted_unique} but {vs.max_count} maximal vertices"
        )

    all_types_even = all(t % 2 == 0 for t in vs._types)
    if not all_types_even:
        counterexamples.append("odd vertex type found")

    for a, d in missing:
        counterexamples.append(f"missing transitive edge ({a},{d})")

    return VerificationReport(
        formula_t=inv.t,
        max_type=vs.max_type,
        max_count=vs.max_count,
        predicted_unique=predicted_unique,
        max_type_matches=max_type_matches,
        saturation=not lonely,
        uniqueness_matches=uniqueness_matches,
        all_types_even=all_types_even,
        poset_transitive=not missing,
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
