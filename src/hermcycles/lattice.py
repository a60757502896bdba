"""Hermitian O_H-lattices: Gram validation, duals, Jordan splitting.

Conventions.  The Hermitian form is linear in its first argument and
conjugate-linear in the second; the Gram matrix G of a basis has
G[i][j] = h(e_i, e_j), so conjugate symmetry reads G[j][i] = conj(G[i][j]) and
diagonal entries are rational.  A lattice is stored as an invertible matrix
whose columns express its basis in the coordinates of a fixed ambient Gram;
under a basis matrix B the Gram becomes B^T * G * conj(B).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod

from .errors import (
    HermitianViolationError,
    PreconditionError,
    SingularMatrixError,
)
from .padic import _mod, _val, legendre
from .ramified import OHElement, QuadContext, RamifiedContext, pi_power


# ---------------------------------------------------------------------------
# matrix helpers over H (lists of rows of OHElement)


def mat_identity(n: int, ctx: RamifiedContext):
    one, zero = ctx.one(), ctx.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    out = []
    for i in range(n):
        row_a = A[i]
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                x = row_a[t]
                y = B[t][j]
                if x.is_zero() or y.is_zero():
                    continue
                acc = x * y if acc is None else acc + x * y
            row.append(acc if acc is not None else row_a[0].ctx.zero())
        out.append(row)
    return out


def mat_conj(A):
    return [[x.conjugate() for x in row] for row in A]


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def _forward_eliminate(M, n: int, ctx: QuadContext):
    """Forward elimination of the first n columns of the n rows M, in place:
    (pivots, row swaps).  A pivot is the diagonal entry, or when that is zero
    the first nonzero entry below it, swapped up; the pivots stop short of n
    exactly when M is singular.  Zero entries cost nothing, and a pivot is
    inverted only when some row below it has to be cleared."""
    pivots, swaps = [], 0
    for c in range(n):
        piv = next((r for r in range(c, n) if not M[r][c].is_zero()), None)
        if piv is None:
            break
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            swaps += 1
        pivots.append(M[c][c])
        below = [r for r in range(c + 1, n) if not M[r][c].is_zero()]
        if not below:
            continue
        inv = M[c][c].inverse()
        for r in below:
            f = M[r][c] * inv
            M[r] = [x - f * y if y else x for x, y in zip(M[r], M[c])]
    return pivots, swaps


def mat_inverse(A, ctx: RamifiedContext):
    """A**-1 by forward elimination of [A | I], then back substitution;
    SingularMatrixError when A has no inverse."""
    n = len(A)
    M = [row[:] + ident_row for row, ident_row in zip(A, mat_identity(n, ctx))]
    pivots, _ = _forward_eliminate(M, n, ctx)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    X = [None] * n
    for c in range(n - 1, -1, -1):
        row = M[c][n:]
        for j in range(c + 1, n):
            f = M[c][j]
            if f:
                row = [x - f * y if y else x for x, y in zip(row, X[j])]
        inv = pivots[c].inverse()
        X[c] = [x * inv if x else x for x in row]
    return X


def mat_is_integral(A) -> bool:
    return all(x.is_integral() for row in A for x in row)


# ---------------------------------------------------------------------------
# Gram matrices and lattices

class HermGram:
    """A nonsingular conjugate-symmetric matrix over H, or over Q(sqrt(delta)).

    ``name`` is the request field that error locations point into.
    """

    __slots__ = ("entries", "n", "ctx", "_elimination")

    def __init__(self, entries, ctx: QuadContext | None = None, name: str = "gram"):
        rows = [tuple(row) for row in entries]
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise PreconditionError("Gram matrix must be square and nonempty")
        if ctx is None:
            ctx = rows[0][0].ctx
        for i in range(n):
            for j in range(n):
                x = rows[i][j]
                if not isinstance(x, OHElement) or (x.ctx is not ctx and x.ctx != ctx):
                    raise PreconditionError(f"entry ({i},{j}) is not in the given ring")
        for i in range(n):  # integral coordinates are ints, compared without a Fraction
            for j in range(i, n):
                x, y = rows[i][j], rows[j][i]
                if y.a != x.a or y.b != -x.b:
                    raise HermitianViolationError(
                        f"diagonal entry ({i},{i}) must be rational"
                        if i == j
                        else f"entry ({j},{i}) must be the conjugate of entry ({i},{j})",
                        location=f"{name}[{j}][{i}]",
                    )
        self.entries = tuple(rows)
        self.n = n
        self.ctx = ctx
        self._elimination = None

    def elimination(self):
        """(pivots, swaps, det) of one forward elimination (_forward_eliminate),
        computed once; the determinant and positive definiteness read it.  The
        determinant is zero when the pivots stop short of n, else their
        product, negated per row swap."""
        if self._elimination is None:
            ctx = self.ctx
            pivots, swaps = _forward_eliminate([list(r) for r in self.entries], self.n, ctx)
            det = prod(pivots, start=-ctx.one() if swaps % 2 else ctx.one())
            self._elimination = pivots, swaps, det if len(pivots) == self.n else ctx.zero()
        return self._elimination

    def det(self) -> OHElement:
        return self.elimination()[2]

    def det_rational(self) -> int | Fraction:
        """The determinant as an exact rational, an int or a Fraction."""
        d = self.det()
        if d.b:
            raise PreconditionError("Hermitian determinant must be rational")
        return d.a

    def check_nonsingular(self) -> "HermGram":
        if self.det().is_zero():
            raise SingularMatrixError("Gram matrix is singular")
        return self

    def is_integral(self) -> bool:
        return mat_is_integral(self.entries)

    def __eq__(self, other):
        if not isinstance(other, HermGram):
            return NotImplemented
        return self.ctx == other.ctx and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"HermGram({self.entries!r})"


def diagonal_gram(ctx: RamifiedContext, values) -> HermGram:
    vals = [v if isinstance(v, OHElement) else ctx.element(v) for v in values]
    zero = ctx.zero()
    return HermGram(
        [[vals[i] if i == j else zero for j in range(len(vals))] for i in range(len(vals))],
        ctx,
    )


def hyperbolic_gram(ctx: RamifiedContext, i: int) -> HermGram:
    """Rank-2 hyperbolic plane of scale i: [[0, pi**i], [(-pi)**i, 0]]."""
    x = pi_power(ctx, i)
    zero = ctx.zero()
    return HermGram([[zero, x], [x.conjugate(), zero]], ctx)


def orthogonal_sum(*grams: HermGram) -> HermGram:
    ctx = grams[0].ctx
    n = sum(g.n for g in grams)
    zero = ctx.zero()
    rows = [[zero] * n for _ in range(n)]
    offset = 0
    for g in grams:
        for i in range(g.n):
            for j in range(g.n):
                rows[offset + i][offset + j] = g.entries[i][j]
        offset += g.n
    return HermGram(rows, ctx)


class HermLattice:
    """An O_H-lattice inside the space of a fixed ambient Gram matrix."""

    __slots__ = ("ambient", "basis", "_gram")

    def __init__(self, ambient: HermGram, basis):
        self.ambient = ambient
        rows = [tuple(row) for row in basis]
        n = ambient.n
        if len(rows) != n or any(len(r) != n for r in rows):
            raise PreconditionError("basis matrix must match the ambient rank")
        self.basis = tuple(rows)
        self._gram = None

    @classmethod
    def from_gram(cls, gram: HermGram) -> "HermLattice":
        """The lattice whose basis is the identity in the ambient ``gram``.

        Its Gram B^T * G * conj(B) is G itself, so ``gram`` seeds the cache
        (with its elimination, when already computed), and ``L.gram() is
        L.ambient`` tells the enumerator that det(basis) = 1.
        """
        lat = cls(gram, mat_identity(gram.n, gram.ctx))
        lat._gram = gram
        return lat

    @property
    def n(self) -> int:
        return self.ambient.n

    @property
    def ctx(self) -> RamifiedContext:
        return self.ambient.ctx

    def basis_rows(self):
        return [list(row) for row in self.basis]

    def gram(self) -> HermGram:
        """Gram matrix of the lattice basis: B^T * G * conj(B)."""
        if self._gram is None:
            B = self.basis_rows()
            G = [list(r) for r in self.ambient.entries]
            self._gram = HermGram(
                mat_mul(mat_mul(mat_transpose(B), G), mat_conj(B)), self.ctx
            )
        return self._gram

    def dual(self) -> "HermLattice":
        """The lattice of vectors pairing integrally against this one.

        With M the Gram of the basis B, the dual basis is B * conj(M)**-1;
        applying dual twice returns the original lattice.
        """
        M = self.gram().check_nonsingular()
        W = mat_inverse(mat_conj([list(r) for r in M.entries]), self.ctx)
        return HermLattice(self.ambient, mat_mul(self.basis_rows(), W))

    def __repr__(self):
        return f"HermLattice(basis={self.basis!r})"


# ---------------------------------------------------------------------------
# O_H modulo p^K


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
        self.p, self.k, self.m = ctx.p, k, ctx.p**k
        self.pi0 = _mod(ctx.pi0, self.m)
        self.eps = _mod(ctx.eps, self.m)
        self.inv_eps = pow(self.eps, -1, self.m)

    def pi_power(self, e: int) -> tuple[int, int]:
        s = pow(self.pi0, e // 2, self.m)
        return (0, s) if e % 2 else (s, 0)

    def mul(self, x, y) -> tuple[int, int]:
        (xa, xb), (ya, yb), m = x, y, self.m
        return (xa * ya + xb * yb * self.pi0) % m, (xa * yb + xb * ya) % m

    def ord(self, x) -> int:
        """pi-order of a + b*pi by padic's one valuation, read as 2K when
        both vanish modulo p^K."""
        (a, b), p, k = x, self.p, self.k
        return 0 if a % p else min(2 * _val(a, p), 2 * _val(b, p) + 1, 2 * k)

    def has_order(self, x, e: int) -> bool:
        """ord(a + b*pi) >= e: p^ceil(e/2) divides a and p^floor(e/2) divides b."""
        return x[0] % self.p ** ((e + 1) // 2) == 0 and x[1] % self.p ** (e // 2) == 0

    def div_pi_power(self, x, e: int) -> tuple[int, int]:
        """x / pi^e for x of order >= e, from pi^-2 = eps^-1 / p and pi^-1 = pi / pi0."""
        (a, b), m = x, self.m
        if e >= 2:
            q = self.p ** (e // 2)
            u = pow(self.inv_eps, e // 2, m)
            a, b = a // q * u % m, b // q * u % m
        if e % 2:
            a, b = b, a // self.p * self.inv_eps % m
        return a, b


# ---------------------------------------------------------------------------
# Jordan splitting



@dataclass(frozen=True)
class JordanBlock:
    """A pi**scale-modular constituent: scale, rank and determinant class.

    ``det_unit_is_square`` classifies det / pi0**(scale*rank/2); the
    determinant class is well defined because the unit norms are the squares.
    """

    scale: int
    rank: int
    det_val: int
    det_unit_is_square: bool
    is_split_block: bool

    def to_json(self):
        return {
            "scale": self.scale,
            "rank": self.rank,
            "det_val": self.det_val,
            "det_unit_is_square": self.det_unit_is_square,
            "split": self.is_split_block,
        }


@dataclass(frozen=True)
class JordanReport:
    """Canonical Jordan data: blocks with strictly increasing scales."""

    blocks: tuple[JordanBlock, ...]

    def filtered(self, min_scale: int) -> tuple[JordanBlock, ...]:
        return tuple(b for b in self.blocks if b.scale >= min_scale)

    def rank_at(self, scale: int) -> int:
        return sum(b.rank for b in self.blocks if b.scale == scale)

    def to_json(self):
        return [b.to_json() for b in self.blocks]


def is_split_sum(blocks, p: int) -> bool:
    """Whether the Hermitian space spanned by a collection of Jordan blocks
    is split, i.e. an orthogonal sum of hyperbolic planes.

    A space of even dimension 2k is split exactly when its determinant lies
    in (-1)**k * Nm(H^x); odd dimension is never split and the empty
    collection counts as split.  Peeling powers of -pi0 = Nm(pi) off the
    determinant reduces the test to a parity count of non-square unit
    factors, which only needs the stored block data and the square class of
    -1 at p.
    """
    rank, det_val = sum(b.rank for b in blocks), sum(b.det_val for b in blocks)
    return _is_split(rank, det_val, sum(not b.det_unit_is_square for b in blocks), p)


def _is_split(rank: int, det_val: int, non_squares: int, p: int) -> bool:
    """The parity rule of is_split_sum, for a space of rank ``rank`` whose
    determinant has pi-order ``det_val`` and a product of unit parts with
    ``non_squares`` non-square factors; _jordan_report applies it to each
    block.  An odd-scale block is split: its unit part is a norm, so a
    square, and (rank/2) * (scale + 1) is even."""
    if rank % 2:
        return False
    negatives = non_squares
    if p % 4 == 3:
        negatives += rank // 2 + det_val // 2
    return negatives % 2 == 0


def _sub_mul(row, lam, piv, pi0: int, m: int):
    """row - lam * piv, entrywise on pairs modulo m."""
    la, lb = lam
    return [
        ((x - la * c - lb * d * pi0) % m, (y - la * d - lb * c) % m)
        for (x, y), (c, d) in zip(row, piv)
    ]


def _eliminate(M, q: _Quotient):
    """One pass of _jordan_chunks on rows M of Gram pairs, then tracked pairs;
    None when a complement's least order reads 2K - 1 or more."""
    p, m, pi0 = q.p, q.m, q.pi0
    chunks = []
    while M:
        n = len(M)
        # the least order; among its entries a diagonal one, then the first
        for i in range(n):
            if M[i][i][0] % p:  # order 0 on the diagonal: the first is the scan's pick
                s, is_off = 0, False
                break
        else:
            s, is_off, i, j = min(
                (q.ord(M[i][j]), i != j, i, j) for i in range(n) for j in range(i, n)
            )
        if s >= 2 * q.k - 1:
            return None
        if is_off and s % 2 == 0:
            # fold e_i <- e_i + e_j to surface a diagonal entry of order s
            M[i] = row = _sub_mul(M[i], (m - 1, 0), M[j], pi0, m)
            row[i] = ((row[i][0] + row[j][0]) % m, 0)  # a trace: rational
            for r in range(n):
                M[r][i] = (row[r][0], -row[r][1] % m)
            if q.ord(row[i]) != s:
                raise AssertionError("diagonal fold failed to attain the minimal order")
            is_off = False
        # split off the pivot block P (rank 2 at odd s) by e_r <- e_r - sum_b
        # lambda_rb e_b, lambda_r = (c_r / pi^s) * (P / pi^s)^-1 for the row
        # c_r of r in the pivot columns; det(P / pi^s) is a rational unit
        pivots = (i, j) if is_off else (i,)
        block = [[M[a][b] for b in pivots] for a in pivots]
        if is_off:
            (q00, q01), (q10, q11) = [[q.div_pi_power(x, s) for x in row] for row in block]
            det = (q.mul(q00, q11)[0] - q.mul(q01, q10)[0]) % m
            adj = [[q11, (-q01[0] % m, -q01[1] % m)], [(-q10[0] % m, -q10[1] % m), q00]]
        else:
            det = q.div_pi_power(block[0][0], s)[0]
        chunks.append((s, legendre(det, p), block, [M[c][n:] for c in pivots]))
        if n == len(pivots):  # no complement left
            break
        dinv = pow(det, -1, m)
        keep = [r for r in range(n) if r not in pivots]
        cols = keep + list(range(n, len(M[0])))
        piv_rows = [[M[c][l] for l in cols] for c in pivots]
        rest = []
        for r in keep:
            row = [M[r][l] for l in cols]
            if is_off:
                c = [q.div_pi_power(M[r][a], s) for a in pivots]
                lams = ([sum(t) * dinv % m for t in zip(*map(q.mul, c, col))] for col in zip(*adj))
            else:  # P / pi^s is the unit det: lambda_r = (c_r / pi^s) * dinv
                ca, cb = q.div_pi_power(M[r][i], s)
                lams = ((ca * dinv % m, cb * dinv % m),)
            for lam, prow in zip(lams, piv_rows):
                if lam[0] or lam[1]:
                    row = _sub_mul(row, lam, prow, pi0, m)
            rest.append(row)
        M = rest
    return chunks


def _precision_cap(G: HermGram, v: int, j: int) -> int:
    """The K at which a pass certifies every nonsingular G (_jordan_chunks)."""
    ctx, n, f = G.ctx, G.n, G.ctx.pi0.denominator
    den = lcm(*(y.denominator for row in G.entries for x in row for y in (x.a, x.b)))
    r = isqrt(abs(ctx.pi0.numerator * f)) + 1
    bound = prod(sum(abs(x.a * den * f) + abs(x.b * den) * r for x in row) for row in G.entries)
    e = 0
    while bound >= ctx.p:
        bound, e = bound // ctx.p, e + 1
    return e - n * v + 2 * j * n + 1


def _p_denominator(comps, p: int) -> int:
    """The least e >= 0 making p^e * y p-integral for every rational y in comps."""
    return max([0] + [-_val(y, p) for y in comps if y.denominator % p == 0])


def _jordan_chunks(G: HermGram, track: bool = False, k: int = 8):
    """The elimination of jordan_split on pairs of ints (a, b) = a + b*pi
    modulo p^K: (ring, chunks), the ring O_H / p^K it certified (_Quotient),
    K >= k, and a chunk (scale, Legendre symbol of the unit part of the
    block determinant, pivot block, pivot vectors) per pivot, scales
    ascending.  With ``track``, the coordinates of G's basis take the same
    steps: lifted, they give U in GL_n(O_H) with U^T G conj(U) block
    diagonal modulo pi^(2K) when G is integral.

    It runs on p^(2j) * G, p-integral for the least such j; p^(2j) = pi^(4j)
    * eps^(-2j) shifts every scale by 4j (shifted back) and unit parts by
    squares.  A pivot of order s has the least order of its complement, so
    each multiplier, from the pivot block and column divided by pi^s, is
    integral and known modulo pi^(2K - s), and times a pivot-row entry
    modulo pi^(2K): every Schur complement is exact modulo pi^(2K), and
    congruent to that of the exact elimination, whose choices read orders
    below 2K repeat; tracked vectors agree modulo pi^(2K - max scale).  A
    pass is certified when every pivot reads below 2K - 1, which fixes each
    unit part modulo pi^2; the first pass runs at K = k, and an uncertified
    one restarts at 2K, up to K = E + 1 (_precision_cap), where failing
    proves G singular: with pi0 = e/f, den * f * G has entries A + B*pi', A
    and B integers, pi'^2 = e*f, so Hadamard bounds its integer det by
    prod_i sum_j (|A_ij| + |B_ij| * (isqrt|e*f| + 1)), v_p det(p^(2j) G) <=
    E = floor(log_p of that) - n*v_p(den) + 2jn, and every pivot order is at
    most 2E < 2K - 1.  The certified scales do not depend on K, so a caller
    that needs more digits than a certified pass gave asks again with a
    larger k.
    """
    ctx, n, p = G.ctx, G.n, G.ctx.p
    comps = [y for row in G.entries for x in row for y in (x.a, x.b)]
    v = _p_denominator(comps, p)
    j = (v + 1) // 2
    comps = [y * p ** (2 * j) for y in comps] if j else comps
    eye = [[(int(r == c), 0) for c in range(n)] if track else [] for r in range(n)]
    cap = None
    while True:
        q = _Quotient(ctx, k)
        res = iter([_mod(y, q.m) for y in comps])
        chunks = _eliminate([[(next(res), next(res)) for _ in range(n)] + row for row in eye], q)
        if chunks is not None:
            return q, [(s - 4 * j, *rest) for s, *rest in chunks] if j else chunks
        cap = cap or _precision_cap(G, v, j)
        if k >= cap:
            raise SingularMatrixError("Gram matrix is singular")
        k = min(2 * k, cap)


def _vector_scales(chunks) -> list:
    """The scales of the chunks of _jordan_chunks, one per basis vector: a
    rank-2 block gives its scale twice."""
    return [s for s, _, block, _ in chunks for _ in block]


def _jordan_report(chunks, p: int) -> JordanReport:
    """The JordanReport of the chunks of _jordan_chunks."""
    groups = {}  # scale -> [rank, sign]
    for scale, sign, block, _ in chunks:
        group = groups.setdefault(scale, [0, 1])
        group[0] += len(block)
        group[1] *= sign
    blocks = []
    for scale, (rank, sign) in sorted(groups.items()):
        if scale % 2 and rank % 2:
            raise AssertionError("odd-modular block of odd rank")
        split = _is_split(rank, scale * rank, sign != 1, p)
        blocks.append(JordanBlock(scale, rank, scale * rank, sign == 1, split))
    return JordanReport(tuple(blocks))


def jordan_split(G: HermGram) -> JordanReport:
    """Canonical Jordan invariants of a Hermitian Gram matrix.

    Recursive pivoting: a diagonal entry of minimal order splits off a rank-1
    block by one Gram-Schmidt step; a purely off-diagonal minimum of even
    order is folded onto the diagonal first (for odd p the trace of the pivot
    keeps the minimal order); an off-diagonal minimum of odd order splits off
    a rank-2 hyperbolic block.  Scales, ranks and determinant classes do not
    depend on any of the choices made.

    The elimination is its own singularity test: every nonzero Schur
    complement has a pivot of finite order (a diagonal entry, the fold of an
    even off-diagonal entry, or a rank-2 block whose determinant has order
    exactly 2s), so a singular Gram always reaches an all-zero block.  It
    runs modulo a certified power of p (_jordan_chunks); the same
    elimination finds the vertex enumerator's dual basis.
    """
    return _jordan_report(_jordan_chunks(G)[1], G.ctx.p)

