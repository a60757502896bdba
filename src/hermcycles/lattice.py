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

from .errors import (
    HermitianViolationError,
    PreconditionError,
    SingularMatrixError,
)
from .padic import INFINITY, _val, is_square_unit
from .ramified import OHElement, QuadContext, RamifiedContext, pi_power

_ZERO = Fraction(0)


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


def mat_det(A, ctx: QuadContext) -> OHElement:
    """Gaussian elimination; zero entries cost nothing, and a pivot is
    inverted only when some row below it has to be cleared."""
    n = len(A)
    M = [row[:] for row in A]
    det = ctx.one()
    for c in range(n):
        piv = next((r for r in range(c, n) if not M[r][c].is_zero()), None)
        if piv is None:
            return ctx.zero()
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det = det * M[c][c]
        below = [r for r in range(c + 1, n) if not M[r][c].is_zero()]
        if not below:
            continue
        inv = M[c][c].inverse()
        for r in below:
            f = M[r][c] * inv
            M[r] = [x - f * y if y else x for x, y in zip(M[r], M[c])]
    return det


def mat_inverse(A, ctx: RamifiedContext):
    """Gauss-Jordan elimination on [A | I]; zero entries cost nothing."""
    n = len(A)
    M = [row[:] + ident_row[:] for row, ident_row in zip(A, mat_identity(n, ctx))]
    for c in range(n):
        piv = next((r for r in range(c, n) if not M[r][c].is_zero()), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
        inv = M[c][c].inverse()
        M[c] = [x * inv if x else x for x in M[c]]
        for r in range(n):
            if r == c or M[r][c].is_zero():
                continue
            f = M[r][c]
            M[r] = [x - f * y if y else x for x, y in zip(M[r], M[c])]
    return [row[n:] for row in M]


def mat_is_integral(A) -> bool:
    return all(x.is_integral() for row in A for x in row)


# ---------------------------------------------------------------------------
# Gram matrices and lattices


class HermGram:
    """A nonsingular conjugate-symmetric matrix over H, or over Q(sqrt(delta)).

    ``name`` is the request field that error locations point into.
    """

    __slots__ = ("entries", "n", "ctx", "_det")

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
                if not isinstance(x, OHElement) or x.ctx != ctx:
                    raise PreconditionError(f"entry ({i},{j}) is not in the given ring")
        for i in range(n):
            for j in range(i, n):
                if rows[j][i] != rows[i][j].conjugate():
                    raise HermitianViolationError(
                        f"entry ({j},{i}) must be the conjugate of entry ({i},{j})",
                        location=f"{name}[{j}][{i}]",
                    )
        self.entries = tuple(rows)
        self.n = n
        self.ctx = ctx
        self._det = None

    def det(self) -> OHElement:
        if self._det is None:
            self._det = mat_det([list(r) for r in self.entries], self.ctx)
        return self._det

    def det_rational(self) -> Fraction:
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

    def scaled(self, u) -> "HermGram":
        """Gram of the same basis with the form scaled by a rational unit."""
        u = Fraction(u)
        s = OHElement._raw(u, _ZERO, self.ctx)
        return HermGram([[x * s for x in row] for row in self.entries], self.ctx)

    def __eq__(self, other):
        if not isinstance(other, HermGram):
            return NotImplemented
        return self.ctx == other.ctx and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"HermGram({self.entries!r})"

    def to_json(self):
        return [[x.to_json() for x in row] for row in self.entries]


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
        (with its determinant, when already computed).
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

    def to_json(self):
        return {"basis": [[x.to_json() for x in row] for row in self.basis]}


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

    def total_rank(self) -> int:
        return sum(b.rank for b in self.blocks)

    def det_ord(self) -> int:
        return sum(b.scale * b.rank for b in self.blocks)

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
    rank = sum(b.rank for b in blocks)
    if rank % 2:
        return False
    half_det_ord = sum(b.det_val for b in blocks) // 2
    negatives = 0
    if p % 4 == 3:
        negatives += rank // 2 + half_det_ord
    negatives += sum(1 for b in blocks if not b.det_unit_is_square)
    return negatives % 2 == 0


def _min_entry_ord(M):
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


def _jordan_chunks(G: HermGram, vectors):
    """The pivoting of jordan_split, applying each basis change to ``vectors``
    too (one coordinate vector per basis vector of G, possibly of length 0).
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
    exactly 2s), so a singular Gram always reaches an all-zero block.  The
    same elimination (_jordan_chunks) finds the vertex enumerator's dual basis.
    """
    grouped: dict[int, list] = {}
    for scale, det, block, _ in _jordan_chunks(G, [()] * G.n):
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


def det_class(G: HermGram) -> tuple[int, bool]:
    """(pi-order of det, whether the pi0-normalized unit part is a square)."""
    d = G.check_nonsingular().det_rational()
    v = 2 * _val(d, G.ctx.p)
    unit = d / G.ctx.pi0 ** (v // 2)
    return v, is_square_unit(unit, G.ctx.p)
