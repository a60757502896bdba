import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from support import (
    acceptance_family,
    birkhoff_count,
    block_sum_family,
    completed_candidates,
    contains,
    elementary_divisor_exponents,
    jordan_chunks_oracle,
    mat_det,
    _oracle_vertex_type,
    oracle_vertex_census,
    random_basis_change,
    random_hermitian_gram,
    same_lattice,
    smallest_nonresidue,
    snf_dual_basis,
    verify_report_oracle,
)

from hermcycles import (
    EnumerationBounds,
    EnumerationLimitError,
    HermGram,
    HermLattice,
    NonIntegralLatticeError,
    RamifiedContext,
    SingularMatrixError,
    diagonal_gram,
    enumerate_vertices,
    hyperbolic_gram,
    jordan_split,
    orthogonal_sum,
    pi_power,
    poset_dot,
    verify_structure_theorems,
)
from hermcycles import lattice, vertices
from hermcycles.lattice import _Quotient, mat_conj, mat_inverse, mat_mul
from hermcycles.padic import _mod
from hermcycles.ramified import OHElement


def test_unimodular_has_single_vertex():
    ctx = RamifiedContext(3, 1)
    L = HermLattice.from_gram(diagonal_gram(ctx, [1, 1]))
    vs = enumerate_vertices(L)
    assert [v.type for v in vs.vertices] == [0]
    assert vs.max_type == 0 and vs.max_count == 1
    assert same_lattice(vs.vertices[0].lattice, L)
    assert vs.poset_edges == ()


def test_hyperbolic_plane_census_p3():
    ctx = RamifiedContext(3, 1)
    L = HermLattice.from_gram(hyperbolic_gram(ctx, 1))
    vs = enumerate_vertices(L)
    assert sorted(v.type for v in vs.vertices) == [0, 0, 0, 0, 2]
    assert vs.max_type == 2 and vs.max_count == 1
    # the type-2 vertex is the dual lattice, and all lines sit inside it
    top = [i for i, v in enumerate(vs.vertices) if v.type == 2][0]
    assert same_lattice(vs.vertices[top].lattice, L.dual())
    assert set(vs.poset_edges) == {(i, top) for i in range(len(vs.vertices)) if i != top}


def test_nonsplit_pair_unique_vertex():
    ctx = RamifiedContext(3, 1)
    L = HermLattice.from_gram(diagonal_gram(ctx, [ctx.pi0, ctx.pi0]))
    vs = enumerate_vertices(L)
    assert vs.max_type == 0 and vs.max_count == 1 and len(vs.vertices) == 1
    # the unique vertex is pi^-1 L, with a self-dual Gram
    expected = HermLattice(
        L.ambient, [[x * pi_power(ctx, -1) for x in row] for row in L.basis]
    )
    assert same_lattice(vs.vertices[0].lattice, expected)


def test_split_pair_is_not_unique():
    # diag(pi0, pi0*u) with -u a square has two maximal vertices
    ctx = RamifiedContext(3, 1)
    r = smallest_nonresidue(3)
    L = HermLattice.from_gram(diagonal_gram(ctx, [ctx.pi0, ctx.pi0 * r]))
    vs = enumerate_vertices(L)
    assert vs.max_type == 2
    assert vs.max_count >= 2


def _quotient_exponents(V):
    """Elementary divisors of V over its dual (V/V^# = sum of O/pi^e)."""
    W = mat_inverse(mat_conj([list(row) for row in V.gram().entries]), V.ctx)
    return elementary_divisor_exponents(W, V.ctx)


def test_types_match_quotient_lengths():
    # independent check: type equals the length of V over its dual, computed
    # by a standalone elementary-divisor routine on the inclusion matrix
    rng = random.Random(13)
    checked = 0
    for trial in range(40):
        p = rng.choice([3, 5])
        ctx = RamifiedContext(p, F(rng.choice([1, -1])))
        G = random_hermitian_gram(rng, ctx, rng.randint(1, 2))
        L = HermLattice.from_gram(G)
        try:
            vs = enumerate_vertices(L, EnumerationBounds(3, 4, 10**6))
        except EnumerationLimitError:
            continue
        for v in vs.vertices:
            exps = _quotient_exponents(v.lattice)
            assert all(0 <= e <= 1 for e in exps)
            assert sum(exps) == v.type
            checked += 1
    assert checked > 30


def test_enumeration_is_basis_independent():
    # equal censuses compare and hash equal as VertexSets too: a Vertex
    # compares its type and canonical basis, not the identity of a lattice
    # object, and a census its printed poset, not the order of the walk
    rng = random.Random(14)
    ctx = RamifiedContext(3, 1)
    G = orthogonal_sum(hyperbolic_gram(ctx, 1), diagonal_gram(ctx, [1]))
    L = HermLattice.from_gram(G)
    census = enumerate_vertices(L)
    reference = census.to_json()
    assert enumerate_vertices(L) == census
    for _ in range(5):
        U = random_basis_change(rng, ctx, 3)
        moved = HermLattice(G, mat_mul(L.basis_rows(), U))
        vs = enumerate_vertices(moved)
        assert vs.to_json() == reference
        assert vs == census and vs.vertices == census.vertices
        assert hash(vs) == hash(census)
    assert census != replace(census, _edges=census._edges[1:])
    assert (census == 3) is False


def test_bounds_and_preconditions():
    ctx = RamifiedContext(3, 1)
    big = HermLattice.from_gram(diagonal_gram(ctx, [1, 1, 1, 1]))
    with pytest.raises(EnumerationLimitError):
        enumerate_vertices(big)  # rank 4 > default 3
    deep = HermLattice.from_gram(diagonal_gram(ctx, [ctx.pi0**2]))
    with pytest.raises(EnumerationLimitError):
        enumerate_vertices(deep, EnumerationBounds(max_scale=3))  # scale 4
    h1 = HermLattice.from_gram(hyperbolic_gram(ctx, 1))
    with pytest.raises(EnumerationLimitError) as err:
        enumerate_vertices(h1, EnumerationBounds(max_candidates=2))
    assert err.value.count == 3
    bad = HermLattice.from_gram(
        diagonal_gram(ctx, [F(1, 3)])
    )
    with pytest.raises(NonIntegralLatticeError):
        enumerate_vertices(bad)


def test_a_singular_ambient_off_the_identity_basis_raises_before_any_determinant(monkeypatch):
    # The setup reads ord det(L.basis) off the ambient's determinant only
    # after the certified Jordan elimination: on a singular ambient in a
    # random basis that elimination raises first, and no Fraction
    # elimination (of the ambient or of the basis) runs.
    ctx = RamifiedContext(3, 1)
    one = ctx.one()
    G = HermGram([[one, one], [one, one]], ctx)
    U = random_basis_change(random.Random(7), ctx, 2)
    eliminated = []
    real = lattice._forward_eliminate
    monkeypatch.setattr(lattice, "_forward_eliminate", lambda *args: eliminated.append(args) or real(*args))
    for run in (enumerate_vertices, verify_structure_theorems):
        with pytest.raises(SingularMatrixError, match="^Gram matrix is singular$"):
            run(HermLattice(G, U))
    assert eliminated == []


def _oracle_cases():
    """Every family lattice of rank <= 3, and three lattices per rational eps."""
    yield from acceptance_family(include_h13_primes=())
    for p, eps in ((3, F(1, 2)), (3, F(-5, 7)), (5, F(1, 2)), (5, F(-3, 7))):
        ctx = RamifiedContext(p, eps)
        yield f"p{p},eps{eps}:H(1)", ctx, hyperbolic_gram(ctx, 1)
        yield f"p{p},eps{eps}:H(3)", ctx, hyperbolic_gram(ctx, 3)
        yield f"p{p},eps{eps}:diag(pi0^2, 2*pi0^2)", ctx, diagonal_gram(
            ctx, [ctx.pi0**2, 2 * ctx.pi0**2]
        )


def test_integer_kernel_agrees_with_the_fraction_oracle():
    # The oracle counts the candidate residues it visits; the enumerator must
    # raise at one below that count, with the count at which the oracle
    # itself would raise (one past its limit), and finish at the count.
    rng = random.Random(21)
    bounds = EnumerationBounds(max_scale=4)
    checked = 0
    for label, ctx, G in _oracle_cases():
        U = random_basis_change(rng, ctx, G.n)
        L = HermLattice(G, mat_mul(HermLattice.from_gram(G).basis_rows(), U))
        expected, visited = oracle_vertex_census(L, bounds)
        at_limit = replace(bounds, max_candidates=visited)
        assert enumerate_vertices(L, at_limit).to_json() == expected, label
        with pytest.raises(EnumerationLimitError) as err:
            enumerate_vertices(L, replace(bounds, max_candidates=visited - 1))
        assert err.value.count == visited, label
        checked += 1
    assert checked == 164 + 12



def test_vertex_test_rejects_at_an_entry_above_the_diagonal():
    # A Gram M whose diagonal passes and whose entries above it have order
    # >= -1 but one, (1 + pi)/3 of order -2, at each of S[1][2], S[0][2] and
    # S[0][1] in turn.  M has type 2 and its F_p residue rank 2, so only that
    # entry's integrality check rejects it, as the exact test does.  The
    # Jordan-basis candidates of the census families rarely or never reject
    # there, so the Gram is built by hand (Z = I, H = p^c * M with c = 1).
    ctx = RamifiedContext(3, 1)
    q = _Quotient(ctx, 4)
    zero, one, x = ctx.zero(), ctx.one(), OHElement(F(1, 3), F(1, 3), ctx)
    identity = [[one if i == j else zero for j in range(3)] for i in range(3)]
    Z = [[q.pi_power(0) if i == j else (0, 0) for j in range(3)] for i in range(3)]
    for i, j in ((1, 2), (0, 2), (0, 1)):
        M = [[zero, one, one], [one, zero, one], [one, one, zero]]
        M[i][j], M[j][i] = x, x.conjugate()
        t = -mat_det(M, ctx).ord()
        assert t == 2
        H = [[(k, (_mod(3 * y.a, q.m), _mod(3 * y.b, q.m))) for k, y in enumerate(row) if y] for row in M]
        assert not vertices._is_vertex(Z, H, 1, t, q), (i, j)
        assert _oracle_vertex_type(identity, M, ctx) is None, (i, j)

def test_vertex_test_meets_only_the_survivors_of_the_last_diagonal(monkeypatch):
    # a cost guard that reads no clock: the walk checks S[n-1][n-1] at its
    # last slot, so _is_vertex meets only the residues that pass it.  At p=3,
    # H(3) has 53 candidates and 21 vertices, and H(1)+(pi0) 35 candidates
    # and 5 vertices; every candidate met _is_vertex before.
    calls = []
    real = vertices._is_vertex
    monkeypatch.setattr(vertices, "_is_vertex", lambda *args: calls.append(args) or real(*args))
    grams = {label: G for label, _, G in acceptance_family()}
    for label, tests, found in (("p3,eps1:H(3)", 21, 21), ("p3,eps1:H(1)+(pi0)", 14, 5)):
        calls.clear()
        vs = enumerate_vertices(HermLattice.from_gram(grams[label]))
        assert (len(calls), len(vs._types)) == (tests, found), label


def test_the_walk_completes_the_birkhoff_count_of_candidates():
    # A completeness check that shares nothing with the walk's triangular
    # scheme: the candidates it completes number the submodules of L^#/L of
    # length in the walk's window (Birkhoff-Butler, on the scales of the
    # Smith-form oracle).  H(1)+H(3) at p=3 has 2,712.
    bounds = EnumerationBounds(max_rank=4, max_scale=4)
    for label, ctx, G in acceptance_family():
        L = HermLattice.from_gram(G)
        assert completed_candidates(L, bounds) == birkhoff_count(snf_dual_basis(L)[1], ctx.p), label


def _det_bookkeeping_holds(L, fs):
    # the Jordan basis is L.basis times a matrix in GL_n(O_H), so the scales
    # add up to ord det Gram(L) = ord det G + 2 * ord det(L.basis); the
    # enumerator's modulus relies on it in place of ord det G
    return sum(fs) == L.ambient.det().ord() + 2 * mat_det(L.basis_rows(), L.ctx).ord()


def _exact_dual_jordan_basis(L):
    """The dual columns, f and G# of _dual_jordan_basis, built on the exact
    rational elimination of tests/support.py with one dense inverse of the
    n x n conj(J), independently of the setup's inverses per Jordan block."""
    ctx, n = L.ctx, L.n
    cols = [[L.basis[i][j] for i in range(n)] for j in range(n)]
    J = [[ctx.zero()] * n for _ in range(n)]
    vecs, fs = [], []
    for scale, _, block, pivots in jordan_chunks_oracle(L.gram(), cols):
        k = len(vecs)
        for r, row in enumerate(block):
            J[k + r][k : k + len(row)] = row
        vecs.extend(pivots)
        fs.extend([scale] * len(pivots))
    W = mat_inverse(mat_conj(J), ctx)
    return mat_mul([[v[i] for v in vecs] for i in range(n)], W), fs, mat_conj(W)


def _denominator_exponent(A, p):
    """The least e >= 0 making p^e * A integral."""
    return max([0] + [(1 - x.ord()) // 2 for row in A for x in row if not x.is_zero()])


def _lift(residues, ctx, scale):
    """The matrix of int pairs as elements, divided by the int ``scale``."""
    return [[OHElement(F(x, scale), F(y, scale), ctx) for x, y in row] for row in residues]


def _dense(sparse_rows):
    """A matrix given as rows of (column, entry), with (0, 0) elsewhere."""
    n = len(sparse_rows)
    rows = [[(0, 0)] * n for _ in range(n)]
    for row, entries in zip(rows, sparse_rows):
        for j, x in entries:
            row[j] = x
    return rows


def _residues(A, scale, m):
    """The entries of the integral scale * A as int pairs modulo m."""
    return [[(_mod(x.a * scale, m), _mod(x.b * scale, m)) for x in row] for row in A]


def test_dual_basis_is_a_jordan_basis_of_the_dual(monkeypatch):
    # the dual columns span L^#, dual * diag(pi^f) spans L, f ascends as the
    # oracle's Smith form says, and G# is the Gram of the dual columns: exactly
    # when built on the exact elimination, and modulo pi^(20 - 2F) on the
    # modular one, run twice per lattice (G# = H / p^c is read modulo
    # pi^(2K - 2c), c <= F + 1): once with the walk's modulus forced to
    # K = 11, so the elimination runs at the rule's k = K + floor(F/2), and
    # once with the elimination forced to k = 11 and H and D kept modulo p^K,
    # K = k.  The setup eliminates at p^8, then asks for the forced k.  In
    # both, the int residues D = p^a * dual and H = p^c * G# modulo p^K are
    # those of the exact elimination modulo pi^min(2K, 2k - 2F + 2w) and
    # pi^min(2K, 2k - 2F + 2c), w = ceil(F/2), the orders
    # _dual_jordan_basis's precision rule rests on: exactness modulo p^K in
    # the first run, the tight bound in the second.  The lattices are the
    # block sums in random bases (h = 0) and the lattices off the identity
    # basis, some with h = 1.  The report is that of jordan_split
    rng = random.Random(42)
    K = 11
    real_precision, real_eliminate, passes = vertices._precision, lattice._eliminate, []
    forced = {  # the walk's modulus and the elimination's k, for scales f
        "walk": lambda fs: (K, K + max(fs) // 2),
        "elimination": lambda fs: (K - max(fs) // 2, K),
    }
    monkeypatch.setattr(lattice, "_eliminate", lambda M, q: passes.append(q.k) or real_eliminate(M, q))
    cases = [
        (label, HermLattice(G, random_basis_change(rng, ctx, G.n))) for label, ctx, G in block_sum_family()
    ]
    for label, G, B in _off_identity_cases():
        cases.append((label, HermLattice(G, mat_mul(B, random_basis_change(rng, G.ctx, 2)))))
    for label, L in cases:
        ctx, G, p = L.ctx, L.ambient, L.ctx.p
        exact_dual, _, exact_gram_dual = _exact_dual_jordan_basis(L)
        assert exact_gram_dual == [list(r) for r in HermLattice(G, exact_dual).gram().entries], label
        for mode, moduli in forced.items():
            with monkeypatch.context() as mp:
                mp.setattr(vertices, "_precision", lambda fs, h, o: (*real_precision(fs, h, o)[:2], *moduli(fs)))
                if mode == "elimination":
                    mp.setattr(vertices, "_Quotient", lambda ctx, _: _Quotient(ctx, K))
                passes.clear()
                fs, a, c, q, H, dual, report = vertices._dual_jordan_basis(L, 4)
                D = dual()
            F, h = max(fs), _denominator_exponent(L.basis, p)
            w, k = (F + 1) // 2, passes[-1]
            assert (a, c, q.k, passes) == (w + h, max(1, w), K, [8, moduli(fs)[1]]), (label, mode)
            assert fs == snf_dual_basis(L)[1], label
            assert _denominator_exponent(exact_dual, p) <= a, label
            if mode == "walk":
                assert 2 * k - 2 * F + 2 * w == 2 * K, label
            for residues, exact, e, s in ((D, exact_dual, w, a), (_dense(H), exact_gram_dual, c, c)):
                assert all(
                    (x - y * p**s).ord() >= min(2 * K, 2 * k - 2 * F + 2 * e)
                    for r, t in zip(_lift(residues, ctx, 1), exact)
                    for x, y in zip(r, t)
                ), (label, mode)
            dual, gram_dual = _lift(D, ctx, p**a), _lift(_dense(H), ctx, p**c)
            assert same_lattice(HermLattice(G, dual), L.dual()), label
            scaled = [[x * pi_power(ctx, f) for x, f in zip(row, fs)] for row in dual]
            assert same_lattice(HermLattice(G, scaled), L), label
            gram = HermLattice(G, dual).gram().entries
            assert all(
                (x - y).ord() >= 20 - 2 * F for r, t in zip(gram_dual, gram) for x, y in zip(r, t)
            ), (label, mode)
            assert report == jordan_split(L.gram()), label
            assert _det_bookkeeping_holds(L, fs), label


class _SetupSeen(Exception):
    pass


def test_enumerator_setup_agrees_with_the_exact_elimination(monkeypatch):
    # f, K, H = p^c * G# and D = p^a * dual modulo p^K, as the enumeration
    # reads them, equal what the exact rational elimination (with the same
    # pivots) gives; so the modular elimination changes no residue the walk,
    # the vertex test or the canonical bases see.  The census's a is
    # ceil(F/2) + h, p^h * L.basis integral, so p^a * dual is integral, and
    # K is the walk's modulus for that a
    seen = {}
    real = vertices._dual_jordan_basis

    def setup(L, max_scale):
        seen["setup"] = real(L, max_scale)
        return seen["setup"]

    def candidates(fs, H, c, q, max_candidates):
        seen["fs"], seen["m"] = fs, q.m
        raise _SetupSeen

    monkeypatch.setattr(vertices, "_dual_jordan_basis", setup)
    monkeypatch.setattr(vertices, "_iter_candidates", candidates)
    rng = random.Random(43)
    cases = [(label, HermLattice.from_gram(G)) for label, _, G in acceptance_family()]
    for label, ctx, G in block_sum_family():
        cases.append((label, HermLattice(G, random_basis_change(rng, ctx, G.n))))
    for label, G, B in _off_identity_cases():
        cases.append((label, HermLattice(G, mat_mul(B, random_basis_change(rng, G.ctx, 2)))))
    bounds = EnumerationBounds(max_rank=4, max_scale=4)
    for label, L in cases:
        seen.clear()
        with pytest.raises(_SetupSeen):
            enumerate_vertices(L, bounds)
        dual, fs, gram_dual = _exact_dual_jordan_basis(L)
        p = L.ctx.p
        c = max(1, (max(fs) + 1) // 2)
        h = _denominator_exponent(L.basis, p)
        a = (max(fs) + 1) // 2 + h
        assert _denominator_exponent(dual, p) <= a, label
        m = p ** vertices._precision(fs, h, mat_det(L.basis_rows(), L.ctx).ord())[2]
        assert seen["fs"] == fs, label
        assert seen["m"] == m, label
        fs_seen, a_seen, c_seen, _, H_seen, dual_seen, _ = seen["setup"]
        D_seen = dual_seen()
        assert (fs_seen, c_seen, a_seen) == (fs, c, a), label
        assert [[(x % m, y % m) for x, y in row] for row in _dense(H_seen)] == _residues(gram_dual, p**c, m), label
        assert [[(x % m, y % m) for x, y in row] for row in D_seen] == _residues(dual, p**a, m), label


def test_the_elimination_is_asked_for_one_scale_per_basis_vector(monkeypatch):
    # The enumerator asks the Jordan elimination for k = K' + floor(F/2)
    # digits, K' the walk's modulus (_precision) of the scales one per basis
    # vector, so a rank-2 block counts twice.  The rule is read once, on the
    # scales of the first certified pass at k = 8, and the elimination makes
    # one more pass, at the rule's k, only when the rule asks for more.
    # H(1)+H(3) (at p = 3 and 5), H(3)+(pi0^2) and H(1) ask for 8, 7 and 2,
    # which the first pass gives.  H(1)+(1)+(pi0^2), of scales [0, 1, 1, 4],
    # asks for k = 9 and makes the second pass; counted once per block,
    # [0, 1, 4], its rule would ask for k = 7, fewer digits than
    # _dual_jordan_basis needs to be exact, and the first pass would be kept.
    scales, passes = [], []
    real_precision, real_eliminate = vertices._precision, lattice._eliminate

    def precision(fs, h, ord_det_basis):
        scales.append(fs)
        return real_precision(fs, h, ord_det_basis)

    def candidates(fs, H, c, q, max_candidates):
        raise _SetupSeen

    monkeypatch.setattr(vertices, "_precision", precision)
    monkeypatch.setattr(vertices, "_iter_candidates", candidates)
    monkeypatch.setattr(lattice, "_eliminate", lambda M, q: passes.append(q.k) or real_eliminate(M, q))
    bounds = EnumerationBounds(max_rank=4, max_scale=4)
    cases = []
    for p in (3, 5):
        ctx = RamifiedContext(p, 1)
        cases.append((f"p{p}:H(1)+H(3)", orthogonal_sum(hyperbolic_gram(ctx, 1), hyperbolic_gram(ctx, 3)), [8]))
    ctx = RamifiedContext(3, 1)
    cases.append(("p3:H(3)+(pi0^2)", orthogonal_sum(hyperbolic_gram(ctx, 3), diagonal_gram(ctx, [ctx.pi0**2])), [8]))
    cases.append(("p3:H(1)", hyperbolic_gram(ctx, 1), [8]))
    h1_1_pi4 = orthogonal_sum(hyperbolic_gram(ctx, 1), diagonal_gram(ctx, [1, ctx.pi0**2]))
    cases.append(("p3:H(1)+(1)+(pi0^2)", h1_1_pi4, [8, 9]))
    for label, G, expected in cases:
        L = HermLattice.from_gram(G)
        scales.clear()
        passes.clear()
        with pytest.raises(_SetupSeen):
            enumerate_vertices(L, bounds)
        (fs,) = scales
        assert len(fs) == L.n, label
        assert passes == expected, (label, fs)
        assert passes[-1] == max(8, real_precision(fs, 0, 0)[3]), label
    assert real_precision([0, 1, 4], 0, 0)[3] == 7  # H(1)+(1)+(pi0^2) once per block


def _off_identity_cases():
    """Lattices that are not O_H^n in their ambient Gram, as (label, ambient,
    basis): the canonical bases are then found with a = ceil(F/2) + h, p^h *
    L.basis integral, which differs from the command-line value c = max(1,
    ceil(F/2)) in the third and fourth (h = 1).  In the last, p * L^# is
    already integral in the ambient, so a = 2 is more than D needs."""
    for p, eps in ((3, F(1)), (3, F(1, 2)), (3, F(-5, 7)), (5, F(1, 2))):
        ctx = RamifiedContext(p, eps)
        zero = ctx.zero()

        def diag(e1, e2):
            return [[pi_power(ctx, e1), zero], [zero, pi_power(ctx, e2)]]

        h1, h3 = hyperbolic_gram(ctx, 1), hyperbolic_gram(ctx, 3)
        shallow, deep = diagonal_gram(ctx, [1, ctx.pi0]), diagonal_gram(ctx, [ctx.pi0**2, 1])
        tag = f"p{p},eps{eps}"
        yield f"{tag}:span(pi*e1, e2) in diag(1, pi0)", shallow, diag(1, 0)  # a = c = 1
        yield f"{tag}:span(pi*e1, e2) in H(1)", h1, diag(1, 0)  # a = c = 1
        yield f"{tag}:span(pi^-1*e1, e2) in diag(pi0^2, 1)", deep, diag(-1, 0)  # a = 2, c = 1
        yield f"{tag}:span(pi^-1*e1, e2) in H(3)", h3, diag(-1, 0)  # a = 2, c = 1
        yield f"{tag}:pi*O^2 in H(1)", h1, diag(1, 1)  # a = c = 2


def test_canonical_bases_off_the_identity_basis_agree_with_the_oracle():
    rng = random.Random(22)
    bounds = EnumerationBounds(max_scale=4)
    for label, G, B in _off_identity_cases():
        L = HermLattice(G, mat_mul(B, random_basis_change(rng, G.ctx, 2)))
        expected, _ = oracle_vertex_census(L, bounds)
        vs = enumerate_vertices(L, bounds)
        assert vs.to_json() == expected, label
        # each basis on its own: the census alone can hide wrong bases when
        # a unit permutes the residues of a whole family of vertices
        for v in vs.vertices:
            V = v.lattice
            assert contains(V.dual(), L), label
            exps = _quotient_exponents(V)
            assert all(0 <= e <= 1 for e in exps) and sum(exps) == v.type, label


def test_census_is_the_same_with_the_gram_from_gram_keeps():
    bounds = EnumerationBounds(max_scale=4)
    for label, ctx, G in acceptance_family(include_h13_primes=()):
        if ctx.p != 3:
            continue
        seeded = HermLattice.from_gram(G)
        rebuilt = HermLattice(G, seeded.basis_rows())
        assert seeded.gram() is G and rebuilt.gram() is not G
        assert (
            enumerate_vertices(seeded, bounds).to_json()
            == enumerate_vertices(rebuilt, bounds).to_json()
        ), label
        assert (
            verify_structure_theorems(seeded, bounds).to_json()
            == verify_structure_theorems(rebuilt, bounds).to_json()
        ), label


def test_verify_hyperbolic_plane():
    ctx = RamifiedContext(3, 1)
    rep = verify_structure_theorems(HermLattice.from_gram(hyperbolic_gram(ctx, 1)))
    assert rep.passed
    assert rep.formula_t == rep.max_type == 2
    assert rep.max_count == 1 and rep.predicted_unique


def _cut(vs, *printed):
    """``vs`` without the walk edges that name to the ``printed`` edges, and
    those walk edges."""
    index = [vs.vertices.index(v) for v in vs._name_walk()]  # printed index by walk position
    walk = [(a, b) for a, b in vs._edges if (index[a], index[b]) in printed]
    assert len(walk) == len(printed)
    return replace(vs, _edges=tuple(e for e in vs._edges if e not in walk)), walk


def test_verify_reports_a_vertex_outside_every_maximal_vertex(monkeypatch):
    # H(1) at p=3: four type-0 vertices, each inside the one vertex of type 2
    ctx = RamifiedContext(3, 1)
    L = HermLattice.from_gram(hyperbolic_gram(ctx, 1))
    vs = enumerate_vertices(L)
    assert [v.type for v in vs.vertices] == [0, 0, 0, 0, 2]
    assert vs.poset_edges == ((0, 4), (1, 4), (2, 4), (3, 4))
    cut, [(a, _)] = _cut(vs, (2, 4))
    assert a != 2  # the message numbers the vertex as printed, not as walked
    monkeypatch.setattr(vertices, "enumerate_vertices", lambda L, bounds: cut)
    rep = verify_structure_theorems(L)
    assert rep.saturation is False and not rep.passed
    assert rep.max_type_matches and rep.uniqueness_matches
    assert rep.all_types_even and rep.poset_transitive
    assert rep.counterexamples == ("vertex 2 (type 0) lies in no maximal-type vertex",)
    assert cut.poset_edges == ((0, 4), (1, 4), (3, 4))


def test_verify_reports_max_type_uniqueness_and_odd_type_counterexamples(monkeypatch):
    # H(1) at p=3: the formula says t = 2 and a unique maximal vertex, and the
    # census agrees; each check is made to fail on its own, by moving the
    # formula's t or its irreducibility, or by giving one vertex an odd type
    ctx = RamifiedContext(3, 1)
    L = HermLattice.from_gram(hyperbolic_gram(ctx, 1))
    vs = enumerate_vertices(L)
    real = vertices.invariants_from_report
    inv = real(vs.jordan, 3)
    assert (inv.t, inv.irreducible, vs.max_type, vs.max_count) == (2, True, 2, 1)
    odd = replace(vs, _types=tuple(1 if t == 0 else t for t in vs._types))
    checks = ("max_type_matches", "saturation", "uniqueness_matches", "all_types_even", "poset_transitive")
    cases = (
        (vs, {"t": 4}, "max_type_matches", "formula t = 4 but enumeration found max type 2"),
        (vs, {"irreducible": False}, "uniqueness_matches", "predicted unique=False but 1 maximal vertices"),
        (odd, {}, "all_types_even", "odd vertex type found"),
    )
    for census, moved, check, message in cases:
        with monkeypatch.context() as mp:
            mp.setattr(vertices, "enumerate_vertices", lambda L, bounds: census)
            mp.setattr(vertices, "invariants_from_report", lambda r, p: replace(real(r, p), **moved))
            rep = verify_structure_theorems(L)
        assert not rep.passed and rep.counterexamples == (message,), check
        assert [name for name in checks if not getattr(rep, name)] == [check]


def test_verify_reports_missing_transitive_edges_in_poset_order(monkeypatch):
    # H(1) + H(1) at p=3: types 0, 2 and 4, one vertex of type 4 above all
    ctx = RamifiedContext(3, 1)
    L = HermLattice.from_gram(orthogonal_sum(hyperbolic_gram(ctx, 1), hyperbolic_gram(ctx, 1)))
    bounds = EnumerationBounds(max_rank=4)
    vs = enumerate_vertices(L, bounds)
    types = [v.type for v in vs.vertices]
    assert (types[:2], types[-1], types.count(4), len(types)) == ([0, 0], 4, 1, 81)
    cut, walk = _cut(vs, (0, 80), (1, 80))
    assert sorted(a for a, _ in walk) != [0, 1]
    mids = [  # the type-2 vertices between each cut end and the top
        [b for a, b in vs.poset_edges if a == x and (b, 80) in vs.poset_edges] for x in (0, 1)
    ]
    assert len(mids[0]) == len(mids[1]) == 4
    monkeypatch.setattr(vertices, "enumerate_vertices", lambda L, bounds: cut)
    rep = verify_structure_theorems(L, bounds)
    assert not rep.saturation and not rep.poset_transitive
    assert rep.max_type_matches and rep.uniqueness_matches and rep.all_types_even
    assert rep.counterexamples == (
        "vertex 0 (type 0) lies in no maximal-type vertex",
        "vertex 1 (type 0) lies in no maximal-type vertex",
        *["missing transitive edge (0,80)"] * 4,
        *["missing transitive edge (1,80)"] * 4,
    )


def test_verify_checks_agree_with_the_oracle_in_random_bases(monkeypatch):
    # the report on each census, and on the census with one walk edge cut,
    # equals the checks run on the printed census
    rng = random.Random(23)
    bounds = EnumerationBounds(max_scale=4)
    cases = [case for case in acceptance_family(include_h13_primes=()) if case[1].p == 3]
    cut_checked = 0
    for label, ctx, G in cases:
        L = HermLattice.from_gram(G)
        moved = HermLattice(G, mat_mul(L.basis_rows(), random_basis_change(rng, ctx, L.n)))
        vs = enumerate_vertices(moved, bounds)
        censuses = [vs]
        if vs._edges:
            cut = rng.randrange(len(vs._edges))
            censuses.append(replace(vs, _edges=vs._edges[:cut] + vs._edges[cut + 1 :]))
        for census in censuses:
            monkeypatch.setattr(vertices, "enumerate_vertices", lambda L, bounds: census)
            rep = verify_structure_theorems(moved, bounds).to_json()
            assert rep == verify_report_oracle(census, ctx.p), label
        cut_checked += len(censuses) - 1
    assert cut_checked > 10


def test_verify_non_unique_case():
    ctx = RamifiedContext(3, 1)
    bounds = EnumerationBounds(max_rank=4, max_scale=4, max_candidates=10**7)
    H13 = orthogonal_sum(hyperbolic_gram(ctx, 1), hyperbolic_gram(ctx, 3))
    rep = verify_structure_theorems(HermLattice.from_gram(H13), bounds)
    assert rep.passed
    assert not rep.predicted_unique  # two odd-scale block ranks
    assert rep.max_count >= 2
    assert rep.max_type == 4


def test_random_lattices_agree_with_formula():
    # beyond the fixed family: random integral Grams with off-diagonal
    # entries, so the splitting's folding and hyperbolic paths feed the
    # comparison too
    rng = random.Random(18)
    checked = 0
    while checked < 40:
        p = rng.choice([3, 5])
        ctx = RamifiedContext(p, F(rng.choice([1, -1])))
        n = rng.randint(1, 3)
        G = random_hermitian_gram(rng, ctx, n)
        try:
            rep = verify_structure_theorems(
                HermLattice.from_gram(G), EnumerationBounds(3, 4, 500_000)
            )
        except EnumerationLimitError:
            continue
        assert rep.passed, (p, ctx.eps, G.entries, rep.to_json())
        checked += 1


def test_poset_dot_output():
    ctx = RamifiedContext(3, 1)
    vs = enumerate_vertices(HermLattice.from_gram(hyperbolic_gram(ctx, 1)))
    dot = poset_dot(vs)
    assert dot.startswith("digraph")
    assert dot.count("->") == len(vs.poset_edges)


def test_vertex_set_json_shape():
    ctx = RamifiedContext(3, 1)
    vs = enumerate_vertices(HermLattice.from_gram(diagonal_gram(ctx, [1])))
    doc = vs.to_json()
    json.dumps(doc)
    assert doc["max_type"] == 0 and doc["max_count"] == 1
    assert doc["vertices"][0]["type"] == 0
    assert doc["vertices"][0]["basis"][0][0] == {"a": "1", "b": "0"}


def test_census_text_of_an_empty_census():
    # no lattice of the families has an empty census, but the writer covers
    # the empty arrays json.dumps writes as "[]"
    ctx = RamifiedContext(3, 1)
    report = enumerate_vertices(HermLattice.from_gram(diagonal_gram(ctx, [1]))).jordan
    empty = vertices.VertexSet((), (), -1, 0, report, list)
    assert empty.json_text() == json.dumps(empty.to_json(), indent=2, sort_keys=True)
