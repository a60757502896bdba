import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from support import (
    acceptance_family,
    block_sum_family,
    contains,
    elementary_divisor_exponents,
    jordan_chunks_oracle,
    _oracle_vertex_type,
    oracle_vertex_census,
    random_basis_change,
    random_hermitian_gram,
    same_lattice,
    snf_dual_basis,
)

from hermcycles import (
    EnumerationBounds,
    EnumerationLimitError,
    HermLattice,
    NonIntegralLatticeError,
    RamifiedContext,
    diagonal_gram,
    enumerate_vertices,
    hyperbolic_gram,
    jordan_split,
    orthogonal_sum,
    pi_power,
    poset_dot,
    smallest_nonresidue,
    verify_structure_theorems,
)
from hermcycles import vertices
from hermcycles.lattice import _Quotient, mat_conj, mat_det, mat_inverse, mat_mul
from hermcycles.padic import _mod
from hermcycles.ramified import OHElement


def test_unimodular_has_single_vertex():
    ctx = RamifiedContext(3, 1)
    L = HermLattice.from_gram(diagonal_gram(ctx, [1, 1]))
    vs = enumerate_vertices(L)
    assert vs.types() == [0]
    assert vs.max_type == 0 and vs.max_count == 1
    assert same_lattice(vs.vertices[0].lattice, L)
    assert vs.poset_edges == ()


def test_hyperbolic_plane_census_p3():
    ctx = RamifiedContext(3, 1)
    L = HermLattice.from_gram(hyperbolic_gram(ctx, 1))
    vs = enumerate_vertices(L)
    assert sorted(vs.types()) == [0, 0, 0, 0, 2]
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
    # equal censuses compare equal as VertexSets too: a Vertex compares its
    # type and canonical basis, not the identity of a lattice object
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
    assert census != replace(census, vertices=census.vertices[::-1])


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

def _det_bookkeeping_holds(L, fs):
    # the Jordan basis is L.basis times a matrix in GL_n(O_H), so the scales
    # add up to ord det Gram(L) = ord det G + 2 * ord det(L.basis); the
    # enumerator's modulus relies on it in place of ord det G
    return sum(fs) == L.ambient.det().ord() + 2 * mat_det(L.basis_rows(), L.ctx).ord()


def _exact_dual_jordan_basis(L):
    """The dual columns, f and G# of _dual_jordan_basis, built the same way
    on the exact rational elimination of tests/support.py."""
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


def test_dual_basis_is_a_jordan_basis_of_the_dual():
    # the dual columns span L^#, dual * diag(pi^f) spans L, f ascends as the
    # oracle's Smith form says, and G# is the Gram of the dual columns: exactly
    # when built on the exact elimination, and modulo pi^(20 - 2F) on the
    # modular one asked for K = 11 digits (its lifted Jordan basis is
    # orthogonal modulo pi^(2K) only, and G# = H / p^c is read modulo
    # pi^(2K - 2c), c <= F + 1); the int residues D = p^a * dual and
    # H = p^c * G# modulo p^K are those of the exact elimination modulo
    # pi^(2K - 2F + 2a) and pi^(2K - 2F + 2c); the report is that of
    # jordan_split
    rng = random.Random(42)
    K = 11
    for label, ctx, G in block_sum_family():
        L = HermLattice(G, random_basis_change(rng, ctx, G.n))
        exact_dual, _, exact_gram_dual = _exact_dual_jordan_basis(L)
        assert exact_gram_dual == [list(r) for r in HermLattice(G, exact_dual).gram().entries], label
        fs, a, H, D, report = vertices._dual_jordan_basis(L, 0, lambda fs: K)
        p, F = ctx.p, max(fs)
        c = max(1, (F + 1) // 2)
        assert fs == snf_dual_basis(L)[1], label
        assert a == _denominator_exponent(exact_dual, p), label
        for residues, exact, e in ((D, exact_dual, a), (_dense(H), exact_gram_dual, c)):
            assert all(
                (x - y * p**e).ord() >= min(2 * K, 2 * K - 2 * F + 2 * e)
                for r, t in zip(_lift(residues, ctx, 1), exact)
                for x, y in zip(r, t)
            ), label
        dual, gram_dual = _lift(D, ctx, p**a), _lift(_dense(H), ctx, p**c)
        assert same_lattice(HermLattice(G, dual), L.dual()), label
        scaled = [[x * pi_power(ctx, f) for x, f in zip(row, fs)] for row in dual]
        assert same_lattice(HermLattice(G, scaled), L), label
        gram = HermLattice(G, dual).gram().entries
        assert all(
            (x - y).ord() >= 20 - 2 * max(fs) for r, t in zip(gram_dual, gram) for x, y in zip(r, t)
        ), label
        assert report == jordan_split(L.gram()), label
        assert _det_bookkeeping_holds(L, fs), label
    for label, G, B in _off_identity_cases():
        L = HermLattice(G, mat_mul(B, random_basis_change(rng, G.ctx, 2)))
        fs, *_ = vertices._dual_jordan_basis(L, _denominator_exponent(L.basis, G.ctx.p), lambda fs: 0)
        assert _det_bookkeeping_holds(L, fs), label


class _SetupSeen(Exception):
    pass


def test_enumerator_setup_agrees_with_the_exact_elimination(monkeypatch):
    # f, a, K, H = p^c * G# and D = p^a * dual modulo p^K, as the enumeration
    # reads them, equal what the exact rational elimination (with the same
    # pivots) gives; so the modular elimination changes no residue the walk,
    # the vertex test or the canonical bases see
    seen = {}
    real = vertices._dual_jordan_basis

    def setup(L, h, need):
        seen["setup"] = real(L, h, need)
        return seen["setup"]

    def candidates(fs, q, max_candidates):
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
        a = _denominator_exponent(dual, p)
        m = p ** vertices._modulus(fs, a, mat_det(L.basis_rows(), L.ctx).ord())
        assert seen["fs"] == fs, label
        assert seen["m"] == m, label
        fs_seen, a_seen, H_seen, D_seen, _ = seen["setup"]
        assert (fs_seen, a_seen) == (fs, a), label
        assert [[(x % m, y % m) for x, y in row] for row in _dense(H_seen)] == _residues(gram_dual, p**c, m), label
        assert [[(x % m, y % m) for x, y in row] for row in D_seen] == _residues(dual, p**a, m), label


def _off_identity_cases():
    """Lattices that are not O_H^n in their ambient Gram, as (label, ambient,
    basis): the canonical bases are then found with a, the least exponent
    making p^a * L^# integral in the ambient, which differs from the
    command-line value c = max(1, ceil(F/2)) in the last three."""
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
        yield f"{tag}:pi*O^2 in H(1)", h1, diag(1, 1)  # a = 1, c = 2


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


def test_verify_reports_a_vertex_outside_every_maximal_vertex(monkeypatch):
    # H(1) at p=3: four type-0 vertices, each inside the one vertex of type 2
    ctx = RamifiedContext(3, 1)
    L = HermLattice.from_gram(hyperbolic_gram(ctx, 1))
    vs = enumerate_vertices(L)
    assert vs.types() == [0, 0, 0, 0, 2]
    assert vs.poset_edges == ((0, 4), (1, 4), (2, 4), (3, 4))
    cut = replace(vs, poset_edges=((0, 4), (1, 4), (3, 4)))
    monkeypatch.setattr(vertices, "enumerate_vertices", lambda L, bounds: cut)
    rep = verify_structure_theorems(L)
    assert rep.saturation is False and not rep.passed
    assert rep.max_type_matches and rep.uniqueness_matches
    assert rep.all_types_even and rep.poset_transitive
    assert rep.counterexamples == ("vertex 2 (type 0) lies in no maximal-type vertex",)


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
