import random
from fractions import Fraction as F

import pytest
from support import (
    rand_oh,
    random_basis_change,
    random_hermitian_gram,
    scaled_lattice,
    transformed_gram,
)

from hermcycles import (
    HermGram,
    HermLattice,
    HermitianViolationError,
    JordanBlock,
    RamifiedContext,
    SingularMatrixError,
    det_class,
    diagonal_gram,
    hnf_canonicalize,
    hyperbolic_gram,
    is_split_sum,
    is_square_unit,
    jordan_split,
    orthogonal_sum,
    pi_power,
    smallest_nonresidue,
    validate_gram,
)
from hermcycles import lattice
from hermcycles.lattice import reduce_mod_p_power, reduce_mod_pi_power


def test_validate_gram():
    ctx = RamifiedContext(3, 1)
    validate_gram(
        [[ctx.one(), ctx.zero()], [ctx.zero(), ctx.one()]], ctx
    )
    with pytest.raises(HermitianViolationError):
        validate_gram([[ctx.one(), ctx.pi()], [ctx.pi(), ctx.one()]], ctx)
    with pytest.raises(HermitianViolationError):
        # diagonal entry must be rational
        validate_gram([[ctx.pi()]], ctx)
    with pytest.raises(SingularMatrixError):
        validate_gram([[ctx.one(), ctx.one()], [ctx.one(), ctx.one()]], ctx)


def test_dual_examples():
    ctx = RamifiedContext(3, 1)
    identity = diagonal_gram(ctx, [1, 1])
    L = HermLattice.from_gram(identity)
    assert L.dual().same_lattice(L)

    H1 = hyperbolic_gram(ctx, 1)
    LH = HermLattice.from_gram(H1)
    assert LH.dual().same_lattice(scaled_lattice(LH, -1))

    Lpi = HermLattice.from_gram(diagonal_gram(ctx, [ctx.pi0]))
    dual_gram = Lpi.dual().gram()
    assert dual_gram.entries[0][0] == ctx.element(1 / ctx.pi0)


def test_dual_involution_and_det_bookkeeping():
    rng = random.Random(6)
    for trial in range(200):
        p = rng.choice([3, 5])
        ctx = RamifiedContext(p, F(rng.choice([1, -1])))
        n = rng.randint(1, 3)
        G = random_hermitian_gram(rng, ctx, n)
        L = HermLattice.from_gram(G)
        assert L.dual().dual().canonical().basis == L.canonical().basis
        report = jordan_split(G)
        val, sq = det_class(G)
        assert report.det_ord() == val
        assert sum(b.rank for b in report.blocks) == n
        nonsquares = sum(1 for b in report.blocks if not b.det_unit_is_square)
        assert (nonsquares % 2 == 0) == sq


def test_hnf_trivial_cases():
    ctx = RamifiedContext(3, 1)
    G = diagonal_gram(ctx, [1, ctx.pi0])
    L = HermLattice.from_gram(G)
    C = L.canonical()
    assert C.basis == L.basis  # identity is already canonical
    swapped = HermLattice(G, [[ctx.zero(), ctx.one()], [ctx.one(), ctx.zero()]])
    assert swapped.canonical().basis == C.basis
    unit = ctx.element(F(4, 5), F(1))  # a unit of O_H
    scaled = HermLattice(G, [[x * unit for x in row] for row in L.basis])
    assert scaled.canonical().basis == C.basis


def test_hnf_canonical_on_random_spans():
    rng = random.Random(7)
    for trial in range(60):
        p = rng.choice([3, 5])
        ctx = RamifiedContext(p, 1)
        n = rng.randint(1, 3)
        G = random_hermitian_gram(rng, ctx, n)
        L = HermLattice.from_gram(G)
        U = random_basis_change(rng, ctx, n)
        from hermcycles.lattice import mat_mul

        moved = HermLattice(G, mat_mul(L.basis_rows(), U))
        assert moved.same_lattice(L)
        assert moved.canonical().basis == L.canonical().basis
        assert hnf_canonicalize(moved.canonical()).basis == moved.canonical().basis


def test_hnf_pivots_are_pi_powers():
    ctx = RamifiedContext(3, 1)
    H1 = hyperbolic_gram(ctx, 1)
    D = HermLattice.from_gram(H1).dual().canonical()
    for i in range(2):
        piv = D.basis[i][i]
        assert piv == pi_power(ctx, piv.ord())


def test_reduce_mod_p_power():
    assert reduce_mod_p_power(F(7), 3, 2) == 7
    assert reduce_mod_p_power(F(10), 3, 2) == 1
    assert reduce_mod_p_power(F(9), 3, 2) == 0
    assert reduce_mod_p_power(F(1, 3), 3, 1) == F(1, 3)
    assert reduce_mod_p_power(F(5, 3), 3, 0) == F(2, 3)
    ctx = RamifiedContext(3, 1)
    x = ctx.element(F(10), F(4))
    r = reduce_mod_pi_power(x, 2)
    assert (x - r).ord() >= 2
    assert r == ctx.element(1, 1)


def test_jordan_examples():
    ctx = RamifiedContext(3, 1)
    pi0 = ctx.pi0

    report = jordan_split(diagonal_gram(ctx, [1, pi0]))
    assert [(b.scale, b.rank, b.det_unit_is_square) for b in report.blocks] == [
        (0, 1, True),
        (2, 1, True),
    ]

    report = jordan_split(hyperbolic_gram(ctx, 1))
    assert [(b.scale, b.rank, b.is_split_block) for b in report.blocks] == [(1, 2, True)]

    one = ctx.one()
    G = HermGram([[one, one], [one, ctx.element(1 - pi0)]], ctx)
    report = jordan_split(G)
    assert [(b.scale, b.rank) for b in report.blocks] == [(0, 1), (2, 1)]
    # complement determinant is -pi0: unit part -1, a non-square at 3
    assert report.blocks[1].det_unit_is_square is False


def test_jordan_mixed_needs_diagonal_fold():
    # minimal order attained only off the diagonal at even order
    ctx = RamifiedContext(3, 1)
    z, o = ctx.zero(), ctx.one()
    G = HermGram(
        [
            [ctx.element(ctx.pi0), o, z],
            [o, ctx.element(ctx.pi0), z],
            [z, z, ctx.element(2)],
        ],
        ctx,
    )
    report = jordan_split(G)
    assert report.total_rank() == 3
    assert report.det_ord() == det_class(G)[0]


def test_jordan_split_is_its_own_singularity_test(monkeypatch):
    # (1) + H(1) + (0) at p=5 in random bases: the zero block appears only
    # after a rank-1 and a rank-2 pivot, and no determinant is computed
    rng = random.Random(24)
    ctx = RamifiedContext(5, 1)
    one, zero = diagonal_gram(ctx, [1]), diagonal_gram(ctx, [0])
    singular = orthogonal_sum(one, hyperbolic_gram(ctx, 1), zero)
    regular = orthogonal_sum(one, hyperbolic_gram(ctx, 1))
    monkeypatch.setattr(lattice, "mat_det", lambda *args: pytest.fail("determinant computed"))
    for trial in range(10):
        G = transformed_gram(singular, random_basis_change(rng, ctx, 4))
        assert all(any(row) for row in G.entries)  # no zero row to spot
        with pytest.raises(SingularMatrixError, match="^Gram matrix is singular$"):
            jordan_split(G)
        G = transformed_gram(regular, random_basis_change(rng, ctx, 3))
        assert [(b.scale, b.rank) for b in jordan_split(G).blocks] == [(0, 1), (1, 2)]


def test_jordan_canonicity_under_basis_change():
    rng = random.Random(8)
    for trial in range(200):
        p = rng.choice([3, 5])
        ctx = RamifiedContext(p, F(rng.choice([1, -1])))
        n = rng.randint(1, 3)
        G = random_hermitian_gram(rng, ctx, n)
        base = jordan_split(G)
        U = random_basis_change(rng, ctx, n)
        assert jordan_split(transformed_gram(G, U)) == base


def test_odd_scale_blocks_even_rank_and_split():
    rng = random.Random(9)
    seen_odd = 0
    for trial in range(120):
        p = rng.choice([3, 5])
        ctx = RamifiedContext(p, 1)
        G = random_hermitian_gram(rng, ctx, rng.randint(2, 3))
        for b in jordan_split(G).blocks:
            if b.scale % 2:
                seen_odd += 1
                assert b.rank % 2 == 0
                assert b.is_split_block
    assert seen_odd > 5  # the family actually exercises odd scales


def test_direct_summand_of_unimodular_vector():
    # a vector of unit length in a lattice of minimal order 0 splits off,
    # and the Jordan data of the complement accounts for the rest
    rng = random.Random(10)
    for trial in range(80):
        p = rng.choice([3, 5])
        ctx = RamifiedContext(p, 1)
        n = rng.randint(2, 3)
        G = random_hermitian_gram(rng, ctx, n)
        M = [list(row) for row in G.entries]
        # build a random vector with a unit coordinate and unit length
        coeffs = [rand_oh(rng, ctx) for _ in range(n)]
        pos = rng.randrange(n)
        coeffs[pos] = ctx.one()
        h = ctx.zero()
        for i in range(n):
            for j in range(n):
                h = h + coeffs[i] * M[i][j] * coeffs[j].conjugate()
        if h.ord() != 0:
            continue
        # complement of the vector inside the standard basis minus pos
        others = [k for k in range(n) if k != pos]
        pair_with_v = [
            sum((M[k][j] * coeffs[j].conjugate() for j in range(n)), ctx.zero())
            for k in range(n)
        ]
        hinv = h.inverse()
        comp = [
            [
                M[k][l]
                - pair_with_v[k] * hinv * pair_with_v[l].conjugate()
                for l in others
            ]
            for k in others
        ]
        rank1 = jordan_split(HermGram([[h]], ctx))
        rest = jordan_split(HermGram(comp, ctx))
        merged = {}
        for b in list(rank1.blocks) + list(rest.blocks):
            acc = merged.setdefault(b.scale, [0, 0])
            acc[0] += b.rank
            acc[1] ^= 0 if b.det_unit_is_square else 1
        whole = {
            b.scale: [b.rank, 0 if b.det_unit_is_square else 1]
            for b in jordan_split(G).blocks
        }
        assert whole == {s: [r, ns] for s, (r, ns) in merged.items()}
        assert whole[0][0] >= 1  # the unit vector shows up at scale 0


def test_is_split_sum():
    assert is_split_sum([], 3)
    h1 = JordanBlock(1, 2, 2, True, True)
    assert is_split_sum([h1], 3)
    # rank-2 scale-2 block with unit class u: split iff -u is a square
    ctx = RamifiedContext(3, 1)
    r = smallest_nonresidue(3)
    blocks = jordan_split(diagonal_gram(ctx, [ctx.pi0, ctx.pi0 * r])).blocks
    assert is_split_sum(blocks, 3) == is_square_unit(-r, 3)
    blocks = jordan_split(diagonal_gram(ctx, [ctx.pi0, ctx.pi0])).blocks
    assert is_split_sum(blocks, 3) == is_square_unit(-1, 3)
    # mixed scales: the space of (pi0) + (pi0^2) is split (det ~ -Nm class)
    blocks = jordan_split(diagonal_gram(ctx, [ctx.pi0, ctx.pi0**2])).blocks
    assert is_split_sum(blocks, 3)
    # odd rank is never split
    blocks = jordan_split(diagonal_gram(ctx, [ctx.pi0])).blocks
    assert not is_split_sum(blocks, 3)


def test_det_class_examples():
    ctx = RamifiedContext(3, 1)
    assert det_class(diagonal_gram(ctx, [1, 1])) == (0, True)
    assert det_class(hyperbolic_gram(ctx, 1)) == (2, True)
    r = smallest_nonresidue(3)
    assert det_class(diagonal_gram(ctx, [ctx.pi0, ctx.pi0 * r])) == (4, False)


def test_orthogonal_sum_shape():
    ctx = RamifiedContext(5, 1)
    G = orthogonal_sum(hyperbolic_gram(ctx, 1), diagonal_gram(ctx, [1]))
    assert G.n == 3
    assert G.entries[2][2] == ctx.one()
    assert G.entries[0][2].is_zero()
