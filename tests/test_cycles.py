import random
from fractions import Fraction as F

import pytest
from support import random_hermitian_gram, scaled_gram, smallest_nonresidue

from hermcycles import (
    CycleInvariants,
    HermGram,
    PreconditionError,
    RamifiedContext,
    cycle_report,
    diagonal_gram,
    hyperbolic_gram,
    jordan_split,
    orthogonal_sum,
    pi_power,
)
from hermcycles.cycles import invariants_from_report


def test_build_cycle_lattice_nonintegral_is_empty():
    ctx = RamifiedContext(3, 1)
    T = HermGram(
        [[ctx.element(1), pi_power(ctx, -1)], [pi_power(ctx, -1).conjugate(), ctx.element(1)]],
        ctx,
    )
    for G in (T, HermGram([[ctx.element(F(1, 3))]], ctx)):
        report = cycle_report(G)
        assert report == CycleInvariants.empty()
        assert report.to_json() == {"status": "empty-nonintegral"}


def test_build_cycle_lattice_scaling():
    # 2 is not a square at 3 and 4 is: scaling by either leaves the report
    ctx = RamifiedContext(3, -1)
    T = diagonal_gram(ctx, [1, 1])
    assert scaled_gram(T, 2).entries[0][0] == ctx.element(2)
    T2 = diagonal_gram(ctx, [ctx.pi0])
    assert scaled_gram(T2, 2).entries[0][0] == ctx.element(2 * ctx.pi0)
    for G in (T, T2):
        for unit in (2, 4):
            assert cycle_report(G) == cycle_report(scaled_gram(G, unit))


def test_unimodular_single_point():
    ctx = RamifiedContext(3, 1)
    inv = cycle_report(diagonal_gram(ctx, [1, 1, 1]))
    assert inv.m == 0 and inv.t == 0 and inv.dimension == 0
    assert inv.irreducible and inv.zero_dimensional and inv.single_point


def test_hyperbolic_plane_dimension_one():
    ctx = RamifiedContext(3, 1)
    inv = cycle_report(hyperbolic_gram(ctx, 1))
    assert inv.m == 2 and inv.t == 2 and inv.dimension == 1
    assert inv.L_ge1_split
    assert inv.n_odd == 0 and inv.n_even == 0 and inv.rank_L1 == 2
    assert inv.irreducible and not inv.zero_dimensional


def test_nonsplit_even_pair_single_point():
    # diag(pi0, pi0*u) with -u a non-square: t = 0 and a single point
    ctx = RamifiedContext(3, 1)
    inv = cycle_report(diagonal_gram(ctx, [ctx.pi0, ctx.pi0]))  # -1 non-square at 3
    assert inv.m == 2 and inv.t == 0 and inv.dimension == 0
    assert inv.n_even == 2 and not inv.L_ge2_split
    assert inv.irreducible and inv.zero_dimensional and inv.single_point


def test_trichotomy_odd_m():
    ctx = RamifiedContext(3, 1)
    G = orthogonal_sum(diagonal_gram(ctx, [1]), diagonal_gram(ctx, [ctx.pi0]))
    inv = cycle_report(G)
    assert inv.m == 1 and inv.t == 0
    assert inv.single_point  # n_even = 1, rank_L1 = 0


def test_nonsplit_rank4_t_drop():
    # scale-2 blocks with non-split space and m = 4: t = 2
    ctx = RamifiedContext(3, 1)
    r = smallest_nonresidue(3)
    G = diagonal_gram(ctx, [ctx.pi0, ctx.pi0, ctx.pi0, ctx.pi0 * r])
    inv = cycle_report(G)
    assert inv.m == 4
    assert not inv.L_ge1_split
    assert inv.t == 2 and inv.dimension == 1
    assert inv.n_even == 4 and not inv.irreducible


def test_unit_scaling_and_delta_independence():
    rng = random.Random(11)
    for trial in range(200):
        p = rng.choice([3, 5])
        eps = F(rng.choice([1, -1]))
        ctx = RamifiedContext(p, eps)
        G = random_hermitian_gram(rng, ctx, rng.randint(1, 3))
        base = cycle_report(G)
        unit = rng.choice(
            [F(u) for u in range(1, 3 * p) if u % p] + [F(1, q) for q in (2, p + 1)]
        )
        assert cycle_report(scaled_gram(G, unit)) == base
        # units of both square classes, one with a denominator prime to p
        r = smallest_nonresidue(p)
        for unit in (F(p + 1, 2) ** 2, r * F(p + 1, 2) ** 2):
            assert cycle_report(scaled_gram(G, unit)) == base


def test_parity_invariants():
    rng = random.Random(12)
    for trial in range(150):
        p = rng.choice([3, 5])
        ctx = RamifiedContext(p, 1)
        G = random_hermitian_gram(rng, ctx, rng.randint(1, 3))
        inv = cycle_report(G)
        assert inv.t % 2 == 0 and inv.n_odd % 2 == 0
        assert inv.dimension == inv.t // 2 >= 0
        assert inv.t in (inv.m, inv.m - 1, inv.m - 2)
        assert inv.zero_dimensional == (inv.irreducible and inv.t == 0)
        assert inv.single_point == inv.zero_dimensional
        if inv.zero_dimensional:
            assert inv.irreducible


def test_nonintegral_gram_rejected():
    # the invariants are read only off the Jordan data of an integral
    # lattice; cycle_report answers empty before it gets there
    ctx = RamifiedContext(3, 1)
    G = HermGram([[ctx.element(F(1, 3))]], ctx)
    with pytest.raises(PreconditionError):
        invariants_from_report(jordan_split(G), ctx.p)


def test_invariants_json_round_trip_fields():
    ctx = RamifiedContext(3, 1)
    record = cycle_report(hyperbolic_gram(ctx, 1)).to_json()
    assert record["status"] == "nonempty"
    assert set(record) == {
        "status",
        "m",
        "t",
        "dimension",
        "n_odd",
        "n_even",
        "rank_L1",
        "L_ge1_split",
        "L_ge2_split",
        "irreducible",
        "zero_dimensional",
        "single_point",
    }
