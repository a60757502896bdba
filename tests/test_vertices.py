import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from support import (
    acceptance_family,
    elementary_divisor_exponents,
    oracle_vertex_census,
    random_basis_change,
    random_hermitian_gram,
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
    orthogonal_sum,
    pi_power,
    poset_dot,
    smallest_nonresidue,
    verify_structure_theorems,
)
from hermcycles import vertices
from hermcycles.lattice import mat_conj, mat_inverse, mat_mul


def test_unimodular_has_single_vertex():
    ctx = RamifiedContext(3, 1)
    L = HermLattice.from_gram(diagonal_gram(ctx, [1, 1]))
    vs = enumerate_vertices(L)
    assert vs.types() == [0]
    assert vs.max_type == 0 and vs.max_count == 1
    assert vs.vertices[0].lattice.same_lattice(L)
    assert vs.poset_edges == ()


def test_hyperbolic_plane_census_p3():
    ctx = RamifiedContext(3, 1)
    L = HermLattice.from_gram(hyperbolic_gram(ctx, 1))
    vs = enumerate_vertices(L)
    assert sorted(vs.types()) == [0, 0, 0, 0, 2]
    assert vs.max_type == 2 and vs.max_count == 1
    # the type-2 vertex is the dual lattice, and all lines sit inside it
    top = [i for i, v in enumerate(vs.vertices) if v.type == 2][0]
    assert vs.vertices[top].lattice.same_lattice(L.dual())
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
    assert vs.vertices[0].lattice.same_lattice(expected)


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
    rng = random.Random(14)
    ctx = RamifiedContext(3, 1)
    G = orthogonal_sum(hyperbolic_gram(ctx, 1), diagonal_gram(ctx, [1]))
    L = HermLattice.from_gram(G)
    reference = enumerate_vertices(L).to_json()
    for _ in range(5):
        U = random_basis_change(rng, ctx, 3)
        moved = HermLattice(G, mat_mul(L.basis_rows(), U))
        assert enumerate_vertices(moved).to_json() == reference


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
            assert V.dual().contains(L), label
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


def test_verify_non_unique_case_p5():
    ctx = RamifiedContext(5, 1)
    bounds = EnumerationBounds(max_rank=4, max_scale=4, max_candidates=10**7)
    H13 = orthogonal_sum(hyperbolic_gram(ctx, 1), hyperbolic_gram(ctx, 3))
    rep = verify_structure_theorems(HermLattice.from_gram(H13), bounds)
    assert rep.passed and rep.max_count >= 2


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
