"""Acceptance criteria, one test per criterion, one printed verdict line each.

The enumeration family (all small diagonal and hyperbolic instances over
p in {3, 5} and eps in {1, -1}, plus the designed-to-be-non-unique rank-4
case) is computed once and shared by the first three criteria.
"""

import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from support import (
    acceptance_family,
    conic_has_primitive_zero,
    random_basis_change,
    random_hermitian_gram,
    transformed_gram,
)

from hermcycles import (
    EnumerationBounds,
    HermLattice,
    QuadContext,
    RamifiedContext,
    cycle_invariants,
    det_class,
    factorize,
    global_report,
    hilbert_symbol,
    is_norm,
    jordan_split,
    smallest_nonresidue,
    verify_structure_theorems,
)

FIXTURES = Path(__file__).parent / "fixtures"
BOUNDS = EnumerationBounds(max_rank=4, max_scale=4, max_candidates=10**7)


def _verdict(criterion: str, passed: bool, detail: str = ""):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def family_reports():
    started = time.monotonic()
    reports = []
    for label, ctx, gram in acceptance_family(include_h13_primes=(3, 5)):
        lattice = HermLattice.from_gram(gram)
        reports.append((label, verify_structure_theorems(lattice, BOUNDS)))
    return reports, time.monotonic() - started


def test_criterion_1_formula_matches_max_type(family_reports):
    reports, elapsed = family_reports
    bad = [label for label, rep in reports if not rep.max_type_matches]
    _verdict(
        "1. t(L) equals the enumerated maximal vertex type on the full family",
        not bad,
        f"{len(reports)} cases, {elapsed:.1f}s"
        + (f"; mismatches: {bad}" if bad else ""),
    )


def test_criterion_2_uniqueness_iff_irreducibility(family_reports):
    reports, _ = family_reports
    bad = [label for label, rep in reports if not rep.uniqueness_matches]
    h13 = [rep for label, rep in reports if "H(1)+H(3)" in label]
    nonunique_witnessed = bool(h13) and all(
        not rep.predicted_unique and rep.max_count >= 2 for rep in h13
    )
    _verdict(
        "2. unique maximal vertex iff the irreducibility conditions; "
        "H(1)+H(3) yields several",
        not bad and nonunique_witnessed,
        f"H(1)+H(3) maximal counts: {[rep.max_count for rep in h13]}",
    )


def test_criterion_3_saturation(family_reports):
    reports, _ = family_reports
    bad = [label for label, rep in reports if not rep.saturation]
    _verdict(
        "3. every vertex lattice lies in one of maximal type",
        not bad,
        f"{len(reports)} cases",
    )


def test_criterion_4_jordan_canonicity():
    rng = random.Random(40)
    mismatches = 0
    trials = 0
    while trials < 200:
        p = rng.choice([3, 5])
        ctx = RamifiedContext(p, F(rng.choice([1, -1])))
        n = rng.randint(1, 3)
        G = random_hermitian_gram(rng, ctx, n)
        base = jordan_split(G)
        U = random_basis_change(rng, ctx, n)
        if jordan_split(transformed_gram(G, U)) != base:
            mismatches += 1
        trials += 1
    _verdict("4. Jordan data invariant under 200 random basis changes", mismatches == 0)


def test_criterion_5_unit_scaling_and_delta_independence():
    rng = random.Random(41)
    mismatches = 0
    for _ in range(200):
        p = rng.choice([3, 5])
        eps = F(rng.choice([1, -1]))
        ctx = RamifiedContext(p, eps)
        G = random_hermitian_gram(rng, ctx, rng.randint(1, 3))
        base = cycle_invariants(G)
        unit = rng.choice([F(u) for u in range(1, 3 * p) if u % p])
        if cycle_invariants(G.scaled(unit)) != base:
            mismatches += 1
        r = smallest_nonresidue(p)
        other = RamifiedContext(p, eps, F(r * (p + 1) ** 2))
        ratio = other.unit_scale() / ctx.unit_scale()
        if cycle_invariants(G.scaled(ratio)) != base:
            mismatches += 1
    _verdict(
        "5. invariants unchanged under unit scaling and delta-class swaps",
        mismatches == 0,
    )


def test_criterion_6_duality_involution_and_det_bookkeeping():
    rng = random.Random(42)
    failures = 0
    for _ in range(200):
        p = rng.choice([3, 5])
        ctx = RamifiedContext(p, F(rng.choice([1, -1])))
        n = rng.randint(1, 3)
        G = random_hermitian_gram(rng, ctx, n)
        L = HermLattice.from_gram(G)
        if L.dual().dual().canonical().basis != L.canonical().basis:
            failures += 1
        report = jordan_split(G)
        val, sq = det_class(G)
        if report.det_ord() != val:
            failures += 1
        nonsquares = sum(1 for b in report.blocks if not b.det_unit_is_square)
        if (nonsquares % 2 == 0) != sq:
            failures += 1
    _verdict(
        "6. dual of dual returns the lattice; block data matches det class",
        failures == 0,
    )


def test_criterion_7_hilbert_symbol():
    rng = random.Random(43)
    ok = True
    for _ in range(200):
        a = F(rng.choice([n for n in range(-12, 13) if n]), rng.randint(1, 9))
        b = F(rng.choice([n for n in range(-12, 13) if n]), rng.randint(1, 9))
        c = F(rng.choice([n for n in range(-12, 13) if n]), rng.randint(1, 9))
        v = rng.choice([2, 3, 5, 7, "real"])
        ok = ok and hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        ok = ok and hilbert_symbol(a * c, b, v) == hilbert_symbol(a, b, v) * hilbert_symbol(c, b, v)
    for _ in range(100):
        a = rng.choice([n for n in range(-50, 51) if n])
        b = rng.choice([n for n in range(-50, 51) if n])
        product = hilbert_symbol(a, b, "real")
        for p in factorize(2 * a * b):
            product *= hilbert_symbol(a, b, p)
        ok = ok and product == 1
    for p in (3, 5, 7):
        values = [1, -1, 2, -2, p, -p, 2 * p, -2 * p]
        for a in values:
            for b in values:
                expected = 1 if conic_has_primitive_zero(a, b, p) else -1
                ok = ok and hilbert_symbol(a, b, p) == expected
    _verdict(
        "7. Hilbert symbol: symmetry, bimultiplicativity, product formula, "
        "conic-search agreement",
        ok,
    )


def test_criterion_8_norm_group_index_two():
    ok = True
    for p in (3, 5, 7):
        r = smallest_nonresidue(p)
        for eps in (1, -1, r):
            ctx = RamifiedContext(p, F(eps))
            for u in (F(1), F(r)):
                reps = [u, r * u, ctx.pi0 * u, r * ctx.pi0 * u]
                ok = ok and sum(1 for q in reps if is_norm(q, ctx)) == 2
    _verdict("8. exactly half of the square-class representatives are norms", ok)


def test_criterion_9_global_fixtures():
    def qfe(x):
        return QuadContext(-3).element(x)

    def diag(vals):
        n = len(vals)
        return [[qfe(vals[i] if i == j else 0) for j in range(n)] for i in range(n)]

    ok = True
    for name, matrix in (
        ("global_identity", diag([1, 1])),
        ("global_diag_2_5", diag([2, 5])),
        ("global_diag_1_3", diag([1, 3])),
    ):
        golden = json.loads((FIXTURES / f"{name}.golden.json").read_text())
        ok = ok and global_report(matrix, -3).to_json() == golden
    rep = global_report(diag([1, 1]), -3)
    ok = ok and rep.per_prime[3].dimension == 0 and rep.per_prime[3].single_point
    rep = global_report(diag([2, 5]), -3)
    ok = ok and rep.status == "empty" and rep.diff0 == (2, 5)
    rep = global_report(diag([1, 3]), -3)
    ok = ok and rep.per_prime[3].dimension == 0
    _verdict("9. global fixtures match their golden reports exactly", ok)


def test_criterion_10_hyperbolic_census():
    from hermcycles import enumerate_vertices, hyperbolic_gram

    ctx = RamifiedContext(3, 1)
    vs = enumerate_vertices(HermLattice.from_gram(hyperbolic_gram(ctx, 1)))
    counts = {t: vs.types().count(t) for t in set(vs.types())}
    ok = counts == {0: 4, 2: 1}
    _verdict(
        "10. H(1) at p=3 supports exactly one type-2 vertex and four type-0",
        ok,
        f"census {counts}",
    )
