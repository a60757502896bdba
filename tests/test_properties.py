"""Property tests drawn by Hypothesis (skipped when it is not installed)."""

import random

import pytest
from support import (
    acceptance_family,
    hnf_canonicalize,
    oracle_vertex_census,
    random_basis_change,
)

from hermcycles import EnumerationBounds, HermLattice, enumerate_vertices
from hermcycles.lattice import mat_mul

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

RANK_2 = [case for case in acceptance_family(include_h13_primes=()) if case[2].n == 2]


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(RANK_2), st.integers(0, 2**32 - 1))
def test_canonical_bases_and_census_in_random_bases(case, seed):
    label, ctx, G = case
    L = HermLattice.from_gram(G)
    U = random_basis_change(random.Random(seed), ctx, 2)
    moved = HermLattice(G, mat_mul(L.basis_rows(), U))
    canonical = hnf_canonicalize(L)
    assert hnf_canonicalize(canonical).basis == canonical.basis
    assert hnf_canonicalize(moved).basis == canonical.basis, label
    bounds = EnumerationBounds(max_scale=4)
    expected, _ = oracle_vertex_census(moved, bounds)
    assert enumerate_vertices(moved, bounds).to_json() == expected, label
