"""Property tests drawn by Hypothesis (skipped when it is not installed)."""

import json
import random
import sys
from fractions import Fraction

import pytest
from support import (
    acceptance_family,
    birkhoff_count,
    block_sum_family,
    completed_candidates,
    factor_outcome,
    factorize_oracle,
    hnf_canonicalize,
    invoke,
    jordan_split_oracle,
    oracle_vertex_census,
    parse_rational_oracle,
    random_basis_change,
    scaled_gram,
    smallest_nonresidue,
    snf_dual_basis,
    transformed_gram,
    trial_limit,
)

from hermcycles import (
    EnumerationBounds,
    HermLattice,
    PreconditionError,
    RamifiedContext,
    SchemaError,
    SingularMatrixError,
    cycle_report,
    diagonal_gram,
    enumerate_vertices,
    factorize,
    hyperbolic_gram,
    jordan_split,
    orthogonal_sum,
    verify_structure_theorems,
)
from hermcycles import cli, vertices
from hermcycles.lattice import _Quotient, mat_mul
from hermcycles.padic import is_prime, parse_rational

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
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


@st.composite
def _random_lattices(draw, max_rank=3):
    """(label, L): an integral lattice L of rank 1 to ``max_rank`` (3 by the
    default bounds) and scale at most 3 at p in {3, 5, 7}, in a random basis
    of its ambient Gram, an orthogonal sum of rank-1 blocks u * pi0^e (scale
    0 or 2) and hyperbolic planes u * H(i), i from 0 to 3, with u a rational
    unit of either square class.  Every integral lattice of that rank and
    scale is isometric to such a sum (Jacobowitz).  The label names the sum
    and the seed of the basis, so a shrunk counterexample reads as one."""
    p = draw(st.sampled_from([3, 5, 7]))
    r = smallest_nonresidue(p)
    eps = draw(st.sampled_from([1, -1, r]))
    ctx = RamifiedContext(p, eps)
    units = [Fraction(u) for u in (1, r, -1, Fraction(1, 2))]
    n = draw(st.integers(1, max_rank))
    blocks, names = [], []
    while sum(b.n for b in blocks) < n:
        u = draw(st.sampled_from(units))
        if sum(b.n for b in blocks) == n - 1 or draw(st.booleans()):
            e = draw(st.integers(0, 1))
            blocks.append(diagonal_gram(ctx, [u * ctx.pi0**e]))
            names.append(f"({u}*pi0^{e})")
        else:
            i = draw(st.integers(0, 3))
            blocks.append(scaled_gram(hyperbolic_gram(ctx, i), u))
            names.append(f"{u}*H({i})")
    seed = draw(st.integers(0, 2**32 - 1))
    U = random_basis_change(random.Random(seed), ctx, n)
    return f"p{p},eps{eps}:{' + '.join(names)} in basis {seed}", HermLattice(orthogonal_sum(*blocks), U)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(_random_lattices())
def test_census_and_verify_on_random_lattices_in_random_bases(case):
    # The Fraction oracle sets the cost: 80 examples take about 7.5 s, within
    # a 10-s budget; the family's costliest member, H(3) + (pi0) at p=7,
    # takes about 23 s in the oracle alone.
    label, L = case
    bounds = EnumerationBounds()
    expected, _ = oracle_vertex_census(L, bounds)
    assert enumerate_vertices(L, bounds).to_json() == expected, label
    assert verify_structure_theorems(L, bounds).passed, label


def _last_column_entry(Z, H, q: _Quotient) -> int:
    """The a-component of S[n-1][n-1] = (Z^T * H * conj(Z))[n-1][n-1], summed
    as _is_vertex sums it: column n - 1 of P = H * conj(Z) modulo p^K, then
    column n - 1 of Z against it."""
    b, m, pi0 = len(Z) - 1, q.m, q.pi0
    sa = 0
    for k in range(b + 1):
        pa = pb = 0
        for j, (ha, hb) in H[k]:
            za, zb = Z[j][b]
            pa += ha * za - hb * zb * pi0
            pb += hb * za - ha * zb
        za, zb = Z[k][b]
        sa += za * (pa % m) + zb * (pb % m) * pi0
    return sa


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_random_lattices(max_rank=4))
def test_the_walk_completes_the_birkhoff_count_on_random_lattices(case):
    # The walk's completed candidates against the Birkhoff-Butler count of
    # the submodules of L^#/L, up to rank 4 at p in {3, 5, 7}.  The cap on
    # the count keeps the 200 examples near 1 s; the drawn family's largest
    # below it, (pi0) + H(2) + (pi0) at p=3, has 18,021 candidates.
    label, L = case
    expected = birkhoff_count(snf_dual_basis(L)[1], L.ctx.p)
    assume(expected <= 20_000)
    assert completed_candidates(L, EnumerationBounds(max_rank=4)) == expected, label


@st.composite
def _last_slots(draw):
    """A walk at its last slot: (Z, H, c, q) with q = O_H / p^K, K >= c, Z
    upper triangular over it, H block diagonal and Hermitian modulo p^K (1x1
    and 2x2 blocks), as sparse rows."""
    p = draw(st.sampled_from([3, 5, 7]))
    ctx = RamifiedContext(p, draw(st.sampled_from([1, -1, smallest_nonresidue(p)])))
    c = draw(st.integers(1, 3))
    q = _Quotient(ctx, c + draw(st.integers(0, 2)))
    residue = st.integers(0, q.m - 1)
    n = draw(st.integers(2, 4))
    Z = [[(draw(residue), draw(residue)) if i <= j else (0, 0) for j in range(n)] for i in range(n)]
    H = [[(0, 0)] * n for _ in range(n)]
    i = 0
    while i < n:
        H[i][i] = (draw(residue), 0)
        if i + 1 < n and draw(st.booleans()):
            x, y = draw(residue), draw(residue)
            H[i][i + 1], H[i + 1][i] = (x, y), (x, -y % q.m)
            H[i + 1][i + 1] = (draw(residue), 0)
            i += 1
        i += 1
    sparse = [[(j, x) for j, x in enumerate(row) if x != (0, 0)] for row in H]
    return Z, sparse, c, q


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_last_slots(), st.data())
def test_the_last_slot_check_is_the_first_check_of_the_vertex_test(slot, data):
    # The walk's quadratic in z = Z[0][n-1], formed before z is placed,
    # rejects z exactly when S[n-1][n-1] does not vanish modulo p^c; and a
    # rejected z never passes _is_vertex, whatever the type.
    Z, H, c, q = slot
    vanishes = vertices._last_diagonal(Z, H, c, q)
    n, residue = len(Z), st.integers(0, q.m - 1)
    for _ in range(8):
        z = (data.draw(residue), data.draw(residue))
        Z[0][n - 1] = z
        assert vanishes(*z) == (_last_column_entry(Z, H, q) % q.p**c == 0), z
        if not vanishes(*z):
            assert not any(vertices._is_vertex(Z, H, c, t, q) for t in range(n + 1)), z


@st.composite
def _disguised_block_sums(draw):
    """A Gram of rank 1 to 16: an orthogonal sum of rank-1 blocks u * pi0^e
    (e from -2, so with p in the denominator; u with a prime-to-p
    denominator) and hyperbolic planes u * H(i), i from -3, with one zero
    rank-1 block (a singular Gram) one time in five, in a random basis."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    ctx = RamifiedContext(p, draw(st.sampled_from([1, -1, smallest_nonresidue(p)])))
    units = [Fraction(u) for u in (1, -1, 2, "1/2", "-1/4")]
    n = draw(st.integers(1, 16))
    blocks = [diagonal_gram(ctx, [0])] if draw(st.integers(0, 4)) == 0 else []
    rank = len(blocks)
    while rank < n:
        u = draw(st.sampled_from(units))
        if rank == n - 1 or draw(st.booleans()):
            blocks.append(diagonal_gram(ctx, [u * ctx.pi0 ** draw(st.integers(-2, 4))]))
            rank += 1
        else:
            blocks.append(scaled_gram(hyperbolic_gram(ctx, draw(st.integers(-3, 6))), u))
            rank += 2
    U = random_basis_change(random.Random(draw(st.integers(0, 2**32 - 1))), ctx, rank)
    return transformed_gram(orthogonal_sum(*blocks), U)


def _outcome(f, *args):
    try:
        return f(*args)
    except (PreconditionError, SingularMatrixError) as exc:
        return str(exc)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_disguised_block_sums())
def test_modular_jordan_split_is_the_exact_one(G):
    assert _outcome(jordan_split, G) == _outcome(jordan_split_oracle, G)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_disguised_block_sums(), st.data())
def test_cycle_report_is_the_invariants_of_every_unit_scaling(G, data):
    # Jacobowitz: a unit scaling keeps Jordan scales and ranks and the split
    # class of every even-rank space, and it keeps integrality, so
    # cycle_report, which reads T's own Jordan data, gives T and T scaled by
    # any unit the same answer, the empty one included; u is drawn with a
    # denominator prime to p, and u * r is in the other class
    p = G.ctx.p
    unit = st.integers(1, 10**4).filter(lambda k: k % p)
    u = Fraction(data.draw(st.sampled_from([1, -1])) * data.draw(unit), data.draw(unit))
    report = _outcome(cycle_report, G)
    for v in (u, u * smallest_nonresidue(p)):
        assert _outcome(cycle_report, scaled_gram(G, v)) == report


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)
_RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1] * 8 + [3, 9]))


def _prime_at_least(k):
    k = max(k, 2)
    while not is_prime(k):
        k += 1
    return k


def _prime_at_most(k):
    while not is_prime(k):
        k -= 1
    return k


# primes of 14 to 27 digits; 2**89 - 1 is at or above _MR_LIMIT, and so is
# the product of any two of the others
_LARGE_PRIMES = (10**13 + 37, 10**13 + 51, 2**61 - 1, 2**89 - 1)


@st.composite
def _factor_cases(draw):
    """(n, bound): a signed product of up to four primes drawn below, around
    and above the trial limit T, squares of primes above T and primes beyond
    _MR_LIMIT**(1/2), at a bound in 0..3000 or, one time in four, 10**6."""
    bound = 10**6 if draw(st.integers(0, 3)) == 0 else draw(st.integers(0, 3000))
    top = trial_limit(bound)
    n = draw(st.sampled_from((1, -1)))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("below", "around", "above", "square", "large")))
        if kind == "below":
            n *= _prime_at_most(draw(st.integers(2, top)))
        elif kind == "around":
            n *= _prime_at_least(top + draw(st.integers(-40, 40)))
        elif kind == "above":
            n *= _prime_at_least(draw(st.integers(top + 1, max(100 * top, 10**7))))
        elif kind == "square":
            n *= _prime_at_least(draw(st.integers(top + 1, 10 * top))) ** 2
        else:
            n *= draw(st.sampled_from(_LARGE_PRIMES))
    return n, bound


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_factor_cases())
def test_rho_factorization_is_trial_division(case):
    n, bound = case
    assert factor_outcome(factorize, n, bound) == factor_outcome(factorize_oracle, n, bound)


@st.composite
def _near_hermitian(draw, keys):
    """A Hermitian matrix of rank 1 to 3 in the request format, with one entry
    replaced by an arbitrary JSON value one time in four."""
    n = draw(st.integers(1, 3))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a = draw(_RATIONALS)
            b = draw(_RATIONALS) if i != j else Fraction(0)
            rows[i][j] = {keys[0]: str(a), keys[1]: str(b)}
            rows[j][i] = {keys[0]: str(a), keys[1]: str(-b)}
            if i == j and a.denominator == 1 and draw(st.booleans()):
                rows[i][i] = int(a)  # a bare JSON number
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_JSON)
    return rows


_LOCAL_FLAGS = st.tuples(
    st.just("--p"),
    st.sampled_from(["3", "5"] * 3 + ["2", "9"]),
    st.just("--epsilon"),
    st.sampled_from(["1", "-1", "1/2"] * 2 + ["3"]),
)
_LOCAL = st.fixed_dictionaries({"gram": _near_hermitian(("a", "b"))})
_MATRIX = st.fixed_dictionaries({"matrix": _near_hermitian(("a", "b"))})
_REQUESTS = {
    "jordan": (_LOCAL_FLAGS, _LOCAL),
    "cycle": (_LOCAL_FLAGS, _MATRIX),
    "global --factor-bound 1000": (
        st.just(()),
        st.fixed_dictionaries({"delta": st.integers(-40, 5), "matrix": _near_hermitian(("x", "y"))}),
    ),
    "hilbert": (
        st.just(()),
        st.fixed_dictionaries(
            {
                "a": _RATIONALS.map(str),
                "b": _RATIONALS.map(str),
                "place": st.sampled_from([2, 3, 5, 7, 9, "real", 0, "3", None]),
            }
        ),
    ),
    "vertices --max-candidates 2000": (_LOCAL_FLAGS, _LOCAL),
    "verify --max-candidates 2000": (_LOCAL_FLAGS, _LOCAL),
}


@pytest.mark.parametrize("command", list(_REQUESTS))
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_the_cli_answers_every_request_with_one_document(command, data):
    flags, doc = (data.draw(strategy) for strategy in _REQUESTS[command])
    if data.draw(st.integers(0, 3)) == 0:  # one request in four is arbitrary JSON
        doc = data.draw(_JSON)
    code, out = invoke([*command.split(), *flags], json.dumps(doc))
    assert code in (0, 1, 2, 3)
    assert out.endswith("\n")
    json.loads(out)


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@st.composite
def _literals(draw):
    """A rational as a request may spell it: an int, a bool or a Fraction
    (integral or not) one time in ten, else a string of a sign, digits
    (ASCII, or with "_", "٣" and "²" mixed in, or one below or past the digit
    limit), a denominator (zero too), a decimal part and an exponent, each
    optional, in whitespace."""
    if draw(st.integers(0, 9)) == 0:
        fractions = st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 1, 2, 3]))
        return draw(st.booleans() | st.integers(-(10**30), 10**30) | fractions)
    ascii_digits = st.text("0123456789", min_size=1, max_size=5)
    digits = ascii_digits | st.text("0123456789_٣²", max_size=5)
    if _DIGIT_LIMIT and draw(st.integers(0, 9)) == 0:
        digits = st.sampled_from([_DIGIT_LIMIT - 1, _DIGIT_LIMIT + 1]).map(lambda k: "7" * k)
    spelled = draw(st.sampled_from(["", "-", "+"])) + draw(digits)
    if draw(st.booleans()):
        spelled += "/" + draw(st.sampled_from(["0", "00"]) | digits)
    if draw(st.integers(0, 4)) == 0:
        spelled += "." + draw(st.text("0123456789", max_size=3))
    if draw(st.integers(0, 4)) == 0:
        spelled += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "-", "+"]))
        spelled += draw(st.text("0123456789", min_size=1, max_size=3))
    space = st.sampled_from(["", "", " ", "\t", "\n "])
    return draw(space) + spelled + draw(space)


def _parsed(parse, value):
    try:
        q = parse(value)
    except SchemaError as exc:
        return "error", str(exc)
    return type(q), q


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_literals())
def test_parse_rational_is_the_fraction_string_parser(value):
    assert _parsed(parse_rational, value) == _parsed(parse_rational_oracle, value)


# quotes, backslashes, control characters, DEL, non-ASCII past the BMP, the
# JSON-hostile line separators and lone surrogates of both halves
_TEXT = st.text(
    st.sampled_from('"\\/\x00\x08\x1f\x7fé \ud800􏰀\udfff\U0001f600')
    | st.characters(exclude_categories=())
    | st.characters(max_codepoint=0x7F),
    max_size=8,
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**300), 2**300)
    | st.sampled_from([0, -1, 2**64, -(2**63)])
    | _TEXT
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=16,
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_DOCUMENTS)
def test_the_cli_writer_writes_what_json_dumps_writes(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(
    _DOCUMENTS,
    st.sampled_from([0.0, 1.5, float("nan"), Fraction(1, 2), b"x", {1}, object()]),
    st.sampled_from([0, True, None, 1.5, (1,)]),
)
def test_the_cli_writer_refuses_every_other_type(doc, bad, key):
    # json.dumps writes floats and turns int, bool and None keys into
    # strings; no command returns them, and the writer refuses them
    for wrapped in ([doc, bad], (bad, doc), {"k": doc, "z": bad}, {key: doc}):
        with pytest.raises(TypeError):
            cli._json(wrapped)


# The acceptance and block-sum families up to rank 4, eps = 1, -1 and 1/2;
# at p=5 only up to rank 3, as the p=5 H(1)+H(3) census alone takes seconds.
CENSUS_CASES = [
    case
    for case in [*acceptance_family(), *block_sum_family()]
    if case[1].p == 3 or case[2].n <= 3
]
UNIMODULAR, H13 = (
    next(case for case in CENSUS_CASES if case[0] == label)
    for label in ("p3,eps1:diag(pi0^0*1, pi0^0*1)", "p3,eps-1:H(1)+H(3)")
)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(CENSUS_CASES), st.integers(0, 2**32 - 1))
@example(UNIMODULAR, 0)  # the census of one vertex and no edge
@example(H13, 1)  # 385 vertices, 1,184 edges
def test_the_census_writer_writes_what_json_dumps_writes(case, seed):
    # VertexSet.json_text is what json.dumps writes for to_json(), for a
    # lattice in a random basis and for its Gram sent to the CLI, whose
    # vertices output is that text and a newline
    label, ctx, G = case
    U = random_basis_change(random.Random(seed), ctx, G.n)
    bounds = EnumerationBounds(max_rank=4, max_scale=4)
    moved = transformed_gram(G, U)
    for L in (HermLattice(G, U), HermLattice.from_gram(moved)):
        text = enumerate_vertices(L, bounds).json_text()
        doc = enumerate_vertices(L, bounds).to_json()
        assert text == json.dumps(doc, indent=2, sort_keys=True), label
    request = json.dumps({"gram": [[x.to_json() for x in row] for row in moved.entries]})
    argv = ["vertices", "--p", str(ctx.p), "--epsilon", str(ctx.eps), "--max-rank", "4"]
    assert invoke(argv + ["--max-scale", "4"], request) == (0, text + "\n"), label
    if case is UNIMODULAR:
        assert (len(doc["vertices"]), doc["poset_edges"]) == (1, []), label
