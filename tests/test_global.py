import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from support import (
    conic_has_primitive_zero,
    mat_det,
    positive_definite_oracle,
    scaled_gram,
    self_dual_oracle,
    squarefree_deltas,
)

from hermcycles import (
    Error,
    HermGram,
    HermitianViolationError,
    IntegralityError,
    InvalidFieldError,
    PreconditionError,
    QuadContext,
    RamifiedContext,
    SingularMatrixError,
    global_report,
)
from hermcycles.global_cycles import (
    _is_algebraic_integer,
    embed_matrix,
    is_positive_definite,
    local_context,
)
from hermcycles.lattice import mat_conj, mat_mul, mat_transpose
from hermcycles.padic import (
    INERT,
    RAMIFIED,
    SPLIT,
    _splitting,
    factorize,
)

FIXTURES = Path(__file__).parent / "fixtures"


def qfe(delta, x, y=0):
    return QuadContext(delta).element(x, y)


def diag(delta, vals):
    n = len(vals)
    return [
        [qfe(delta, vals[i] if i == j else 0) for j in range(n)] for i in range(n)
    ]


def test_field_element_arithmetic():
    a = qfe(-3, 1, 2)
    b = qfe(-3, 0, 1)
    assert a * b == qfe(-3, 2 * (-3), 1)
    assert a.conjugate() == qfe(-3, 1, -2)
    assert a.norm() == 1 - (-3) * 4 == 13
    assert (a * a.inverse()) == qfe(-3, 1)


def test_integrality_membership():
    # half-integer coordinates belong exactly when delta = 1 mod 4
    assert _is_algebraic_integer(qfe(-3, F(1, 2), F(1, 2)))
    assert not _is_algebraic_integer(qfe(-3, F(1, 2), 0))
    assert not _is_algebraic_integer(qfe(-3, F(1, 3), 0))
    assert _is_algebraic_integer(qfe(-5, 2, 7))
    assert not _is_algebraic_integer(qfe(-5, F(1, 2), F(1, 2)))


def test_positive_definite():
    assert is_positive_definite(diag(-3, [1, 1]), -3)
    assert not is_positive_definite(diag(-3, [1, -1]), -3)
    T = [
        [qfe(-3, 2), qfe(-3, 0, 1)],
        [qfe(-3, 0, -1), qfe(-3, 2)],
    ]
    assert HermGram(T).det_rational() == 1  # 4 + delta
    assert is_positive_definite(T, -3)


def _random_hermitian_rows(rng, delta, n):
    """Random Hermitian rows over Q(sqrt(delta)): indefinite ones, Grams
    B^T * conj(B) (positive semidefinite, singular when B is), and Grams with
    a sign flipped on one diagonal entry."""
    def entry():
        return qfe(delta, F(rng.randint(-4, 4), rng.choice([1, 2])), rng.randint(-2, 2))

    kind = rng.choice(["random", "gram", "gram", "singular", "flipped"])
    if kind == "random":
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = qfe(delta, rng.randint(-3, 5))
            for j in range(i + 1, n):
                rows[i][j] = entry()
                rows[j][i] = rows[i][j].conjugate()
        return rows
    B = [[entry() for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        B[rng.randrange(n)] = [qfe(delta, 0)] * n
    rows = mat_mul(mat_transpose(B), mat_conj(B))
    if kind == "flipped":
        k = rng.randrange(n)
        rows[k][k] = -rows[k][k]
    return rows


def test_positive_definite_agrees_with_the_leading_minor_oracle():
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for trial in range(300):
        delta = rng.choice([-1, -3, -5, -7, -15])
        rows = _random_hermitian_rows(rng, delta, rng.randint(1, 5))
        expected = positive_definite_oracle(rows, delta)
        assert is_positive_definite(rows, delta) == expected, (delta, rows)
        seen[expected] += 1
    assert min(seen.values()) >= 30
    # a zero leading minor, and singular matrices, are not positive definite
    for delta in (-1, -3, -7):
        hyperbolic = [[qfe(delta, 0), qfe(delta, 1)], [qfe(delta, 1), qfe(delta, 0)]]
        ones = [[qfe(delta, 1)] * 2] * 2
        for rows in (hyperbolic, ones, diag(delta, [1, 0, 1]), diag(delta, [0])):
            assert not positive_definite_oracle(rows, delta)
            assert not is_positive_definite(rows, delta)


def test_hermitian_validation():
    bad = [[qfe(-3, 1), qfe(-3, 0, 1)], [qfe(-3, 0, 1), qfe(-3, 1)]]
    with pytest.raises(HermitianViolationError):
        is_positive_definite(bad, -3)


def test_diff0_examples():
    assert global_report(diag(-3, [1, 1]), -3).diff0 == ()
    assert global_report(diag(-3, [2, 5]), -3).diff0 == (2, 5)
    assert global_report(diag(-3, [1, 3]), -3).diff0 == ()  # 3 ramifies, excluded
    with pytest.raises(SingularMatrixError):
        global_report(diag(-3, [1, 0]), -3)


def test_each_request_factors_delta_once(monkeypatch):
    # the checked field is the only factorization of delta; det T, an
    # integer for a matrix over O_k, adds one more
    import hermcycles.global_cycles as global_cycles
    import hermcycles.padic as padic

    calls = []
    factorize = padic.factorize

    def counting(n, bound=padic.DEFAULT_FACTOR_BOUND):
        calls.append(n)
        return factorize(n, bound)

    monkeypatch.setattr(padic, "factorize", counting)
    monkeypatch.setattr(global_cycles, "factorize", counting)
    cases = (
        (lambda: global_report(diag(-3, [2, 5]), -3), [-3, 10]),
        (lambda: global_report(diag(-15, [1, 1]), -15), [-15, 1]),
    )
    for request, factored in cases:
        calls.clear()
        request()
        assert calls == factored


def test_self_dual_exists_examples():
    assert global_report(diag(-3, [1, 1]), -3).self_dual_exists is True
    assert global_report(diag(-3, [2, 5]), -3).self_dual_exists is False
    assert global_report(diag(-3, [1, 3]), -3).self_dual_exists is True
    # both inert primes obstruct diag(2, 5); the one at 5 is confirmed by the
    # independent conic search, and the product formula accounts for 2
    from hermcycles import hilbert_symbol

    assert conic_has_primitive_zero(10, -3, 5) is False
    assert hilbert_symbol(10, -3, 5) == -1
    assert hilbert_symbol(10, -3, 2) == -1
    assert hilbert_symbol(10, -3, 3) == 1 and hilbert_symbol(10, -3, "real") == 1


def _outcome(f, *args):
    try:
        return f(*args)
    except Error as exc:
        return type(exc).__name__, str(exc)


def _oracle_matrices(delta, rng):
    """Integral diagonal and off-diagonal Hermitian 2x2 matrices over
    Q(sqrt(delta)).

    Determinants carry powers of the inert primes below 24 with exponents 0
    to 3, so both parities occur; one matrix per delta is indefinite.
    """
    inert = [q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23) if _splitting(delta, q) == INERT]

    def det_value():
        k = rng.choice((1, 1, 2, 3, 5, 7))
        for q in rng.sample(inert, min(2, len(inert))):
            k *= q ** rng.randint(0, 3)
        return k

    for _ in range(4):
        yield diag(delta, [det_value(), det_value()])
    for _ in range(3):
        z = qfe(delta, rng.randint(-3, 3), rng.randint(-2, 2))
        c = z.norm() + det_value()  # a * b, for the determinant a * b - N(z)
        a = rng.choice([a for a in range(1, 7) if c % a == 0])
        yield [[qfe(delta, a), z], [z.conjugate(), qfe(delta, c / a)]]
    yield diag(delta, [det_value(), -det_value()])


def test_self_dual_exists_matches_the_hilbert_symbol_oracle():
    # global_report refuses non-integral entries, so the matrices are
    # integral; an indefinite one reports None, and a factor bound of 10
    # fails both sides on the same matrices
    deltas = squarefree_deltas()
    assert {_splitting(d, 2) for d in deltas} == {SPLIT, INERT, RAMIFIED}
    answers, inert_parities = set(), set()
    for delta in deltas:
        rng = random.Random(delta)
        for T in _oracle_matrices(delta, rng):
            for bound in (10**6, 10):
                report = _outcome(global_report, T, delta, bound)
                got = report if isinstance(report, tuple) else report.self_dual_exists
                assert got == _outcome(self_dual_oracle, T, delta, bound), (delta, T, bound)
                answers.add(got[0] if isinstance(got, tuple) else got)
            det = HermGram(T).det_rational()
            assert det.denominator == 1  # T is integral
            for q, k in factorize(int(det)).items():
                if _splitting(delta, q) == INERT:
                    inert_parities.add((q == 2, k % 2))
    assert answers == {True, False, None, "FactorizationLimitError"}
    assert inert_parities == {(True, 0), (True, 1), (False, 0), (False, 1)}


def test_global_fixtures_match_goldens():
    for name, matrix in (
        ("global_identity", diag(-3, [1, 1])),
        ("global_diag_2_5", diag(-3, [2, 5])),
        ("global_diag_1_3", diag(-3, [1, 3])),
    ):
        golden = json.loads((FIXTURES / f"{name}.golden.json").read_text())
        assert global_report(matrix, -3).to_json() == golden


def test_global_identity_key_facts():
    rep = global_report(diag(-3, [1, 1]), -3)
    assert rep.status == "ramified-supported"
    inv = rep.per_prime[3]
    assert inv.dimension == 0 and inv.single_point
    assert rep.self_dual_exists is True


def test_global_two_obstructions_empty():
    rep = global_report(diag(-3, [2, 5]), -3)
    assert rep.status == "empty"
    assert rep.diff0 == (2, 5)
    assert rep.per_prime == {}


def test_global_diag13_dimension():
    rep = global_report(diag(-3, [1, 3]), -3)
    inv = rep.per_prime[3]
    assert inv.m == 1 and inv.t == 0 and inv.dimension == 0


def test_global_single_obstruction_inert_case():
    rep = global_report(diag(-3, [2, 1]), -3)  # det 2, inert at 2, odd valuation
    assert rep.status == "inert-case"
    assert rep.diff0 == (2,)
    assert rep.per_prime == {}


def test_global_not_positive_definite_empty():
    rep = global_report(diag(-3, [1, -1]), -3)
    assert rep.status == "empty"
    assert rep.self_dual_exists is None


def test_global_even_delta_unsupported_two():
    rep = global_report(diag(-2, [1, 1]), -2)
    assert rep.unsupported_primes == (2,)
    assert rep.ramified_primes_odd == ()
    assert rep.status == "ramified-supported"
    assert rep.per_prime == {}
    # delta = 3 mod 4 also ramifies 2 through the field discriminant
    rep = global_report(diag(-5, [1, 1]), -5)
    assert rep.unsupported_primes == (2,)
    assert rep.ramified_primes_odd == (5,)


def test_global_errors():
    with pytest.raises(InvalidFieldError):
        global_report(diag(-12, [1, 1]), -12)
    with pytest.raises(InvalidFieldError):
        global_report(diag(5, [1, 1]), 5)
    with pytest.raises(IntegralityError):
        global_report(diag(-3, [F(1, 2), 1]), -3)
    with pytest.raises(SingularMatrixError):
        global_report(diag(-3, [0, 1]), -3)
    # a local context whose pi^2 is 3, not delta = -3
    with pytest.raises(PreconditionError, match="^context uniformizer does not square to delta$"):
        embed_matrix(diag(-3, [1, 1]), -3, RamifiedContext(3, 1))
    assert embed_matrix(diag(-3, [1, 1]), -3, local_context(-3, 3)).n == 2


def test_embedding_is_ring_map_on_determinants():
    rng = random.Random(15)
    for delta in (-3, -7, -11):
        for p in [q for q in (3, 7, 11) if delta % q == 0]:
            ctx = local_context(delta, p)
            assert ctx.pi0 == delta
            for _ in range(20):
                n = rng.randint(1, 3)
                rows = [[None] * n for _ in range(n)]
                for i in range(n):
                    rows[i][i] = qfe(delta, rng.randint(-4, 4))
                    for j in range(i + 1, n):
                        rows[i][j] = qfe(delta, rng.randint(-3, 3), rng.randint(-3, 3))
                        rows[j][i] = rows[i][j].conjugate()
                if HermGram(rows).det_rational() == 0:
                    continue
                G = embed_matrix(rows, delta, ctx)
                det_local = mat_det([list(r) for r in G.entries], ctx)
                det_global = HermGram(rows).det_rational()
                assert det_local == ctx.element(det_global)


def test_status_transitions_on_random_positive_matrices():
    rng = random.Random(16)
    seen = set()
    for trial in range(50):
        delta = rng.choice([-3, -7, -11])
        n = rng.randint(1, 2)
        # A^dagger A + k*I is positive definite and integral
        A = [
            [qfe(delta, rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)]
            for _ in range(n)
        ]
        T = [[qfe(delta, 1 if i == j else 0) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                acc = qfe(delta, 0)
                for k in range(n):
                    acc = acc + A[k][i].conjugate() * A[k][j]
                T[i][j] = T[i][j] + acc
        rep = global_report(T, delta)
        assert rep.positive_definite
        seen.add(rep.status)
        if len(rep.diff0) > 1:
            assert rep.status == "empty"
        elif len(rep.diff0) == 1:
            assert rep.status == "inert-case"
        else:
            assert rep.status == "ramified-supported"
            assert set(rep.per_prime) == set(rep.ramified_primes_odd)
            for inv in rep.per_prime.values():
                assert inv.dimension == inv.t // 2
    assert "ramified-supported" in seen


def test_dimension_depends_only_on_p_and_matrix():
    # scaling the local matrix by a unit of either square class (2 is not a
    # square at 3, 4 is) or applying a unimodular integral basis change
    # leaves every local dimension unchanged
    from hermcycles.cycles import cycle_report

    rng = random.Random(17)
    delta = -3
    T = [
        [qfe(delta, 3), qfe(delta, 0, 1)],
        [qfe(delta, 0, -1), qfe(delta, 4)],
    ]
    base = global_report(T, delta).per_prime[3]
    ctx = local_context(delta, 3)
    for unit in (2, 4):
        assert cycle_report(scaled_gram(embed_matrix(T, delta, ctx), unit)) == base
    # unimodular change over the maximal order: T -> U^dagger T U
    U = [[qfe(delta, 1), qfe(delta, 1, 1)], [qfe(delta, 0), qfe(delta, 1)]]
    moved = [[qfe(delta, 0)] * 2 for _ in range(2)]
    for i in range(2):
        for j in range(2):
            acc = qfe(delta, 0)
            for k in range(2):
                for l in range(2):
                    acc = acc + U[k][i].conjugate() * T[k][l] * U[l][j]
            moved[i][j] = acc
    assert global_report(moved, delta).per_prime[3].dimension == base.dimension
