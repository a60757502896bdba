import math
import random
from fractions import Fraction as F

import pytest
from support import (
    conic_has_primitive_zero,
    factor_outcome,
    factorize_oracle,
    hilbert_symbol_oracle,
    is_square_unit,
    smallest_nonresidue,
    squarefree_deltas,
    trial_limit,
)

from hermcycles import (
    FactorizationLimitError,
    PreconditionError,
    UnsupportedPrimeError,
    factorize,
    hilbert_symbol,
    parse_rational,
    format_rational,
)
from hermcycles.errors import InvalidFieldError, SchemaError
from hermcycles.padic import (
    _MR_LIMIT,
    INFINITY,
    _rho,
    _splitting,
    _val,
    check_quadratic_field,
    is_prime,
    legendre,
)


def test_val_examples():
    assert _val(F(9, 2), 3) == 2
    assert _val(F(0), 5) == INFINITY
    assert _val(F(2, 3), 3) == -1


def test_val_is_valuation():
    rng = random.Random(1)
    for _ in range(1000):
        p = rng.choice([3, 5, 7])
        x = F(rng.randint(-40, 40), rng.randint(1, 40))
        y = F(rng.randint(-40, 40), rng.randint(1, 40))
        if x == 0 or y == 0:
            continue
        assert _val(x * y, p) == _val(x, p) + _val(y, p)
        vx, vy = _val(x, p), _val(y, p)
        if x + y != 0:
            vsum = _val(x + y, p)
            assert vsum >= min(vx, vy)
            if vx != vy:
                assert vsum == min(vx, vy)


def test_is_square_unit_examples():
    assert is_square_unit(1, 3)
    assert not is_square_unit(2, 3)
    assert is_square_unit(F(4, 25), 3)
    with pytest.raises(PreconditionError):
        is_square_unit(3, 3)
    with pytest.raises(PreconditionError):
        is_square_unit(F(1, 5), 5)
    with pytest.raises(UnsupportedPrimeError):
        is_square_unit(3, 2)


def test_smallest_nonresidue():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(11) == 2


def test_hilbert_trivial_first_argument_one():
    for delta in (-3, -7, -11, 5, 2):
        for p in (2, 3, 5, 7, "real"):
            assert hilbert_symbol(1, delta, p) == 1


def test_hilbert_derived_examples():
    # frozen from the conic search oracle
    assert conic_has_primitive_zero(-1, -3, 3) is False
    assert hilbert_symbol(-1, -3, 3) == -1
    assert conic_has_primitive_zero(2, 7, 7) is True
    assert hilbert_symbol(2, 7, 7) == 1


def test_hilbert_real_place():
    assert hilbert_symbol(-1, -1, "real") == -1
    assert hilbert_symbol(-1, 2, "real") == 1
    assert hilbert_symbol(3, 5, "real") == 1


def test_hilbert_errors():
    with pytest.raises(PreconditionError):
        hilbert_symbol(0, 3, 5)
    with pytest.raises(PreconditionError):
        hilbert_symbol(3, 0, 5)
    with pytest.raises(PreconditionError):
        hilbert_symbol(1, 1, 6)


def test_hilbert_symmetry_and_bimultiplicativity():
    rng = random.Random(2)
    places = [2, 3, 5, 7, "real"]
    for _ in range(200):
        a = F(rng.choice([n for n in range(-12, 13) if n]), rng.randint(1, 9))
        b = F(rng.choice([n for n in range(-12, 13) if n]), rng.randint(1, 9))
        c = F(rng.choice([n for n in range(-12, 13) if n]), rng.randint(1, 9))
        v = rng.choice(places)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a * c, b, v) == hilbert_symbol(a, b, v) * hilbert_symbol(c, b, v)


def test_hilbert_product_formula():
    rng = random.Random(3)
    for _ in range(100):
        a = rng.choice([n for n in range(-50, 51) if n])
        b = rng.choice([n for n in range(-50, 51) if n])
        product = hilbert_symbol(a, b, "real")
        for p in factorize(2 * a * b):
            product *= hilbert_symbol(a, b, p)
        assert product == 1


def test_hilbert_agrees_with_conic_oracle():
    for p in (3, 5, 7):
        values = [1, -1, 2, -2, p, -p, 2 * p, -2 * p]
        for a in values:
            for b in values:
                expected = 1 if conic_has_primitive_zero(a, b, p) else -1
                assert hilbert_symbol(a, b, p) == expected, (a, b, p)


HILBERT_GRID_PRIMES = (2, 3, 5, 7, 13)


def _hilbert_outcome(symbol, a, b, place):
    """symbol(a, b, place), or the type and message of the error it raises."""
    try:
        return symbol(a, b, place)
    except PreconditionError as exc:
        return type(exc), str(exc)


def _hilbert_grid_arguments(rng, count):
    """Ints and Fractions of both signs, each a ratio of two numbers with a
    grid prime to a random power in each; the integral values are ints or,
    now and then, Fractions of denominator 1."""
    def factor():
        return rng.randint(1, 30) * rng.choice(HILBERT_GRID_PRIMES) ** rng.randint(0, 3)

    out = []
    for _ in range(count):
        q = F(rng.choice((-1, 1)) * factor(), factor() if rng.random() < 0.6 else 1)
        out.append(q.numerator if q.denominator == 1 and rng.random() < 0.8 else q)
    return out


def test_hilbert_symbol_agrees_with_the_fraction_formula_on_a_seeded_grid():
    rng = random.Random(32)
    args = _hilbert_grid_arguments(rng, 56) + [True, 2.5, -0.75]
    # the grid holds ints, integral Fractions, both signs and, for every grid
    # prime, a negative valuation and a positive one
    assert {type(x) for x in args} == {int, F, bool, float}
    assert any(type(x) is F and x.denominator == 1 for x in args)
    assert any(x < 0 for x in args) and any(x > 0 for x in args)
    for p in HILBERT_GRID_PRIMES:
        assert any(type(x) is F and x.denominator % p == 0 for x in args), p
        assert any(type(x) is int and x % p == 0 for x in args), p
    for place in ("real", *HILBERT_GRID_PRIMES):
        for a in args:
            for b in args:
                expected = hilbert_symbol_oracle(a, b, place)
                assert hilbert_symbol(a, b, place) == expected, (a, b, place)
    # the errors, in the order of the checks: a zero argument before any
    # place, then the place
    zero = (PreconditionError, "hilbert_symbol needs nonzero arguments")
    for place in ("real", 1, 4, True, *HILBERT_GRID_PRIMES):
        for a, b in ((0, 3), (F(5, 4), 0), (F(0), -2), (0, 0)):
            assert _hilbert_outcome(hilbert_symbol, a, b, place) == zero
            assert _hilbert_outcome(hilbert_symbol_oracle, a, b, place) == zero
    for place in (1, 4, True):
        for a, b in ((3, 5), (F(-2, 9), 7)):
            expected = (PreconditionError, f"{place!r} is not prime")
            assert _hilbert_outcome(hilbert_symbol, a, b, place) == expected
            assert _hilbert_outcome(hilbert_symbol_oracle, a, b, place) == expected


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(-7) == {7: 1}
    assert factorize(1) == {}
    # leftover cofactor certified prime by trial division bound
    assert factorize(1009 * 8, bound=100) == {2: 3, 1009: 1}
    with pytest.raises(FactorizationLimitError):
        factorize(1009 * 1013, bound=100)
    with pytest.raises(PreconditionError):
        factorize(0)


def test_factorize_refuses_a_negative_bound():
    # a negative bound would pass every cofactor by the bound**2 test
    for n in (221, 0, 1):
        with pytest.raises(PreconditionError, match="factor bound must be nonnegative, got -1000"):
            factorize(n, bound=-1000)
    # bound 0 tries only 2 and 3, and still refuses a composite cofactor
    assert factorize(12 * 13, bound=0) == {2: 2, 3: 1, 13: 1}
    with pytest.raises(FactorizationLimitError):
        factorize(221, bound=0)


def test_factorize_refuses_huge_remainder():
    with pytest.raises(FactorizationLimitError):
        factorize(2**89 - 1, bound=10**4)  # prime, but beyond certification


def test_factorize_agrees_with_trial_division_on_a_grid():
    # every n < 5000 (negated at odd bounds) at every bound 0..39: each
    # residue of the bound mod 6 and every bound below 5, where the trial
    # limit T is 3
    for bound in range(40):
        sign = -1 if bound % 2 else 1
        for n in range(1, 5000):
            expected = factor_outcome(factorize_oracle, sign * n, bound)
            assert factor_outcome(factorize, sign * n, bound) == expected, (n, bound)


def test_factorize_meets_its_contract_around_the_trial_limit():
    # the contract read off sympy's factorization: primes up to T are found,
    # the product R of the rest is kept when it is 1, at most bound**2 or a
    # certified prime; bounds 0..4 and a run of each residue mod 6 pin T
    sympy = pytest.importorskip("sympy")
    assert [trial_limit(b) for b in range(12)] == [3, 3, 3, 3, 3, 7, 7, 7, 7, 7, 7, 13]
    for bound in [0, 1, 2, 3, 4, *range(996, 1008), 10**6, 10**6 + 1]:
        top = trial_limit(bound)
        below = [sympy.prevprime(top + 1)]
        if top > 5:
            below.append(sympy.prevprime(below[0]))
        above = [sympy.nextprime(top), sympy.nextprime(sympy.nextprime(top))]
        pool = [2, 3, 5, *below, *above]
        for i, p in enumerate(pool):
            for q in pool[i:]:
                for n in (p * q, -p * q * above[0], 4 * p * q * q):
                    found = {r: k for r, k in sympy.factorint(abs(n)).items() if r <= top}
                    rest = abs(n) // math.prod(r**k for r, k in found.items())
                    if rest == 1:
                        assert factorize(n, bound) == found
                    elif rest <= bound * bound or (rest < _MR_LIMIT and sympy.isprime(rest)):
                        assert factorize(n, bound) == dict(sorted({**found, rest: 1}.items()))
                    else:
                        with pytest.raises(FactorizationLimitError) as info:
                            factorize(n, bound)
                        assert str(info.value) == (
                            f"unfactored remainder {rest} beyond trial bound {bound}"
                        )


# copied from the queries benchmark: primes just below the default bound
NEAR_BOUND_PRIMES = (999953, 999959, 999961, 999979, 999983)


def test_rho_never_trial_divides_the_near_bound_determinants(monkeypatch):
    # a cost guard that reads no clock: trial division is the fallback for a
    # piece rho cannot split, and none of these reaches it
    import hermcycles.padic as padic

    calls = []
    trial = padic._trial_divide

    def counting(n, bound, out):
        calls.append(n)
        return trial(n, bound, out)

    monkeypatch.setattr(padic, "_trial_divide", counting)
    for i, a in enumerate(NEAR_BOUND_PRIMES):
        for b in NEAR_BOUND_PRIMES[i + 1 :]:
            for d2 in (1, 2, 3, 5, 7, 11):
                expected = dict(sorted({a: 1, b: 1, **({d2: 1} if d2 > 1 else {})}.items()))
                assert factorize(a * b * d2) == expected
    # a prime cofactor below _MR_LIMIT is certified, not trial divided
    assert factorize(3 * (2**61 - 1)) == {3: 1, 2**61 - 1: 1}
    assert calls == []
    # 2**89 - 1 is prime, at or above _MR_LIMIT and too large for rho's
    # budget: it is trial divided and refused with the same message
    assert 2**89 - 1 >= _MR_LIMIT
    with pytest.raises(FactorizationLimitError) as info:
        factorize(2**89 - 1, bound=10**4)
    assert str(info.value) == f"unfactored remainder {2**89 - 1} beyond trial bound 10000"
    assert calls == [2**89 - 1]


def test_small_determinants_make_no_rho_call(monkeypatch):
    # a cost guard that reads no clock: below a rho budget of one 128-step
    # batch a piece goes straight to trial division; these are the global
    # determinants and fields of a queries round apart from the near-bound ones
    import itertools

    import hermcycles.padic as padic

    calls = []
    rho = padic._rho
    monkeypatch.setattr(padic, "_rho", lambda n, budget: calls.append(n) or rho(n, budget))
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 101, 997)
    for k in (1, 2, 3):
        for chosen in itertools.combinations(primes, k):
            for d2 in (1, 2, 3, 5, 7, 11):
                n = math.prod(chosen) * d2
                assert factorize(n) == factorize_oracle(n)
    for delta in (-3, -7, -11, -15, -19, -23):
        assert check_quadratic_field(delta) == tuple(factorize(delta))
    assert calls == []
    # 16007 * 16033 has a budget of 83 squarings: trial division splits it
    assert factorize(16007 * 16033) == {16007: 1, 16033: 1}
    assert calls == []


def test_is_prime_agrees_with_sympy_below_the_limit_and_refuses_from_it():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(21)
    twelve = 318665857834031151167461  # strong pseudoprime to the bases 2..37, not 41
    below = list(range(_MR_LIMIT - 3000, _MR_LIMIT))
    below += list(range(twelve - 1000, twelve + 1000))
    below += [rng.randrange(10**20, _MR_LIMIT) for _ in range(500)]
    below += [399165290221, 798330580441]  # the two prime factors of twelve
    below += [1287836182261, 2575672364521]  # the two prime factors of _MR_LIMIT
    # every n below 43**2 + 3000, and around each term of OEIS A014233 below
    # _MR_LIMIT: the least strong pseudoprime to the first k primes, k = 1..12
    below += list(range(43 * 43 + 3000))
    a014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
               341550071728321, 3825123056546413051, twelve)
    # A014233(8) = A014233(7) and A014233(11) = A014233(10) = A014233(9)
    for term in a014233:
        below += list(range(term - 1000, term + 1000))
    for n in below:
        assert is_prime(n) == sympy.isprime(n), n
    assert twelve == 399165290221 * 798330580441
    # _MR_LIMIT is composite, yet passes Miller-Rabin to all thirteen bases
    assert not sympy.isprime(_MR_LIMIT)
    assert _MR_LIMIT == 1287836182261 * 2575672364521
    for n in (_MR_LIMIT, _MR_LIMIT + 6, 2**89 - 1):
        with pytest.raises(PreconditionError):
            is_prime(n)
    # from the limit on, a factor among the bases is still found exactly
    assert not is_prime(_MR_LIMIT + 1) and not is_prime(3 * 10**25)


def _checked_splitting(delta, p):
    """The splitting of p once the field is checked, as global_report reads it."""
    check_quadratic_field(delta)
    return _splitting(delta, p)


def test_splitting_examples():
    assert _checked_splitting(-3, 3) == "ramified"
    assert _checked_splitting(-3, 2) == "inert"
    assert _checked_splitting(-3, 7) == "split"
    # direct checks behind the derived examples
    assert pow(2, (7 - 1) // 2, 7) == 1 and (-3) % 7 == 4  # square residue
    f = lambda t: (t * t - t + 1) % 2  # minimal polynomial of (1+sqrt(-3))/2
    assert all(f(t) != 0 for t in range(2))  # irreducible mod 2 -> inert


def _minpoly_splitting(delta, p):
    # independent oracle: factor the minimal polynomial of the maximal-order
    # generator mod p (the generator has index 1, so this is always valid)
    if delta % 4 == 1:
        c1, c0 = -1, (1 - delta) // 4
    else:
        c1, c0 = 0, -delta
    roots = [t for t in range(p) if (t * t + c1 * t + c0) % p == 0]
    if len(roots) == 2:
        return "split"
    if len(roots) == 0:
        return "inert"
    return "ramified"


def test_splitting_vs_minpoly_oracle():
    for delta in (-1, -2, -3, -5, -7, -11, -15, -19):
        for p in (2, 3, 5, 7, 11, 13):
            assert _checked_splitting(delta, p) == _minpoly_splitting(delta, p), (delta, p)


def test_checked_field_primes_and_unchecked_splitting_agree_with_the_minpoly_oracle():
    assert check_quadratic_field(-1) == ()
    assert check_quadratic_field(-30) == (2, 3, 5)
    primes = [q for q in range(2, 51) if is_prime(q)]
    squarefree = set(squarefree_deltas())
    for delta in range(-399, 0):
        if delta not in squarefree:
            with pytest.raises(InvalidFieldError, match="squarefree"):
                check_quadratic_field(delta)
            continue
        assert check_quadratic_field(delta) == tuple(factorize(delta))
        for q in primes:
            expected = _minpoly_splitting(delta, q)
            assert _splitting(delta, q) == expected, (delta, q)


def test_splitting_invalid_field():
    for delta in (3, -12, 0):
        with pytest.raises(InvalidFieldError):
            _checked_splitting(delta, 5)


def test_rational_parsing():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == -2
    assert parse_rational(5) == 5
    assert format_rational(F(10, 4)) == "5/2"
    assert format_rational(F(7)) == "7"
    with pytest.raises(SchemaError):
        parse_rational("x")
    with pytest.raises(SchemaError):
        parse_rational("1/0")
    with pytest.raises(SchemaError):
        parse_rational(None)


def test_legendre_of_a_multiple_of_p_is_zero():
    for p in (3, 5, 7):
        assert [legendre(n, p) for n in (0, p, -p, 4 * p)] == [0, 0, 0, 0]
    assert [legendre(n, 5) for n in (1, 2, 3, 4)] == [1, -1, -1, 1]


def test_rho_leaves_a_collapsed_sequence_by_single_steps():
    # on 25 the first batch of the c = 1 sequence multiplies its differences
    # up to a multiple of 25, so rho steps back one difference at a time
    assert _rho(25, 10**6) == 5
