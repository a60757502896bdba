import gc
import random
import weakref
from fractions import Fraction as F

import pytest
from support import (
    is_norm_oracle,
    is_square_unit,
    rand_oh,
    smallest_nonresidue,
    unit_norm_residues,
)

from hermcycles import (
    OHElement,
    PreconditionError,
    QuadContext,
    RamifiedContext,
    UnsupportedPrimeError,
    pi_power,
)
from hermcycles.padic import INFINITY, _val


def test_context_validation():
    with pytest.raises(UnsupportedPrimeError):
        RamifiedContext(2)
    with pytest.raises(PreconditionError):
        RamifiedContext(9)
    with pytest.raises(PreconditionError):
        RamifiedContext(3, F(3))  # eps not a unit
    with pytest.raises(TypeError):
        RamifiedContext(3, 1, F(2))  # p and eps are the whole context
    ctx = RamifiedContext(3, -1)
    assert ctx.pi0 == -3
    assert ctx == RamifiedContext(3, F(-1))


def test_defining_relation_and_products():
    ctx = RamifiedContext(5, 1)
    pi = ctx.element(0, 1)
    assert pi * pi == ctx.element(ctx.pi0)
    assert ctx.element(1, 1) * ctx.element(1, -1) == ctx.element(1 - ctx.pi0)
    assert pi.conjugate() * pi == ctx.element(-ctx.pi0)


def test_inverse():
    ctx = RamifiedContext(3, 1)
    pi = ctx.element(0, 1)
    assert pi.inverse() == pi / ctx.element(ctx.pi0)
    assert ctx.one().inverse() == ctx.one()
    x = ctx.element(1, 1)
    assert x.inverse() * x == ctx.one()
    with pytest.raises(PreconditionError):
        ctx.zero().inverse()


def test_an_element_times_its_inverse_is_one():
    # a rational element is inverted by one division, any other through its
    # norm; both give the inverse, and zero has none
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    contexts = [RamifiedContext(3, 1), RamifiedContext(5, -1), RamifiedContext(7, F(1, 2))]
    component = st.builds(F, st.integers(-60, 60), st.integers(1, 30))

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(contexts), component, component, st.booleans())
    def check(ctx, a, b, rational):
        x = OHElement(a, 0 if rational else b, ctx)
        if x.is_zero():
            return
        inv = x.inverse()
        assert type(inv.a) is F and type(inv.b) is F
        assert x * inv == ctx.one() == inv * x
        if rational:
            assert inv == ctx.element(1 / a)

    check()
    for ctx in contexts:
        with pytest.raises(PreconditionError):
            ctx.zero().inverse()


def test_ord_examples():
    ctx = RamifiedContext(3, 1)
    assert ctx.element(3).ord() == 2
    assert ctx.element(0, 1).ord() == 1
    assert ctx.element(3, 9).ord() == 2
    assert ctx.zero().ord() == INFINITY
    assert pi_power(ctx, -3).ord() == -3


def test_ord_multiplicative_and_norm_compatible():
    rng = random.Random(4)
    for p in (3, 5):
        ctx = RamifiedContext(p, -1)
        for _ in range(250):
            x = rand_oh(rng, ctx, min_val=-1, max_val=2)
            y = rand_oh(rng, ctx, min_val=-1, max_val=2)
            if x.is_zero() or y.is_zero():
                continue
            assert (x * y).ord() == x.ord() + y.ord()
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x * x.conjugate()).ord() == 2 * x.ord()


def test_conjugation_involution():
    rng = random.Random(5)
    ctx = RamifiedContext(7, 1)
    for _ in range(50):
        x = rand_oh(rng, ctx)
        assert x.conjugate().conjugate() == x
        assert (x.conjugate() == x) == (x.b == 0)


def test_context_mismatch():
    a = RamifiedContext(3, 1).one()
    b = RamifiedContext(3, -1).one()
    with pytest.raises(PreconditionError):
        a + b


def test_is_norm_examples():
    for p, eps in ((3, 1), (3, -1), (5, 1), (7, -1)):
        ctx = RamifiedContext(p, F(eps))
        assert is_norm_oracle(-ctx.pi0, ctx)
        for q in (F(4), F(9, 49), F(1, 4), F(25)):
            assert is_norm_oracle(q, ctx)  # squares of rationals are norms
    assert not is_norm_oracle(-1, RamifiedContext(3, -1))


def test_is_norm_against_enumeration_oracle():
    # the unit norms are exactly the squares, which makes the determinant
    # class of a Jordan block (JordanBlock.det_unit_is_square) well defined:
    # a rational is a norm exactly when its unit part over -pi0 is a square
    for p, eps in ((3, 1), (3, -1), (5, 1), (5, 2), (7, 1)):
        ctx = RamifiedContext(p, F(eps))
        residues = unit_norm_residues(ctx)
        pi0 = ctx.pi0
        r = smallest_nonresidue(p)
        for q in (1, -1, 2, r, -r, pi0, -pi0, r * pi0, pi0 * pi0, 4 * pi0, F(1, 2)):
            q = F(q)
            square = is_square_unit(q / (-pi0) ** _val(q, p), p)
            assert square == is_norm_oracle(q, ctx, residues), (p, eps, q)


def test_norm_group_has_index_two():
    for p in (3, 5, 7):
        r = smallest_nonresidue(p)
        for eps in (1, -1, r):
            ctx = RamifiedContext(p, F(eps))
            residues = unit_norm_residues(ctx)
            for u in (F(1), F(r), F(p + 1)):
                reps = [u, r * u, ctx.pi0 * u, r * ctx.pi0 * u]
                assert sum(1 for q in reps if is_norm_oracle(q, ctx, residues)) == 2, (p, eps, u)


def test_pi_power():
    ctx = RamifiedContext(5, 2)
    for e in range(-4, 5):
        x = pi_power(ctx, e)
        assert x.ord() == e
        assert x * pi_power(ctx, -e) == ctx.one()


def test_pi_power_from_int_powers_is_the_fraction_power():
    # pi_power builds pi0**h from int powers; the pivots of the enumerator's
    # canonical bases and the hyperbolic planes come from it
    for ctx in (RamifiedContext(3, 1), RamifiedContext(5, F(1, 2)), RamifiedContext(7, F(-5, 3))):
        for e in range(-8, 9):
            x, c = pi_power(ctx, e), ctx.pi0 ** (e // 2)
            assert (x.a, x.b) == ((F(0), c) if e % 2 else (c, F(0))), (ctx, e)
            assert type(x.a) is type(x.b) is F, (ctx, e)
    x = pi_power(QuadContext(F(-7, 3)), -3)
    assert (x.a, x.b) == (F(0), F(9, 49))


def test_pi_power_keeps_no_context_alive():
    ctx = RamifiedContext(7, F(3, 5))
    ref = weakref.ref(ctx)
    assert pi_power(ctx, 3).ord() == 3
    del ctx
    gc.collect()
    assert ref() is None


def test_element_json():
    ctx = RamifiedContext(3, 1)
    assert ctx.element(F(1, 2), F(-3)).to_json() == {"a": "1/2", "b": "-3"}


def test_arithmetic_with_plain_numbers():
    ctx = RamifiedContext(3, 1)
    pi = ctx.element(0, 1)
    assert 1 + pi == ctx.element(1, 1)
    assert 2 * pi == ctx.element(0, 2)
    assert (pi + F(1, 2)) - F(1, 2) == pi
    assert 1 / ctx.element(2) == ctx.element(F(1, 2))


def _pair(x):
    """(a, b) of an element, or (x, 0) of a plain number, as Fractions."""
    if isinstance(x, OHElement):
        return x.a, x.b
    return F(x), F(0)


def _pair_formulas(x, y, pi0):
    (a, b), (c, d) = _pair(x), _pair(y)
    return {
        "+": (a + c, b + d),
        "-": (a - c, b - d),
        "*": (a * c + b * d * pi0, a * d + b * c),
    }


def test_zero_aware_arithmetic_matches_the_pair_formulas():
    # the fast paths for zero components give what the general formulas give,
    # with every component a Fraction, for int and Fraction scalars on either
    # side, over the local and the global algebra
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    contexts = st.sampled_from(
        [RamifiedContext(3, -1), RamifiedContext(5, F(2, 3)), QuadContext(-3), QuadContext(F(7, 2))]
    )
    nonzero = st.builds(F, st.integers(-30, 30).filter(bool), st.integers(1, 12))
    component = st.one_of(st.just(F(0)), nonzero, nonzero)  # zero about a third of the time
    scalar = st.one_of(st.integers(-4, 4), component)
    ops = {"+": lambda u, v: u + v, "-": lambda u, v: u - v, "*": lambda u, v: u * v}

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(contexts, component, component, component, component, scalar)
    def check(ctx, a, b, c, d, s):
        x, y = OHElement(a, b, ctx), OHElement(c, d, ctx)
        for left, right in ((x, y), (y, x), (x, s), (s, x)):
            expected = _pair_formulas(left, right, ctx.pi0)
            for name, op in ops.items():
                r = op(left, right)
                assert type(r.a) is F and type(r.b) is F, (name, left, right)
                assert (r.a, r.b) == expected[name], (name, left, right)
        for z in (x, -x, x.conjugate()):
            assert type(z.norm()) is F
            za, zb = _pair(z)
            assert z.norm() == za * za - zb * zb * ctx.pi0
        assert (-x).a == -a and (-x).b == -b and x.conjugate().b == -b
        if x.is_zero():
            with pytest.raises(PreconditionError):
                x.inverse()
        else:
            n = a * a - b * b * ctx.pi0
            inv = x.inverse()
            assert type(inv.a) is F and type(inv.b) is F
            assert (inv.a, inv.b) == (a / n, -b / n)

    check()
