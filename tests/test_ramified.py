import gc
import random
import weakref
from fractions import Fraction as F

import pytest
from support import is_norm_oracle, rand_oh, unit_norm_residues

from hermcycles import (
    INFINITY,
    PreconditionError,
    RamifiedContext,
    UnsupportedPrimeError,
    is_norm,
    pi_power,
    smallest_nonresidue,
)


def test_context_validation():
    with pytest.raises(UnsupportedPrimeError):
        RamifiedContext(2)
    with pytest.raises(PreconditionError):
        RamifiedContext(9)
    with pytest.raises(PreconditionError):
        RamifiedContext(3, F(3))  # eps not a unit
    with pytest.raises(PreconditionError):
        RamifiedContext(3, 1, F(4))  # delta_sq a square
    ctx = RamifiedContext(3, -1)
    assert ctx.pi0 == -3
    assert ctx.delta_sq == smallest_nonresidue(3) == 2
    assert ctx.unit_scale() == 2  # -(-1)^-1 * 2


def test_defining_relation_and_products():
    ctx = RamifiedContext(5, 1)
    pi = ctx.pi()
    assert pi * pi == ctx.element(ctx.pi0)
    assert ctx.element(1, 1) * ctx.element(1, -1) == ctx.element(1 - ctx.pi0)
    assert pi.conjugate() * pi == ctx.element(-ctx.pi0)


def test_inverse():
    ctx = RamifiedContext(3, 1)
    pi = ctx.pi()
    assert pi.inverse() == pi / ctx.element(ctx.pi0)
    assert ctx.one().inverse() == ctx.one()
    x = ctx.element(1, 1)
    assert x.inverse() * x == ctx.one()
    with pytest.raises(PreconditionError):
        ctx.zero().inverse()


def test_ord_examples():
    ctx = RamifiedContext(3, 1)
    assert ctx.element(3).ord() == 2
    assert ctx.pi().ord() == 1
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
        assert is_norm(-ctx.pi0, ctx)
        for q in (F(4), F(9, 49), F(1, 4), F(25)):
            assert is_norm(q, ctx)  # squares of rationals are norms
    ctx = RamifiedContext(3, -1)
    assert not is_norm(-1, ctx)
    with pytest.raises(PreconditionError):
        is_norm(0, ctx)


def test_is_norm_against_enumeration_oracle():
    for p, eps in ((3, 1), (3, -1), (5, 1), (5, 2), (7, 1)):
        ctx = RamifiedContext(p, F(eps))
        residues = unit_norm_residues(ctx)
        pi0 = ctx.pi0
        r = smallest_nonresidue(p)
        for q in (1, -1, 2, r, -r, pi0, -pi0, r * pi0, pi0 * pi0, 4 * pi0, F(1, 2)):
            q = F(q)
            assert is_norm(q, ctx) == is_norm_oracle(q, ctx, residues), (p, eps, q)


def test_norm_group_has_index_two():
    for p in (3, 5, 7):
        r = smallest_nonresidue(p)
        for eps in (1, -1, r):
            ctx = RamifiedContext(p, F(eps))
            for u in (F(1), F(r), F(p + 1)):
                reps = [u, r * u, ctx.pi0 * u, r * ctx.pi0 * u]
                assert sum(1 for q in reps if is_norm(q, ctx)) == 2, (p, eps, u)


def test_pi_power():
    ctx = RamifiedContext(5, 2)
    for e in range(-4, 5):
        x = pi_power(ctx, e)
        assert x.ord() == e
        assert x * pi_power(ctx, -e) == ctx.one()


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
    pi = ctx.pi()
    assert 1 + pi == ctx.element(1, 1)
    assert 2 * pi == ctx.element(0, 2)
    assert (pi + F(1, 2)) - F(1, 2) == pi
    assert 1 / ctx.element(2) == ctx.element(F(1, 2))
