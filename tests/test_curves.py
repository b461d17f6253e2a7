"""Symmetric powers, the Jacobian, and the zeta-function identities."""

import re

import pytest

from curvemotives.curves import (
    ZetaSeries,
    binomial_h1_series,
    check_functional_equation,
    check_symmetric_power_decomposition,
    check_zeta_rationality,
    dec_zeta_rhs,
    jacobian_class,
    sym_power_class,
    zeta_at_lefschetz,
    zeta_series,
)
from curvemotives.series import CoeffPoly, GenusContext, MotiveSeries, one


def _l(g, *mono):
    return CoeffPoly.single(g, tuple(mono))


def test_sym_power_small_tables():
    ctx = GenusContext.adic(2)
    c0 = sym_power_class(ctx, 0)
    assert c0.coefficient(0) == 1 and c0.vanishes_above(0) is None
    c1 = sym_power_class(ctx, 1)
    assert c1.coefficient(0) == CoeffPoly.one(2) + _l(2, 1, 0)
    assert c1.coefficient(1) == 1
    c2 = sym_power_class(ctx, 2)
    assert c2.coefficient(0) == CoeffPoly.one(2) + _l(2, 1, 0) + _l(2, 0, 1)
    assert c2.coefficient(1) == CoeffPoly.one(2) + _l(2, 1, 0)
    assert c2.coefficient(2) == 1


def test_sym_power_duality_fold():
    # at k = 3, g = 2 the b = 3 row folds down to l1 * L
    ctx = GenusContext.adic(2)
    c3 = sym_power_class(ctx, 3)
    assert c3.coefficient(1) == CoeffPoly.one(2) + 2 * _l(2, 1, 0) + _l(2, 0, 1)
    assert c3.coefficient(3) == 1


def test_jacobian_tables():
    ctx2 = GenusContext.adic(2)
    j2 = jacobian_class(ctx2)
    assert j2.coefficient(0) == CoeffPoly.one(2) + _l(2, 1, 0) + _l(2, 0, 1)
    assert j2.coefficient(1) == _l(2, 1, 0)
    assert j2.coefficient(2) == 1
    ctx3 = GenusContext.adic(3)
    j3 = jacobian_class(ctx3)
    assert j3.coefficient(0) == (CoeffPoly.one(3) + _l(3, 1, 0, 0)
                                 + _l(3, 0, 1, 0) + _l(3, 0, 0, 1))
    assert j3.coefficient(1) == _l(3, 0, 1, 0)
    assert j3.coefficient(2) == _l(3, 1, 0, 0)
    assert j3.coefficient(3) == 1


def test_binomial_h1_series_m1():
    ctx = GenusContext.adic(2)
    b = binomial_h1_series(ctx, 1)
    assert b.coefficient(0) == 1
    assert b.coefficient(1) == _l(2, 1, 0)
    assert b.coefficient(2) == _l(2, 0, 1)
    assert b.coefficient(3) == 0
    assert b.coefficient(4) == _l(2, 1, 0)  # lambda^3 L^3 folded
    assert b.coefficient(6) == 1            # lambda^4 L^4 folded
    with pytest.raises(ValueError):
        binomial_h1_series(ctx, 0)


def test_zeta_series_coefficients_are_sym_powers():
    ctx = GenusContext.adic(2)
    z = zeta_series(ctx)
    assert z.t_max == 8
    for k in range(0, 9):
        assert bool(z.coeff(k).equals(sym_power_class(ctx, k)))
    with pytest.raises(ValueError):
        z.coeff(9)


def test_zeta_series_window_guard():
    ctx = GenusContext.adic(2, hi=5)
    with pytest.raises(ValueError):
        ZetaSeries(ctx, 6)


def test_zeta_at_lefschetz_low_coefficients():
    ctx = GenusContext.adic(2)
    z1 = zeta_at_lefschetz(ctx, 1)
    assert z1.coefficient(0) == 1
    assert z1.coefficient(1) == CoeffPoly.one(2) + _l(2, 1, 0)


def test_zeta_at_lefschetz_argument_guards():
    with pytest.raises(ValueError):
        zeta_at_lefschetz(GenusContext.adic(2), 0)
    dctx = GenusContext.dimensional(2)
    with pytest.raises(ValueError):
        zeta_at_lefschetz(dctx, -1)
    with pytest.raises(ValueError):
        zeta_at_lefschetz(dctx, 1)


@pytest.mark.parametrize("i", [-2, -3])
def test_dimensional_zeta_refuses_support_above_the_ceiling(i):
    # the ceiling is a hard support bound: the L^0 term is refused, as by
    # one(ctx), never dropped
    ctx = GenusContext.dimensional(2, lo=-20, hi=-1)
    msg = re.escape("support at L^0 above the dimensional ceiling -1")
    with pytest.raises(ValueError, match=msg):
        one(ctx)
    with pytest.raises(ValueError, match=msg):
        zeta_at_lefschetz(ctx, i)
    z = zeta_at_lefschetz(GenusContext.dimensional(2, lo=-20, hi=0), i)
    assert z.coefficient(0) == 1


def test_dec_zeta_adic():
    for g in (2, 3):
        ctx = GenusContext.adic(g)
        for i in (1, 2, 3):
            assert bool(zeta_at_lefschetz(ctx, i).equals(dec_zeta_rhs(ctx, i)))


def test_dec_zeta_dimensional():
    for g in (2, 3):
        ctx = GenusContext.dimensional(g)
        for i in (2, 3):
            lhs = zeta_at_lefschetz(ctx, -i).shift((2 * i - 1) * (g - 1))
            assert bool(lhs.equals(dec_zeta_rhs(ctx, i)))
    with pytest.raises(ValueError):
        dec_zeta_rhs(GenusContext.dimensional(2), 1)


def test_zeta_rationality_check():
    for g in (2, 3):
        steps = check_zeta_rationality(GenusContext.adic(g))
        assert len(steps) == 4 * g + 1
        assert all(bool(cmp) for _, cmp in steps)


def test_functional_equation_check():
    for g in (2, 3, 4):
        steps = check_functional_equation(GenusContext.adic(g))
        assert len(steps) == 2 * g + 1
        assert all(bool(cmp) for _, cmp in steps)


def test_symmetric_power_decomposition_check():
    for g in (2, 3):
        ctx = GenusContext.adic(g)
        for k in range(g, 3 * g + 1):
            assert bool(check_symmetric_power_decomposition(ctx, k))
    with pytest.raises(ValueError):
        check_symmetric_power_decomposition(GenusContext.adic(3), 2)


def test_symmetric_power_middle_range_has_both_terms():
    # spot-check the two-term shape by hand at g = 3, k = 3
    ctx = GenusContext.adic(3)
    ladder = MotiveSeries(ctx, {0: CoeffPoly.one(3)})
    rhs = jacobian_class(ctx) * ladder + sym_power_class(ctx, 1).shift(1)
    assert bool(sym_power_class(ctx, 3).equals(rhs))
