"""The composition-indexed inversion sum and its combinatorial pieces."""

import math
from fractions import Fraction

import pytest

from curvemotives.curves import jacobian_class
from curvemotives.moduli import (
    InversionSpec,
    compositions,
    frac_part,
    inversion_consistency,
    inversion_exponent,
    inversion_formula,
    m2_chi,
    m3_chi,
)
from curvemotives.series import GenusContext


def test_frac_part_values():
    assert frac_part(-1, 2) == Fraction(1, 2)
    assert frac_part(7, 3) == Fraction(1, 3)
    assert frac_part(0, 5) == 0
    assert frac_part(-6, 3) == 0
    with pytest.raises(ValueError):
        frac_part(1, 0)


def test_compositions_lexicographic():
    assert compositions(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert compositions(0) == [()]
    for n in range(1, 7):
        assert len(compositions(n)) == 2 ** (n - 1)
        assert all(sum(c) == n for c in compositions(n))


def test_inversion_spec_validation():
    assert InversionSpec(2, 1).compositions() == [(1, 1), (2,)]
    InversionSpec(3, 2)
    with pytest.raises(ValueError):
        InversionSpec(2, 2)  # not coprime
    with pytest.raises(ValueError):
        InversionSpec(1, 1)  # rank too small


def test_inversion_exponent_values():
    spec = InversionSpec(2, 1)
    # (1,1): (g-1)*1 + (1+1)*<-1/2> = (g-1) + 1
    assert inversion_exponent(3, spec, (1, 1)) == 3
    assert inversion_exponent(2, spec, (2,)) == 0
    spec31 = InversionSpec(3, 1)
    # (1,1,1): (g-1)*3 + 2*<-1/3> + 2*<-2/3> = 3(g-1) + 2
    assert inversion_exponent(2, spec31, (1, 1, 1)) == 5
    # (1,2): (g-1)*2 + 3*<-1/3> = 2(g-1) + 2
    assert inversion_exponent(2, spec31, (1, 2)) == 4
    # (2,1): (g-1)*2 + 3*<-2/3> = 2(g-1) + 1
    assert inversion_exponent(2, spec31, (2, 1)) == 3
    assert inversion_exponent(2, spec31, (3,)) == 0


def test_inversion_exponents_always_integral():
    for n in range(2, 5):
        for d in range(1, n + 3):
            if math.gcd(n, d) != 1:
                continue
            spec = InversionSpec(n, d)
            for g in (2, 3, 4):
                for comp in spec.compositions():
                    assert isinstance(inversion_exponent(g, spec, comp), int)


def test_inversion_sum_is_jacobian_times_moduli():
    for g in (2, 3):
        ctx = GenusContext.adic(g)
        jac = jacobian_class(ctx)
        inv2 = inversion_formula(ctx, InversionSpec(2, 1))
        assert bool(inv2.equals(jac * m2_chi(ctx)))
        assert not inv2.equals(m2_chi(ctx))
    ctx = GenusContext.adic(2)
    inv3 = inversion_formula(ctx, InversionSpec(3, 1))
    assert bool(inv3.equals(jacobian_class(ctx) * m3_chi(ctx)))


def test_inversion_other_degree():
    # degree 2 coprime to rank 3: same reading
    ctx = GenusContext.adic(2)
    inv = inversion_formula(ctx, InversionSpec(3, 2))
    assert bool(inv.equals(jacobian_class(ctx) * m3_chi(ctx)))


def test_inversion_consistency_dichotomy():
    res = dict(inversion_consistency(GenusContext.adic(2), 2, 1))
    assert not res["fixed-determinant"]
    assert bool(res["jacobian-times-fixed-determinant"])


def test_inversion_consistency_refuses_other_ranks():
    with pytest.raises(ValueError, match="^rank must be 2 or 3, got 4$"):
        inversion_consistency(GenusContext.adic(2), 4, 1)
