"""The composition-indexed inversion sum and its combinatorial pieces."""

import math
from fractions import Fraction

import pytest

from curvemotives import moduli
from curvemotives.curves import _zeta_numerator, jacobian_class
from curvemotives.moduli import (
    InversionSpec,
    compositions,
    frac_part,
    inversion_consistency,
    inversion_exponent,
    inversion_formula,
    inversion_sum,
    m2_chi,
    m3_chi,
)
from curvemotives.series import GenusContext, lefschetz_power, zero


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


def _inversion_reference(ctx, spec):
    """inversion_formula term by term, as it was built before the common
    denominator: each composition's finite numerator divided by its own
    units, one div_unit chain per composition, then shifted and signed."""
    jac = jacobian_class(ctx)
    total = zero(ctx)
    for comp in spec.compositions():
        s = len(comp)
        term = jac ** s
        units = [1] * (s - 1)
        for nj in comp:
            for i in range(1, nj):
                term = term * _zeta_numerator(ctx, i)[0]
                units += [i, i + 1]
        units += [comp[j] + comp[j + 1] for j in range(s - 1)]
        for i in units:
            term = term.div_unit(i)
        term = term.shift(inversion_exponent(ctx.g, spec, comp))
        total = total + (-term if s % 2 == 0 else term)
    return total


def _inversion_outcome(build, ctx, spec):
    """The class as JSON, which holds its validity range, or the error."""
    try:
        return build(ctx, spec).to_json()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2)])
def test_inversion_formula_matches_termwise_reference(n, d):
    # g = 2..4, window floors 0 and -2, every ceiling from 0 to 44
    spec = InversionSpec(n, d)
    for g in (2, 3, 4):
        for lo in (0, -2):
            for hi in range(0, 45):
                ctx = GenusContext.adic(g, hi=hi, lo=lo)
                assert (_inversion_outcome(inversion_formula, ctx, spec)
                        == _inversion_outcome(_inversion_reference, ctx, spec)), (g, lo, hi)


# -- I(n,d): the sum with one [J] taken out of every term ---------------------


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_inversion_sum_is_the_moduli_class(g):
    # I(2,1) = M(2), I(3,1) = I(3,2) = M(3) on the whole default window
    ctx = GenusContext.adic(g)
    for (n, d), m in (((2, 1), m2_chi(ctx)), ((3, 1), m3_chi(ctx)), ((3, 2), m3_chi(ctx))):
        cmp = inversion_sum(ctx, InversionSpec(n, d)).equals(m)
        assert cmp.equal and (cmp.lo, cmp.hi) == (0, 10 * g + 10), (n, d)


def _jacobian_times_sum(ctx, spec):
    return jacobian_class(ctx) * inversion_sum(ctx, spec)


@pytest.mark.parametrize("n,d", [(4, 1), (4, 3), (5, 2)])
def test_jacobian_times_sum_matches_termwise_reference(n, d):
    # the same class and validity range, or the same error, as the sum
    # built with every [J]^s
    spec = InversionSpec(n, d)
    for g in (2, 3):
        for lo in (0, -2):
            for hi in (0, 3, 9, 17):
                ctx = GenusContext.adic(g, hi=hi, lo=lo)
                assert (_inversion_outcome(_jacobian_times_sum, ctx, spec)
                        == _inversion_outcome(_inversion_reference, ctx, spec)), (g, lo, hi)


@pytest.mark.parametrize("n,d,g", [(4, 1, 2), (4, 1, 3), (4, 3, 2), (4, 3, 3),
                                   (5, 1, 2), (5, 2, 2)])
def test_inversion_sum_vanishes_above_the_moduli_dimension(n, d, g):
    # recorded data: I(n,d) has no term above (n^2-1)(g-1) on the default
    # window at these ranks, degrees and genera
    ctx = GenusContext.adic(g)
    assert inversion_sum(ctx, InversionSpec(n, d)).vanishes_above((n * n - 1) * (g - 1)) is None


def _full_reading(ctx, r):
    """The fixed-determinant reading with the whole product [J] I built."""
    m = m2_chi(ctx) if r == 2 else m3_chi(ctx)
    return (jacobian_class(ctx) * inversion_sum(ctx, InversionSpec(r, 1))).equals(m)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_narrowed_reading_matches_the_full_product(g):
    # the same Comparison (verdict, range, witness exponent and delta) as
    # the whole product, on every ceiling from the check's minimum to 20
    # above it, with the window floor at 0 and at -2
    need = moduli.min_ceiling(3, g)
    for lo in (0, -2):
        for hi in range(need, need + 21):
            ctx = GenusContext.adic(g, hi=hi, lo=lo)
            for r in (2, 3):
                got = dict(inversion_consistency(ctx, r))["fixed-determinant"]
                want = _full_reading(ctx, r)
                assert not want.equal
                assert got == want, (lo, hi, r)


def test_narrowed_reading_widens_to_the_first_difference():
    # a class that agrees with [J] I up to L^e: the window doubles until it
    # reaches e, and a class that agrees everywhere takes the whole product.
    # I L^-1 has support below L^0, so each narrowed product is valid on
    # fewer slots than its window, and the reading falls back to the whole
    # product
    for lo, shift in ((0, 0), (-2, 0), (-2, -1)):
        ctx = GenusContext.adic(3, hi=40, lo=lo)
        jac, i = jacobian_class(ctx), inversion_sum(ctx, InversionSpec(3, 1)).shift(shift)
        full = jac * i
        for m in [full] + [full + lefschetz_power(ctx, e) for e in (0, 1, 2, 7, 16, 33, 39)]:
            assert moduli._product_equals(jac, i, m) == full.equals(m)
