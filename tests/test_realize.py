"""Numeric realizations, counting data, and the independent oracles."""

import operator
from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from curvemotives.curves import jacobian_class, sym_power_class
from curvemotives.moduli import m2_chi, m2_var, m3_chi, rank2_decomposition
from curvemotives.polys import IntPoly, IntPoly2
from curvemotives.realize import (
    HODGE,
    POINCARE,
    CountingData,
    count_cross_check,
    genus2_fixture_counts,
    newstead_oracle,
    realize,
    sym_count_oracle,
)
from curvemotives.series import CoeffPoly, GenusContext, MotiveSeries


def _fixture():
    return CountingData(3, [4, 6])


def test_fixture_brute_force_counts():
    data = genus2_fixture_counts()
    assert data.q == 3
    assert data.counts == [4, 6]


def test_lambda_counts_from_newton():
    data = _fixture()
    assert [data.lambda_count(a) for a in range(5)] == [1, 0, -2, 0, 9]
    assert data.lambda_count(4) == data.q ** 2  # top weight is q^g
    assert data.lambda_count(5) == 0


def test_counting_data_validation():
    with pytest.raises(ValueError):
        CountingData(1, [4])
    with pytest.raises(ValueError):
        CountingData(3, [])
    with pytest.raises(ValueError):
        CountingData(3, [-1])
    # counts that no curve can have: Newton produces a non-integer class
    with pytest.raises(ArithmeticError):
        CountingData(2, [2, 3])


def test_frobenius_counts_extend():
    data = _fixture()
    assert data.frobenius_count(1) == 4
    assert data.frobenius_count(2) == 6
    # beyond g, recovered through the eigenvalue recurrence
    assert data.frobenius_count(3) == 28
    assert data.frobenius_count(4) == 110
    with pytest.raises(ValueError):
        data.frobenius_count(0)


def test_from_json():
    data = CountingData.from_json({"q": 3, "counts": [4, 6]})
    assert data.g == 2 and data.lambda_count(2) == -2


def test_sym_count_oracle_values():
    data = _fixture()
    assert [sym_count_oracle(data, m) for m in range(5)] == [1, 4, 11, 32, 104]
    with pytest.raises(ValueError):
        sym_count_oracle(data, -1)


def test_count_cross_check_rows():
    ctx = GenusContext.adic(2)
    rows = count_cross_check(ctx, _fixture(), k_max=6)
    assert len(rows) == 7
    assert all(got == want for _, got, want in rows)


def test_count_realization_is_multiplicative():
    ctx = GenusContext.adic(2)
    target = _fixture()
    jac = jacobian_class(ctx)
    c2 = sym_power_class(ctx, 2)
    assert realize(jac * c2, target) == realize(jac, target) * realize(c2, target)


def test_poincare_of_jacobian():
    t = IntPoly.x
    for g in (2, 3):
        ctx = GenusContext.adic(g)
        assert realize(jacobian_class(ctx), POINCARE) == (1 + t(1)) ** (2 * g)


def test_hodge_of_jacobian():
    ctx = GenusContext.adic(2)
    u = IntPoly2.monomial(1, 0)
    v = IntPoly2.monomial(0, 1)
    assert realize(jacobian_class(ctx), HODGE) == ((1 + u) * (1 + v)) ** 2


def test_hodge_of_weight_one_class():
    ctx = GenusContext.adic(2)
    lam1 = MotiveSeries(ctx, {0: CoeffPoly.single(2, (1, 0))})
    got = realize(lam1, HODGE)
    assert got == 2 * IntPoly2.monomial(1, 0) + 2 * IntPoly2.monomial(0, 1)


def test_newstead_oracle_genus2_literal():
    t = IntPoly.x
    assert newstead_oracle(2) == 1 + t(2) + 4 * t(3) + t(4) + t(6)


def test_newstead_oracle_shape():
    for g in range(2, 7):
        p = newstead_oracle(g)
        d = 6 * g - 6
        assert p.degree() == d and p.coeff(0) == 1
        # Poincare duality of the moduli space: palindromic coefficients
        assert all(p.coeff(e) == p.coeff(d - e) for e in range(d + 1))


def test_poincare_of_moduli_matches_newstead():
    for g in (2, 3, 4):
        ctx = GenusContext.adic(g)
        assert realize(rank2_decomposition(ctx), POINCARE) == newstead_oracle(g)
        assert realize(m2_chi(ctx), POINCARE) == newstead_oracle(g)


def test_moduli_classes_need_a_ceiling_past_their_support():
    # at g = 3 on [0, 4], m2_chi was valid only up to L^4: its vanishing
    # check above 3g-3 = 6 saw nothing, and the realization silently lost
    # the x^10 + x^12 of the classes at L^5 and L^6
    with pytest.raises(ValueError, match=r"window ceiling 4 does not pass the "
                       r"support bound 6 \(needs >= 7\)"):
        realize(m2_chi(GenusContext.adic(3, hi=4)), POINCARE)
    for g in (2, 3):
        for build, need in ((m2_chi, 3 * g - 2), (m3_chi, 8 * g - 7)):
            with pytest.raises(ValueError, match="does not pass the support bound"):
                build(GenusContext.adic(g, hi=need - 1))
            assert max(build(GenusContext.adic(g, hi=need)).coeffs) == need - 1
    assert realize(m2_chi(GenusContext.adic(3, hi=7)), POINCARE) == newstead_oracle(3)


def test_hodge_diagonal_reproduces_poincare():
    ctx = GenusContext.adic(3)
    for cls in (m2_chi(ctx), m3_chi(ctx), jacobian_class(ctx)):
        assert realize(cls, HODGE).diagonal() == realize(cls, POINCARE)


def test_hodge_symmetry_of_moduli():
    # h^{p,q} = h^{q,p}: the Hodge polynomial is symmetric in u and v
    ctx = GenusContext.adic(2)
    h = realize(m3_chi(ctx), HODGE)
    assert h.terms == {(j, i): c for (i, j), c in h.terms.items()}


def test_count_rejects_negative_exponents():
    dctx = GenusContext.dimensional(2)
    s = MotiveSeries(dctx, {-1: CoeffPoly.one(2)})
    with pytest.raises(ValueError):
        realize(s, _fixture())


@pytest.mark.parametrize("target", [POINCARE, HODGE])
def test_every_target_rejects_negative_exponents(target):
    dctx = GenusContext.dimensional(2)
    s = MotiveSeries(dctx, {-1: CoeffPoly.one(2), 0: CoeffPoly.one(2)})
    with pytest.raises(ValueError):
        realize(s, target)


@pytest.mark.parametrize("base", [IntPoly.x(2), IntPoly2.monomial(1, 1)])
def test_negative_or_fractional_powers_raise(base):
    for n in (-1, -4, 0.5, "2"):
        with pytest.raises(ValueError):
            base ** n
    assert base ** 0 == 1
    assert base ** 3 == base * base * base


def test_ring_operators_refuse_the_other_polynomial_type():
    a, b, c = IntPoly.x(1), IntPoly2.monomial(1, 1), CoeffPoly.one(2)
    for x, y in ((a, b), (b, a), (a, c), (c, a), (b, c), (c, b)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(x, y)


# the realize-poincare-rank2, realize-hodge-consistency and rank3-x-identity
# reports carry these texts in their witnesses, and the README prints the last
# three at g = 2
PRINTED = [
    (lambda: IntPoly({-2: -3, 0: 1, 1: -1, 5: 2}), "-3*x^-2 + 1 - x + 2*x^5"),
    (lambda: IntPoly2({(0, 0): -1, (1, 0): 1, (2, 3): -4, (0, 1): 2}),
     "-1 + 2*v + u - 4*u^2*v^3"),
    (lambda: CoeffPoly(3, {(0, 0, 0): -2, (1, 0, 2): 1, (0, 2, 0): -5}),
     "-2 - 5*l2^2 + l1*l3^2"),
    (lambda: IntPoly(), "0"),
    (lambda: IntPoly2(), "0"),
    (lambda: CoeffPoly(3), "0"),
    (lambda: jacobian_class(GenusContext.adic(2)), "(1 + l1 + l2) + l1*L + L^2"),
    (lambda: realize(rank2_decomposition(GenusContext.adic(2)), POINCARE),
     "1 + x^2 + 4*x^3 + x^4 + x^6"),
    (lambda: realize(rank2_decomposition(GenusContext.adic(2)), _fixture()),
     "40"),
]


@pytest.mark.parametrize("make,text", PRINTED)
def test_printed_text(make, text):
    assert str(make()) == text


@pytest.mark.parametrize("value", [IntPoly.x(1), IntPoly2.monomial(1, 1), CoeffPoly.one(2)])
def test_polynomial_types_are_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)


def test_count_genus_mismatch_rejected():
    ctx = GenusContext.adic(3)
    with pytest.raises(ValueError):
        realize(jacobian_class(ctx), _fixture())


@pytest.mark.parametrize("target", ["count", None, 3])
def test_unknown_target_rejected(target):
    with pytest.raises(ValueError, match="^unknown realization target"):
        realize(jacobian_class(GenusContext.adic(2)), target)


# -- the monomial-by-monomial realization as the reference -----------------


def _reference_images(target, g):
    """The images of lambda^0 .. lambda^g and of L: C(2g, a) t^a and t^2
    (POINCARE), the bivariate polynomials sum_i C(g, i) C(g, a-i) u^i v^(a-i)
    and uv (HODGE), or the integers lambda_count(a) and q (a count)."""
    if target is POINCARE:
        return [comb(2 * g, a) * IntPoly.x(a) for a in range(g + 1)], IntPoly.x(2)
    if target is HODGE:
        return ([IntPoly2({(i, a - i): comb(g, i) * comb(g, a - i) for i in range(a + 1)})
                 for a in range(g + 1)], IntPoly2.monomial(1, 1))
    return [target.lambda_count(a) for a in range(g + 1)], target.q


def _realize_reference(series, target):
    """Realization summed monomial by monomial, each term multiplied out
    factor by factor and times the image of L^e."""
    lam, ell = _reference_images(target, series.g)
    total = 0
    for e, c in series.coeffs.items():
        if e < 0:
            raise ValueError("negative exponent")
        for mono, n in c.items():
            term = n
            for i, ei in enumerate(mono):
                for _ in range(ei):
                    term = term * lam[i + 1]
            total = total + term * ell ** e
    return total


def _targets(g):
    out = [POINCARE, HODGE]
    if g == 2:
        out.append(genus2_fixture_counts())
    return out


def _assert_same_realization(cls):
    for target in _targets(cls.g):
        got, want = realize(cls, target), _realize_reference(cls, target)
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6, 7, 8])
def test_realize_matches_reference_on_named_classes(g):
    ctx = GenusContext.adic(g)
    for cls in [m2_chi(ctx), m3_chi(ctx), jacobian_class(ctx)] + [
            sym_power_class(ctx, k) for k in range(0, 2 * g + 1)]:
        _assert_same_realization(cls)


def test_shared_lambda_images_survive_repeated_calls():
    # repeated realizations, the genera interleaved, give the reference
    # result every time and the same result as the first call: nothing a
    # call leaves behind may change a later one
    first = {}
    for g in (3, 2, 4, 2, 3, 4):
        ctx = GenusContext.adic(g)
        for name, cls in [("m2", m2_chi(ctx)), ("jac", jacobian_class(ctx))] + [
                (k, sym_power_class(ctx, k)) for k in range(0, 2 * g + 1)]:
            _assert_same_realization(cls)
            got = [realize(cls, target) for target in _targets(g)]
            assert first.setdefault((g, name), got) == got


def test_hodge_slots_hold_the_whole_realization():
    # coefficients near 2^70: a slot as wide as the largest class
    # coefficient, or a fixed 64 bits, would overflow in the products and
    # sums of the images
    for g in (2, 3):
        ctx, big = GenusContext.adic(g, hi=6), 2 ** 70 - 1
        unit, sq, l2 = (0,) * g, (2,) + (0,) * (g - 1), (0, 1) + (0,) * (g - 2)
        cls = MotiveSeries(ctx, {0: CoeffPoly(g, {sq: big, l2: -big, unit: 3}),
                                 1: CoeffPoly(g, {sq: big - 2, unit: -big}),
                                 3: CoeffPoly(g, {l2: big})})
        got = realize(cls, HODGE)
        assert got == _realize_reference(cls, HODGE)
        assert max(map(abs, got.terms.values())) > 2 ** 72


def test_hodge_zero_class_and_refusals():
    ctx = GenusContext.adic(2)
    assert type(realize(MotiveSeries(ctx), HODGE)) is int
    assert realize(MotiveSeries(ctx), HODGE) == 0
    # l1^2 - 4 l2 + 8 L is nonzero, but its image (2u+2v)^2 - 4(u^2+4uv+v^2)
    # + 8uv is the zero polynomial
    cancels = MotiveSeries(ctx, {0: CoeffPoly(2, {(2, 0): 1, (0, 1): -4}), 1: 8})
    got = realize(cancels, HODGE)
    assert type(got) is IntPoly2 and got.terms == {}
    assert got == _realize_reference(cancels, HODGE)
    dctx = GenusContext.dimensional(2)
    with pytest.raises(ValueError, match=r"^realization needs nonnegative exponents, got L\^-1$"):
        realize(MotiveSeries(dctx, {-1: CoeffPoly.one(2), 0: CoeffPoly.one(2)}), HODGE)


def test_poincare_and_count_zero_class_and_cancellation():
    ctx = GenusContext.adic(2)
    data = genus2_fixture_counts()
    for target in (POINCARE, data):
        assert type(realize(MotiveSeries(ctx), target)) is int
        assert realize(MotiveSeries(ctx), target) == 0
    # l1^2 - 16 L is nonzero, but its image (4t)^2 - 16 t^2 is zero
    got = realize(MotiveSeries(ctx, {0: CoeffPoly(2, {(2, 0): 1}), 1: -16}), POINCARE)
    assert type(got) is IntPoly and got.terms == {}
    # and the count of l1 - N + 3 l2 - l2 L, N the count of l1, is zero at q = 3
    cls = MotiveSeries(ctx, {0: CoeffPoly(2, {(1, 0): 1, (0, 1): 3,
                                              (0, 0): -data.lambda_count(1)}),
                             1: CoeffPoly(2, {(0, 1): -1})})
    assert realize(cls, data) == 0
    assert realize(cls, data) == _realize_reference(cls, data)


_near_2_70 = st.integers(-4, 4).map(lambda c: 2 ** 70 + c if c % 2 else -2 ** 70 - c)


@st.composite
def _polynomial_classes(draw):
    # adic windows from L^0, below it and above it, dimensional windows
    # from L^0 or below it, and coefficients small or near 2^70
    g, lo = draw(st.integers(2, 4)), draw(st.sampled_from([0, -3, 2]))
    if draw(st.booleans()):
        ctx = GenusContext.adic(g, hi=12, lo=lo)
    else:
        ctx = GenusContext.dimensional(g, lo=min(lo, 0), hi=12)
    coeff = draw(st.sampled_from([st.integers(-3, 3), _near_2_70]))
    mono = st.tuples(*[st.integers(0, 2)] * g)
    coeffs = {e: CoeffPoly(g, draw(st.dictionaries(mono, coeff, max_size=4)))
              for e in draw(st.lists(st.integers(max(lo, 0), 12), max_size=5))}
    return MotiveSeries(ctx, coeffs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_polynomial_classes())
def test_realize_matches_reference_on_random_classes(cls):
    _assert_same_realization(cls)


def _at2(p, u, v):
    return sum(c * u ** i * v ** j for (i, j), c in p.terms.items())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(0, 4), st.integers(-2, 2), max_size=4),
       st.dictionaries(st.integers(0, 4), st.integers(-2, 2), max_size=4),
       st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       st.integers(-2, 2), max_size=4),
       st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       st.integers(-2, 2), max_size=4),
       st.integers(-2, 2), st.integers(-3, 3), st.integers(-3, 3))
def test_intpoly_ring_results_drop_zeros(ta, tb, tc, td, n, u, v):
    a, b, c, d = IntPoly(ta), IntPoly(tb), IntPoly2(tc), IntPoly2(td)
    for got, want in ((a + b, a(u) + b(u)), (a - b, a(u) - b(u)),
                      (a * b, a(u) * b(u)), (-a, -a(u)), (a * n, a(u) * n),
                      (n - a, n - a(u)), (a + (-a), 0), (a ** 2, a(u) ** 2)):
        assert 0 not in got.terms.values() and got(u) == want
    for got, want in ((c + d, _at2(c, u, v) + _at2(d, u, v)),
                      (c - d, _at2(c, u, v) - _at2(d, u, v)),
                      (c * d, _at2(c, u, v) * _at2(d, u, v)),
                      (-c, -_at2(c, u, v)), (n * c, n * _at2(c, u, v)),
                      (n - c, n - _at2(c, u, v)), (c + (-c), 0),
                      (c ** 2, _at2(c, u, v) ** 2)):
        assert 0 not in got.terms.values() and _at2(got, u, v) == want


@pytest.mark.parametrize("lo", [0, 2])
def test_realize_refuses_a_truncated_dimensional_class(lo):
    # valid only from L^3 (floor 0) or L^5 (floor 2), the class does not know
    # its coefficients on [0, 3]; at face value they realize to x^6 and 0
    cls = m2_var(GenusContext.dimensional(2, lo=lo))
    assert cls.valid_lo > 0
    for target in (POINCARE, HODGE, _fixture()):
        with pytest.raises(ValueError, match="valid only from L\\^%d" % cls.valid_lo):
            realize(cls, target)
    # from L^0 up the same class realizes, as the adic one does
    full = m2_var(GenusContext.dimensional(2, lo=-3))
    assert full.valid_lo <= 0
    assert realize(full, POINCARE) == realize(m2_chi(GenusContext.adic(2)), POINCARE)


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="realize has no degree bound for an adic class: it "
                          "takes one cut at the window ceiling at face value")
def test_realize_refuses_an_adic_class_cut_below_its_degree():
    # [J] at g = 3 reaches L^3, past the ceiling 2 of the window; today the
    # realization drops the x^6 term, 1 + 6x + 15x^2 + 20x^3 + 15x^4 + 6x^5
    cls = jacobian_class(GenusContext.adic(3, hi=2))
    with pytest.raises(ValueError):
        realize(cls, POINCARE)
