"""Numeric realizations, counting data, and the independent oracles."""

import operator

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from curvemotives.curves import jacobian_class, sym_power_class
from curvemotives.moduli import m2_chi, m3_chi, rank2_decomposition
from curvemotives.realize import _fixed_lambda_images, _lambda_images, _lefschetz_image
from curvemotives.polys import IntPoly, IntPoly2
from curvemotives.realize import (
    HODGE,
    POINCARE,
    CountingData,
    count_cross_check,
    count_target,
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
    target = count_target(_fixture())
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
        realize(s, count_target(_fixture()))


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
    (lambda: realize(rank2_decomposition(GenusContext.adic(2)), count_target(_fixture())),
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
        realize(jacobian_class(ctx), count_target(_fixture()))


# -- the monomial-by-monomial realization as the reference -----------------


def _realize_reference(series, target):
    """Realization summed monomial by monomial, each term multiplied out
    factor by factor and times the image of L^e."""
    lam = _lambda_images(target, series.g)
    ell = _lefschetz_image(target)
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
        out.append(count_target(genus2_fixture_counts()))
    return out


def _assert_same_realization(cls):
    for target in _targets(cls.g):
        got, want = realize(cls, target), _realize_reference(cls, target)
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("g", [2, 3, 4])
def test_realize_matches_reference_on_named_classes(g):
    ctx = GenusContext.adic(g)
    for cls in [m2_chi(ctx), m3_chi(ctx), jacobian_class(ctx)] + [
            sym_power_class(ctx, k) for k in range(0, 2 * g + 1)]:
        _assert_same_realization(cls)


def test_shared_lambda_images_survive_repeated_calls():
    # realize shares the POINCARE/HODGE images of lambda^0..lambda^g between
    # calls; a product or sum that accumulated into one of them in place
    # would change every later result
    fresh = {(t.kind, g): [dict(p.terms) for p in _lambda_images(t, g)]
              for t in (POINCARE, HODGE) for g in (2, 3, 4)}
    for g in (3, 2, 4, 2, 3, 4):
        ctx = GenusContext.adic(g)
        for cls in [m2_chi(ctx), jacobian_class(ctx)] + [
                sym_power_class(ctx, k) for k in range(0, 2 * g + 1)]:
            _assert_same_realization(cls)
    for (kind, g), terms in fresh.items():
        assert [p.terms for p in _fixed_lambda_images(kind, g)] == terms


@st.composite
def _polynomial_classes(draw):
    g = draw(st.integers(2, 4))
    ctx = GenusContext.adic(g, hi=12)
    mono = st.tuples(*[st.integers(0, 2)] * g)
    coeffs = {e: CoeffPoly(g, draw(st.dictionaries(mono, st.integers(-3, 3),
                                                    max_size=4)))
              for e in draw(st.lists(st.integers(0, 12), max_size=5))}
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
