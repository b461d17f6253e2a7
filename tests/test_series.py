"""Window, validity, and ring behavior of the truncated series layer."""

import json
import operator

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from curvemotives import curves, moduli
from curvemotives.polys import IntPoly, IntPoly2
from curvemotives.series import (
    CoeffPoly,
    Comparison,
    GenusContext,
    Mode,
    MotiveSeries,
    TruncationWindow,
    _run_class,
    equals,
    lambda_class,
    lefschetz_power,
    one,
    zero,
)


def _geom_unit_inverse(ctx, i):
    """The geometric-series inverse of 1 - L^i (adic) or L^i - 1
    (dimensional), written out term by term: the oracle of ``div_unit``."""
    if i < 1:
        raise ValueError("unit exponent must be positive, got i=%d" % i)
    w = ctx.window
    if ctx.mode is Mode.ADIC:
        coeffs = {e: CoeffPoly.one(ctx.g) for e in range(0, w.hi + 1, i)}
    else:
        coeffs = {e: CoeffPoly.one(ctx.g) for e in range(-i, w.lo - 1, -i)}
    return MotiveSeries(ctx, coeffs)


def test_default_windows():
    actx = GenusContext.adic(2)
    assert (actx.window.lo, actx.window.hi) == (0, 30)
    dctx = GenusContext.dimensional(2)
    assert (dctx.window.lo, dctx.window.hi) == (-30, 11)
    assert GenusContext.adic(5).window.hi == 60
    assert GenusContext.dimensional(5).window.hi == 41  # 9(g-1)+g


def test_genus_bound():
    with pytest.raises(ValueError):
        GenusContext.adic(1)


def test_coeffpoly_arithmetic_and_order():
    g = 2
    l1 = CoeffPoly.single(g, (1, 0))
    l2 = CoeffPoly.single(g, (0, 1))
    p = (CoeffPoly.one(g) + l1) * (CoeffPoly.one(g) + l1)
    assert p == CoeffPoly.one(g) + 2 * l1 + CoeffPoly.single(g, (2, 0))
    # display order: low total degree first, l1 before l2
    assert str(CoeffPoly.one(g) + l2 + l1) == "1 + l1 + l2"
    assert CoeffPoly.constant(g, 3) == 3
    assert not CoeffPoly.zero(g)


def test_duality_rewrite_at_construction():
    # lambda^{g+d} = lambda^{g-d} * L^d, eagerly rewritten
    ctx = GenusContext.adic(2)
    lam3 = lambda_class(ctx, 3)
    assert lam3.coefficient(1) == CoeffPoly.single(2, (1, 0))
    assert lam3.coefficient(0) == 0
    lam4 = lambda_class(ctx, 4)
    assert lam4.coefficient(2) == 1
    for g in (2, 3, 4):
        gctx = GenusContext.adic(g)
        for d in range(0, g + 1):
            lhs = lambda_class(gctx, g + d)
            rhs = lambda_class(gctx, g - d).shift(d)
            assert bool(lhs.equals(rhs))


def test_lambda_class_index_bounds():
    ctx = GenusContext.adic(2)
    assert lambda_class(ctx, 4).coefficient(2) == 1
    with pytest.raises(ValueError):
        lambda_class(ctx, 5)
    with pytest.raises(ValueError):
        lambda_class(ctx, -1)


def test_adic_floor_is_hard():
    ctx = GenusContext.adic(2)
    with pytest.raises(ValueError):
        MotiveSeries(ctx, {-1: CoeffPoly.one(2)})


def test_adic_ceiling_truncates_silently():
    ctx = GenusContext.adic(2, hi=5)
    s = MotiveSeries(ctx, {3: CoeffPoly.one(2), 6: CoeffPoly.one(2)})
    assert list(s.coeffs) == [3]
    assert s.valid_hi == 5


def test_dimensional_mirror_behavior():
    ctx = GenusContext.dimensional(2)
    with pytest.raises(ValueError):
        MotiveSeries(ctx, {12: CoeffPoly.one(2)})  # above the hard ceiling
    s = MotiveSeries(ctx, {-31: CoeffPoly.one(2), 0: CoeffPoly.one(2)})
    assert list(s.coeffs) == [0]  # below the floor is truncation, not error


def test_ring_identities():
    ctx = GenusContext.adic(3)
    ell = lefschetz_power(ctx, 1)
    u = one(ctx)
    assert bool(((u + ell) * (u - ell)).equals(u - lefschetz_power(ctx, 2)))
    a = lambda_class(ctx, 1) + ell
    b = lambda_class(ctx, 2).shift(1)
    c = lefschetz_power(ctx, 2) - one(ctx)
    assert bool((a * (b + c)).equals(a * b + a * c))
    assert bool((a * b).equals(b * a))
    assert bool((a - a).equals(zero(ctx)))


def _no_negation(self):
    raise AssertionError("subtraction built a negated copy")


def test_subtraction_builds_no_negated_copy(monkeypatch):
    ctx = GenusContext.adic(2, hi=8)
    x = lambda_class(ctx, 1) * lambda_class(ctx, 3) + lefschetz_power(ctx, 2)
    y = (lambda_class(ctx, 1) + lambda_class(ctx, 3)).shift(1) + 3
    a, b = x.coefficient(1), y.coefficient(1)
    p, q = IntPoly({0: 1, 2: -3}), IntPoly({2: -3, 5: 4})
    r, s = IntPoly2({(0, 0): 2, (1, 1): 1}), IntPoly2({(1, 1): 1, (0, 2): -5})
    pairs = [(x, y), (y, x), (x, x), (x, 2), (a, b), (a, a), (a, 5),
             (p, q), (p, p), (p, 1), (r, s), (r, 7)]
    want = [u + (-v) for u, v in pairs] + [(-u) + 3 for u in (x, a, p)]
    witness = x.equals(y)
    for cls in (CoeffPoly, MotiveSeries, IntPoly, IntPoly2):
        monkeypatch.setattr(cls, "__neg__", _no_negation)
    assert [u - v for u, v in pairs] + [3 - u for u in (x, a, p)] == want
    assert x.equals(y) == witness and not witness


def test_mul_narrows_validity_from_partial_factor():
    ctx = GenusContext.adic(2)
    inv = _geom_unit_inverse(ctx, 1)
    # a series only known up to L^5, built with explicit validity
    short = MotiveSeries(ctx, {e: CoeffPoly.one(2) for e in range(0, 6)},
                         valid_lo=0, valid_hi=5)
    prod = short * inv
    assert (prod.valid_lo, prod.valid_hi) == (0, 5)
    # a factor with support floor 3 pushes the product's knowledge out again
    assert (short * inv.shift(3)).valid_hi == 8


def test_shift_and_floor_guard():
    ctx = GenusContext.adic(2)
    u = one(ctx)
    assert u.shift(4).coefficient(4) == 1
    assert u.shift(4).coefficient(0) == 0
    with pytest.raises(ValueError):
        u.shift(-1)
    d = GenusContext.dimensional(2)
    with pytest.raises(ValueError):
        one(d).shift(12)


def test_equals_reports_window_and_witness():
    ctx = GenusContext.adic(2)
    inv = _geom_unit_inverse(ctx, 1)
    other = inv + lefschetz_power(ctx, 7)
    cmp = inv.equals(other)
    assert not cmp
    assert cmp.witness_exponent == 7
    assert cmp.witness_delta == CoeffPoly.constant(2, -1)
    cmp2 = inv.restricted(0, 5).equals(other)
    assert cmp2 and (cmp2.lo, cmp2.hi) == (0, 5)
    # windows with different exact ends compare on their overlap
    for near, far in ((GenusContext.adic(2, hi=12), GenusContext.adic(2, hi=12, lo=-3)),
                      (GenusContext.dimensional(2, lo=-12, hi=3),
                       GenusContext.dimensional(2, lo=-12, hi=6))):
        x = MotiveSeries(near, {0: 1, 2: 5})
        cmp3 = MotiveSeries(far, {0: 1, 2: 5, 3: -2}).equals(x)
        assert (cmp3.equal, cmp3.witness_exponent, cmp3.witness_delta) == (False, 3, -2)
        assert (cmp3.lo, cmp3.hi) == (x.valid_lo, x.valid_hi)
        assert MotiveSeries(far, {0: 1, 2: 5}).equals(x)


def test_equals_empty_overlap_is_an_error():
    ctx = GenusContext.adic(2)
    inv = _geom_unit_inverse(ctx, 1)
    with pytest.raises(ValueError):
        equals(inv.restricted(0, 3), inv.restricted(5, 9))


def test_mode_mixing_rejected():
    a = one(GenusContext.adic(2))
    d = one(GenusContext.dimensional(2))
    with pytest.raises(ValueError):
        a + d


def test_geom_unit_inverse_is_inverse():
    actx = GenusContext.adic(2)
    for i in (1, 2, 3):
        inv = _geom_unit_inverse(actx, i)
        unit = one(actx) - lefschetz_power(actx, i)
        assert bool((unit * inv).equals(one(actx)))
    dctx = GenusContext.dimensional(2)
    for i in (1, 2, 3):
        inv = _geom_unit_inverse(dctx, i)
        unit = lefschetz_power(dctx, i) - one(dctx)
        assert bool((unit * inv).equals(one(dctx)))


def _outcome(fn):
    """(result, None) or (None, message) of a call that may raise ValueError."""
    try:
        return fn(), None
    except ValueError as exc:
        return None, str(exc)


def _free_end(mode, valid_lo, valid_hi):
    """The validity bound of the free end only: the exact end of a series
    is the window's."""
    return {"valid_hi": valid_hi} if mode is Mode.ADIC else {"valid_lo": valid_lo}


def _div_unit_outcomes(x, i):
    want = _outcome(lambda: x * _geom_unit_inverse(x.ctx, i))
    got = _outcome(lambda: x.div_unit(i))
    return got, want


@st.composite
def _division_cases(draw):
    """A series with a partial validity range on a window around 0, and a
    unit exponent."""
    mode = draw(st.sampled_from([Mode.ADIC, Mode.DIMENSIONAL]))
    lo = draw(st.integers(-10, 4))
    hi = lo + draw(st.integers(0, 14))
    ctx = GenusContext(2, TruncationWindow(lo, hi, mode))
    coeffs = {}
    for e in draw(st.lists(st.integers(lo, hi), max_size=6)):
        mono = (draw(st.integers(0, 2)), draw(st.integers(0, 1)))
        coeffs[e] = CoeffPoly.single(2, mono, draw(st.integers(-3, 3)))
    valid_lo = draw(st.integers(lo, hi))
    valid_hi = draw(st.integers(valid_lo, hi))
    return (MotiveSeries(ctx, coeffs, **_free_end(mode, valid_lo, valid_hi)),
            draw(st.integers(1, 6)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_division_cases())
# (1 - L^2) / (1 - L^2) and (1 - L^-2) / (L^2 - 1): the running sums reach 0
@example((MotiveSeries(GenusContext.adic(2, hi=10), {0: 1, 2: -1}), 2))
@example((MotiveSeries(GenusContext.dimensional(2, lo=-10, hi=0), {0: 1, -2: -1}), 2))
def test_div_unit_matches_product_with_inverse(case):
    # same coefficients and validity range (MotiveSeries ==), or same error
    got, want = _div_unit_outcomes(*case)
    assert got == want


@pytest.mark.parametrize("mode,lo,hi,raises", [
    (Mode.ADIC, 0, 20, False),
    (Mode.ADIC, -5, 12, False),
    (Mode.ADIC, 2, 12, True),            # floor above 0: no inverse fits
    (Mode.DIMENSIONAL, -20, 3, False),
    (Mode.DIMENSIONAL, -20, -7, True),   # ceiling below -i for every i <= 6
    (Mode.DIMENSIONAL, -3, 8, False),    # floor above -i for large i
])
def test_div_unit_edge_windows(mode, lo, hi, raises):
    ctx = GenusContext(2, TruncationWindow(lo, hi, mode))
    mid = (lo + hi) // 2
    x = MotiveSeries(ctx, {lo if mode is Mode.ADIC else hi: CoeffPoly.one(2),
                           mid: CoeffPoly.single(2, (1, 0), 2)},
                     **_free_end(mode, lo + 1, hi - 1))  # each mode pins its hard end
    for i in range(0, 7):
        got, want = _div_unit_outcomes(x, i)
        assert got == want
        assert (got[0] is None) == (raises or i == 0)


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("mode", [Mode.ADIC, Mode.DIMENSIONAL])
def test_div_unit_of_one_is_the_geometric_series(g, mode):
    # the explicit inverse the docs name: one(ctx).div_unit(i) on every
    # window that holds L^0, the short ones included, gives the JSON or the
    # error text of the series written out term by term
    for lo in range(-12, 1):
        for hi in range(0, 14):
            ctx = GenusContext(g, TruncationWindow(lo, hi, mode))
            for i in range(0, 6):
                got = _outcome(lambda: one(ctx).div_unit(i).to_json())
                assert got == _outcome(lambda: _geom_unit_inverse(ctx, i).to_json())


def test_coefficient_respects_validity():
    ctx = GenusContext.adic(2)
    short = one(ctx).restricted(0, 5)
    assert short.coefficient(5) == 0
    with pytest.raises(ValueError):
        short.coefficient(6)
    table = short.coefficient_table(0, 2)
    assert table == {0: CoeffPoly.one(2)}


def test_vanishes_above():
    ctx = GenusContext.adic(2)
    s = one(ctx) + lefschetz_power(ctx, 4)
    assert s.vanishes_above(4) is None
    assert s.vanishes_above(3) == 4


def _vanishing_classes(ctx):
    """[J], [C_3], a zeta evaluation, the rank-2 moduli class, the rank-2
    stack, and -[J]/(1-L), whose packed digits are negative, in ctx."""
    adic = ctx.mode is Mode.ADIC
    jac = curves.jacobian_class(ctx)
    return [jac, curves.sym_power_class(ctx, 3),
            curves.zeta_at_lefschetz(ctx, 1 if adic else -2),
            (moduli.m2_chi if adic else moduli.m2_var)(ctx),
            (moduli.bun_chi if adic else moduli.behrend_dhillon_bun)(ctx, 2),
            -jac.div_unit(1)]


@pytest.mark.parametrize("g", [2, 3, 4])
def test_vanishes_above_matches_the_decoded_coefficients(g):
    # both modes, default and narrowed windows, every bound from below the
    # floor to above the ceiling
    contexts = [GenusContext.adic(g), GenusContext.adic(g, hi=3 * g - 2),
                GenusContext.adic(g, hi=3 * g, lo=-3), GenusContext.dimensional(g),
                GenusContext.dimensional(g, lo=-(3 * g - 2)),
                GenusContext.dimensional(g, lo=-7, hi=4 * g)]
    for ctx in contexts:
        w = ctx.window
        for x in _vanishing_classes(ctx):
            for bound in range(w.lo - 3, w.hi + 3):
                want = min((e for e in x.coeffs if e > bound), default=None)
                assert x.vanishes_above(bound) == want, (w, bound)


def test_equals_refuses_what_it_cannot_compare():
    jac = curves.jacobian_class(GenusContext.adic(2))
    with pytest.raises(ValueError, match="^cannot compare series over different genus or mode$"):
        jac.equals(curves.jacobian_class(GenusContext.dimensional(2)))
    high = MotiveSeries(GenusContext.adic(2, hi=20, lo=10))  # valid on [10, 20]
    with pytest.raises(ValueError, match="^no shared validity range to compare on$"):
        one(GenusContext.adic(2, hi=5)).equals(high)


def test_validate_and_json_roundtrip_shape():
    ctx = GenusContext.adic(2)
    s = (one(ctx) + lambda_class(ctx, 1)).shift(2)
    s.validate()
    obj = s.to_json_obj()
    assert obj["mode"] == "adic"
    assert obj["genus"] == 2
    assert obj["valid"] == [0, 30]
    assert obj["terms"] == [[2, [[[0, 0], "1"], [[1, 0], "1"]]]]


def _to_json_reference(x):
    """MotiveSeries.to_json as it was first written: a CoeffPoly per
    exponent, its terms sorted, then json.dumps of the nested lists."""
    w = x.ctx.window
    return json.dumps({
        "genus": x.g,
        "mode": x.mode.value,
        "window": [w.lo, w.hi],
        "valid": [x.valid_lo, x.valid_hi],
        "terms": [[e, [[list(m), str(c)] for m, c in p.items()]] for e, p in x.coeffs.items()],
    }, sort_keys=True, separators=(",", ":"))


def _assert_json_matches_reference(x):
    text = x.to_json()
    assert text == _to_json_reference(x)
    assert x.to_json_obj() == json.loads(text)


def test_to_json_matches_the_reference_on_classes():
    # zero, scaled and shifted classes in both modes, floors down to -60,
    # and the three genus-6 rank-3 and inversion classes
    for g in (2, 3):
        for ctx in (GenusContext.adic(g, hi=30), GenusContext.adic(g, hi=30, lo=-2),
                    GenusContext.adic(g, hi=5, lo=-60), GenusContext.dimensional(g)):
            _assert_json_matches_reference(zero(ctx))
            for k in range(2 * g + 1):
                c = curves.sym_power_class(ctx, k)
                _assert_json_matches_reference(c)
                _assert_json_matches_reference((c * -(7 ** 20) + 3).shift(1))
    actx, dctx = GenusContext.adic(6), GenusContext.dimensional(6)
    for c in (moduli.m3_chi(actx), moduli.m3_var(dctx),
              moduli.inversion_formula(actx, moduli.InversionSpec(3, 1))):
        _assert_json_matches_reference(c)


def test_str_is_readable():
    ctx = GenusContext.adic(2)
    s = one(ctx) + lambda_class(ctx, 1).shift(1)
    assert str(s) == "1 + l1*L"


# -- trusted results of the ring operations --------------------------------


def _at(p, point):
    """Value of a coefficient polynomial at an integer point."""
    total = 0
    for mono, c in p.terms.items():
        term = c
        for x, m in zip(point, mono):
            term *= x ** m
        total += term
    return total


def _assert_canonical(p, g):
    assert isinstance(p, CoeffPoly) and p.g == g
    for mono, c in p.terms.items():
        assert type(mono) is tuple and len(mono) == g
        assert all(type(m) is int and m >= 0 for m in mono)
        assert type(c) is int and c != 0
    assert p == CoeffPoly(g, dict(p.terms))


@st.composite
def _coeff_cases(draw):
    g = draw(st.integers(1, 4))
    mono = st.tuples(*[st.integers(0, 2)] * g)
    poly = st.dictionaries(mono, st.integers(-3, 3), max_size=5).map(
        lambda terms: CoeffPoly(g, terms))
    point = draw(st.tuples(*[st.integers(-3, 3)] * g))
    return g, draw(poly), draw(poly), draw(st.integers(-3, 3)), point


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_coeff_cases())
def test_coeffpoly_ring_results_are_canonical(case):
    g, p, q, n, point = case
    p_at, q_at = _at(p, point), _at(q, point)
    for result, value in (
        (p + q, p_at + q_at), (p - q, p_at - q_at), (p * q, p_at * q_at),
        (-p, -p_at), (p * n, p_at * n), (n * p, n * p_at),
        (p + n, p_at + n), (n - p, n - p_at), (p + (-p), 0),
    ):
        _assert_canonical(result, g)
        assert _at(result, point) == value


@st.composite
def _series_pairs(draw):
    """Two series on one window around 0 with partial validity ranges."""
    mode = draw(st.sampled_from([Mode.ADIC, Mode.DIMENSIONAL]))
    g = draw(st.integers(2, 3))
    lo = draw(st.integers(-8, 2))
    hi = lo + draw(st.integers(0, 12))
    ctx = GenusContext(g, TruncationWindow(lo, hi, mode))
    mono = st.tuples(*[st.integers(0, 2)] * g)
    out = []
    for _ in range(2):
        coeffs = {e: CoeffPoly(g, draw(st.dictionaries(mono, st.integers(-3, 3),
                                                        max_size=3)))
                  for e in draw(st.lists(st.integers(lo, hi), max_size=5))}
        valid_lo = draw(st.integers(lo, hi))
        out.append(MotiveSeries(ctx, coeffs,
                                **_free_end(mode, valid_lo, draw(st.integers(valid_lo, hi)))))
    return out[0], out[1], draw(st.integers(1, 5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_series_pairs())
def test_series_ring_results_validate(case):
    x, y, i = case
    for op in (lambda: x + y, lambda: x * y, lambda: x - y, lambda: -x,
               lambda: x * 3, lambda: x * 0, lambda: x.shift(i - 3),
               lambda: x.div_unit(i)):
        result, _ = _outcome(op)
        if result is not None:
            assert result.validate()


# -- the product against the pairwise loop it replaced ----------------------


def _mul_reference(x, y):
    """x * y summed pair by pair through CoeffPoly products and sums, built
    through the validating constructor.  The support ends come from the
    decoded coefficients: a zero series can hide support only past its
    validity range."""
    w = x.ctx.window
    floor = lambda c: min(c.coeffs, default=c.valid_hi + 1)
    ceiling = lambda c: max(c.coeffs, default=c.valid_lo - 1)
    if x.mode is Mode.ADIC:
        fx, fy = floor(x), floor(y)
        if x.coeffs and y.coeffs and fx + fy < w.lo:
            raise ValueError("product support would start below the window floor")
        vlo = w.lo
        vhi = min(w.hi, x.valid_hi + fy, y.valid_hi + fx)
    else:
        cx, cy = ceiling(x), ceiling(y)
        if x.coeffs and y.coeffs and cx + cy > w.hi:
            raise ValueError("product support would pass the window ceiling")
        vlo = max(w.lo, x.valid_lo + cy, y.valid_lo + cx)
        vhi = w.hi
    if vlo > vhi:
        raise ValueError("product has empty validity range (window too narrow)")
    acc = {}
    for e1, p1 in x.coeffs.items():
        for e2, p2 in y.coeffs.items():
            e = e1 + e2
            if e < vlo or e > vhi:
                continue
            q = p1 * p2
            if e in acc:
                acc[e] = acc[e] + q
            else:
                acc[e] = q
    return MotiveSeries(x.ctx, acc, vlo, vhi)


@st.composite
def _product_cases(draw):
    """Two series on one window around 0 with partial validity ranges.  Each
    factor has integer coefficients (n times the unit, n not only +-1),
    polynomial ones (with or without a unit term), or a mix."""
    mode = draw(st.sampled_from([Mode.ADIC, Mode.DIMENSIONAL]))
    g = draw(st.integers(2, 3))
    lo = draw(st.integers(-8, 2))
    hi = lo + draw(st.integers(0, 12))
    ctx = GenusContext(g, TruncationWindow(lo, hi, mode))
    integer = st.integers(-4, 4).map(lambda n: CoeffPoly.constant(g, n))
    poly = st.dictionaries(st.tuples(*[st.integers(0, 2)] * g), st.integers(-3, 3),
                           min_size=1, max_size=3).map(lambda t: CoeffPoly(g, t))
    kinds = {"integer": integer, "polynomial": poly, "mixed": st.one_of(integer, poly)}
    out = []
    for _ in range(2):
        coeff = kinds[draw(st.sampled_from(sorted(kinds)))]
        coeffs = {e: draw(coeff) for e in draw(st.lists(st.integers(lo, hi), max_size=6))}
        valid_lo = draw(st.integers(lo, hi))
        out.append(MotiveSeries(ctx, coeffs,
                                **_free_end(mode, valid_lo, draw(st.integers(valid_lo, hi)))))
    return out[0], out[1]


# (1 + L)(l1 - l1 L) = l1 - l1 L^2: the scaled copies cancel at L^1
_CANCELLING = (
    MotiveSeries(GenusContext.adic(2), {0: 1, 1: 1}),
    MotiveSeries(GenusContext.adic(2), {0: CoeffPoly.single(2, (1, 0)),
                                        1: CoeffPoly.single(2, (1, 0), -1)}),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_product_cases())
@example(_CANCELLING)
def test_product_matches_pairwise_reference(case):
    # same coefficients and validity range (MotiveSeries ==), or the same
    # ValueError message, in both factor orders
    x, y = case
    for a, b in ((x, y), (y, x)):
        got = _outcome(lambda: a * b)
        assert got == _outcome(lambda: _mul_reference(a, b))
        if got[0] is not None:
            assert got[0].validate()


# -- the packed kernel against the decoded CoeffPoly arithmetic -------------


def _plus_reference(x, y, n):
    """x + n*y summed exponent by exponent through CoeffPoly."""
    if x.ctx != y.ctx:
        raise ValueError("series from different contexts cannot be combined")
    lo, hi = max(x.valid_lo, y.valid_lo), min(x.valid_hi, y.valid_hi)
    if lo > hi:
        raise ValueError("sum has empty validity range")
    xc, yc, zero_ = x.coeffs, y.coeffs, CoeffPoly.zero(x.g)
    return MotiveSeries(x.ctx, {e: xc.get(e, zero_) + yc.get(e, zero_) * n
                                for e in set(xc) | set(yc) if lo <= e <= hi}, lo, hi)


def _scaled_reference(x, n):
    return MotiveSeries(x.ctx, {e: p * n for e, p in x.coeffs.items()}, x.valid_lo, x.valid_hi)


def _shift_reference(x, e):
    w, coeffs = x.ctx.window, x.coeffs
    if x.mode is Mode.ADIC:
        if coeffs and min(coeffs) + e < w.lo:
            raise ValueError("shift pushes support below the window floor")
        vlo, vhi = w.lo, min(w.hi, x.valid_hi + e)
    else:
        if coeffs and max(coeffs) + e > w.hi:
            raise ValueError("shift pushes support above the window ceiling")
        vlo, vhi = max(w.lo, x.valid_lo + e), w.hi
    if vlo > vhi:
        raise ValueError("shift leaves an empty validity range")
    return MotiveSeries(x.ctx, {k + e: p for k, p in coeffs.items() if vlo <= k + e <= vhi},
                        vlo, vhi)


def _restricted_reference(x, lo, hi):
    w = x.ctx.window
    if x.mode is Mode.ADIC and (lo != w.lo or hi > w.hi):
        raise ValueError("an adic window may only shrink from above")
    if x.mode is Mode.DIMENSIONAL and (hi != w.hi or lo < w.lo):
        raise ValueError("a dimensional window may only shrink from below")
    ctx = GenusContext(x.g, TruncationWindow(lo, hi, x.mode))
    return MotiveSeries(ctx, {e: p for e, p in x.coeffs.items() if lo <= e <= hi},
                        max(x.valid_lo, lo), min(x.valid_hi, hi))


def _equals_reference(x, y):
    lo, hi = max(x.valid_lo, y.valid_lo), min(x.valid_hi, y.valid_hi)
    if lo > hi:
        raise ValueError("no shared validity range to compare on")
    xc, yc, zero_ = x.coeffs, y.coeffs, CoeffPoly.zero(x.g)
    for e in sorted(set(xc) | set(yc)):
        if lo <= e <= hi and xc.get(e, zero_) != yc.get(e, zero_):
            return Comparison(False, lo, hi, e, xc.get(e, zero_) - yc.get(e, zero_))
    return Comparison(True, lo, hi)


_BIG = st.integers(2 ** 70, 2 ** 95 - 1)  # up to the top of a 96-bit slot
_COEFFICIENT = st.one_of(st.integers(-3, 3), _BIG, _BIG.map(operator.neg))


@st.composite
def _kernel_cases(draw):
    """Two series on one window (its exact end not always at 0) with partial
    validity ranges and small or huge coefficients.  The second one is new,
    a copy of the first, or its negation, so that sums and differences
    cancel; a copy times 1 - L^i also cancels inside the product."""
    mode = draw(st.sampled_from([Mode.ADIC, Mode.DIMENSIONAL]))
    g = draw(st.integers(2, 3))
    lo = draw(st.integers(-8, 4))
    hi = lo + draw(st.integers(0, 14))
    ctx = GenusContext(g, TruncationWindow(lo, hi, mode))
    mono = st.tuples(*[st.integers(0, 2)] * g)
    coeffs = {e: CoeffPoly(g, draw(st.dictionaries(mono, _COEFFICIENT, max_size=3)))
              for e in draw(st.lists(st.integers(lo, hi), max_size=6))}

    def validity():
        valid_lo = draw(st.integers(lo, hi))
        return valid_lo, draw(st.integers(valid_lo, hi))

    x = MotiveSeries(ctx, coeffs, **_free_end(mode, *validity()))
    kind = draw(st.sampled_from(["new", "copy", "negated"]))
    if kind == "new":
        coeffs = {e: CoeffPoly(g, draw(st.dictionaries(mono, _COEFFICIENT, max_size=3)))
                  for e in draw(st.lists(st.integers(lo, hi), max_size=6))}
    elif kind == "negated":
        coeffs = {e: -p for e, p in coeffs.items()}
    y = MotiveSeries(ctx, coeffs, **_free_end(mode, *validity()))
    return x, y, draw(st.integers(1, 5)), draw(st.integers(-4, 4)), draw(st.integers(lo, hi))


def _same(got, want):
    """Equal outcomes; a series result also passes validate()."""
    assert got == want
    if got[0] is not None:
        assert got[0].validate()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_kernel_cases())
def test_packed_kernel_matches_decoded_arithmetic(case):
    # each packed operation against its oracle on the decoded coefficients:
    # the same coefficients and validity range, or the same ValueError
    x, y, i, e, cut = case
    w = x.ctx.window
    lo, hi = (w.lo, cut) if x.mode is Mode.ADIC else (cut, w.hi)
    for a, b in ((x, y), (y, x)):
        _same(_outcome(lambda: a * b), _outcome(lambda: _mul_reference(a, b)))
        _same(_outcome(lambda: a + b), _outcome(lambda: _plus_reference(a, b, 1)))
        _same(_outcome(lambda: a - b), _outcome(lambda: _plus_reference(a, b, -1)))
        _same(_outcome(lambda: a * e), _outcome(lambda: _scaled_reference(a, e)))
        _same(_outcome(lambda: a.shift(e)), _outcome(lambda: _shift_reference(a, e)))
        _same(_outcome(lambda: a.restricted(lo, hi)),
              _outcome(lambda: _restricted_reference(a, lo, hi)))
        _same(_outcome(lambda: a.div_unit(i)),
              _outcome(lambda: _mul_reference(a, _geom_unit_inverse(a.ctx, i))))
        assert _outcome(lambda: a.equals(b)) == _outcome(lambda: _equals_reference(a, b))
        narrow = _outcome(lambda: a.restricted(lo, hi))[0]
        if narrow is not None:
            assert (_outcome(lambda: narrow.equals(b))
                    == _outcome(lambda: _equals_reference(narrow, b)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_kernel_cases())
def test_coefficient_reads_the_decoded_view(case):
    # coefficient(e) decodes one slot; it must agree with the full decoding
    # everywhere in the validity range, also on products, whose slots are
    # wider than their operands'
    x, y, *_ = case
    for s in (x, y, _outcome(lambda: x * y)[0]):
        if s is None:
            continue
        coeffs = s.coeffs
        for e in range(s.valid_lo, s.valid_hi + 1):
            got = s.coefficient(e)
            assert got == coeffs.get(e, 0)
            assert 0 not in got.terms.values()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_kernel_cases())
def test_to_json_matches_the_reference(case):
    # partial validity ranges, floors off 0 and slots of 24 to 96 bits and
    # wider: the one-pass writer gives the reference's bytes
    x, y, _, e, _ = case
    for s in (x, y, x * e, _outcome(lambda: x.shift(e))[0], _outcome(lambda: x * y)[0]):
        if s is not None:
            _assert_json_matches_reference(s)


# -- the two modes are mirror images under L -> L^-1 ------------------------


def _mirror(x):
    """The image of x under L -> L^-1: the other mode on the negated window,
    with its exponents and validity range negated."""
    w = x.ctx.window
    mode = Mode.DIMENSIONAL if x.mode is Mode.ADIC else Mode.ADIC
    ctx = GenusContext(x.g, TruncationWindow(-w.hi, -w.lo, mode))
    return MotiveSeries(ctx, {-e: p for e, p in x.coeffs.items()}, -x.valid_hi, -x.valid_lo)


@st.composite
def _adic_pairs(draw):
    """Two adic series on a window [lo, hi] with lo in [-8, 2], partial
    validity ranges and small or huge coefficients; a scale and a shift."""
    g = draw(st.integers(2, 3))
    lo = draw(st.integers(-8, 2))
    hi = lo + draw(st.integers(0, 12))
    ctx = GenusContext.adic(g, hi=hi, lo=lo)
    coeff = st.dictionaries(st.tuples(*[st.integers(0, 2)] * g), _COEFFICIENT,
                            min_size=1, max_size=3).map(lambda terms: CoeffPoly(g, terms))
    support = st.lists(st.integers(lo, hi), min_size=1, max_size=5)
    pair = [MotiveSeries(ctx, {e: draw(coeff) for e in draw(support)},
                         valid_hi=hi - draw(st.integers(0, hi - lo)))
            for _ in range(2)]
    return pair[0], pair[1], draw(st.integers(-4, 4)), draw(st.integers(-6, 6))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_adic_pairs())
def test_ring_operations_commute_with_the_mirror(case):
    # each operation on the mirrored operands gives the mirrored result,
    # or both sides raise ValueError (whose texts name each mode's end)
    x, y, n, e = case
    mx, my = _mirror(x), _mirror(y)
    assert _mirror(mx) == x
    for adic, dimensional in (
        (lambda: x + y, lambda: mx + my), (lambda: x - y, lambda: mx - my),
        (lambda: x * y, lambda: mx * my), (lambda: x * n, lambda: mx * n),
        (lambda: x.shift(e), lambda: mx.shift(-e)),
    ):
        (a, _), (b, _) = _outcome(adic), _outcome(dimensional)
        assert (a is None) == (b is None)
        if a is not None:
            assert _mirror(a) == b and b.validate()


def test_coefficients_past_a_slot():
    # (2^70 L + 1)^3 = 1 + 3*2^70 L + 3*2^140 L^2 + 2^210 L^3: every slot
    # past the first needs more than 64 bits
    for ctx in (GenusContext.adic(2, hi=6), GenusContext.dimensional(2, lo=-3, hi=6)):
        x = MotiveSeries(ctx, {1: 2 ** 70, 0: 1})
        cube = x * x * x
        assert cube == _mul_reference(_mul_reference(x, x), x)
        assert [cube.coefficient(e) for e in range(4)] == [1, 3 * 2 ** 70, 3 * 2 ** 140, 2 ** 210]
        assert (x ** 3 - cube).equals(zero(ctx))
        assert cube.validate()
        # coefficients at the top of a 96-bit slot: each result needs wider
        # slots than its operands
        top = 2 ** 95 - 1
        y = MotiveSeries(ctx, {0: top, 1: top, 2: top, 3: -top})
        assert y.div_unit(1) == _mul_reference(y, _geom_unit_inverse(ctx, 1))
        assert y + y == _plus_reference(y, y, 1) and y - (-y) == y + y
        assert y * y == _mul_reference(y, y) and y * 3 == _scaled_reference(y, 3)


# -- the two constructors against per-slot references ----------------------


_SIGNED = lambda n: st.sampled_from([n, -n])
_WIDE = st.integers(2 ** 23, 2 ** 40).flatmap(_SIGNED)  # 48-bit slots
_WIDER = st.integers(2 ** 47, 2 ** 64).flatmap(_SIGNED)  # 72-bit slots


def _past_exact_end(ctx, e):
    return ctx.window.slot(e) < 0


def _exact_end_text(ctx, e):
    w = ctx.window
    if ctx.mode is Mode.ADIC:
        return "support at L^%d below the adic window floor %d" % (e, w.lo)
    return "support at L^%d above the dimensional ceiling %d" % (e, w.hi)


@st.composite
def _construction_cases(draw):
    """A window with its floor in [-8, 2], coefficients (zero, int or
    CoeffPoly, below 2^95 in absolute value) on exponents in and around it,
    the exact-end argument at or beyond the exact end (or absent) and the
    free-end argument anywhere (or absent)."""
    mode = draw(st.sampled_from([Mode.ADIC, Mode.DIMENSIONAL]))
    g = draw(st.integers(2, 3))
    lo = draw(st.integers(-8, 2))
    hi = lo + draw(st.integers(0, 12))
    ctx = GenusContext(g, TruncationWindow(lo, hi, mode))
    size = draw(st.sampled_from([_COEFFICIENT, _WIDE, _WIDER]))
    mono = st.tuples(*[st.integers(0, 2)] * g)
    coeff = st.one_of(st.just(0), st.just(CoeffPoly.zero(g)), size,
                      st.dictionaries(mono, size, max_size=3).map(lambda t: CoeffPoly(g, t)))
    coeffs = {}
    for e in draw(st.lists(st.integers(lo - 3, hi + 3), max_size=7)):
        coeffs[e] = draw(coeff)
    exact = lo if mode is Mode.ADIC else hi
    pinned = draw(st.one_of(st.none(), st.just(exact),
                            st.integers(1, 4).map(lambda k: exact - k if mode is Mode.ADIC
                                                  else exact + k)))
    free = draw(st.one_of(st.none(), st.integers(lo - 2, hi + 2)))
    bounds = {"valid_lo": pinned, "valid_hi": free}
    if mode is Mode.DIMENSIONAL:
        bounds = {"valid_lo": free, "valid_hi": pinned}
    return ctx, coeffs, bounds


def _construction_reference(ctx, coeffs, bounds):
    """(validity range, {exponent: CoeffPoly}, bound) of a construction,
    term by term, or raises its ValueError."""
    w = ctx.window
    if ctx.mode is Mode.ADIC:
        vlo, vhi = w.lo, min(w.hi, w.hi if bounds["valid_hi"] is None else bounds["valid_hi"])
    else:
        vlo, vhi = max(w.lo, w.lo if bounds["valid_lo"] is None else bounds["valid_lo"]), w.hi
    if vlo > vhi:
        raise ValueError("series with empty validity range")
    kept, bound = {}, 0
    for e, p in coeffs.items():
        if isinstance(p, int):
            p = CoeffPoly.constant(ctx.g, p)
        if not p:
            continue
        if _past_exact_end(ctx, e):
            raise ValueError(_exact_end_text(ctx, e))
        if vlo <= e <= vhi:
            kept[e] = p
            bound = max([bound] + [abs(c) for c in p.terms.values()])
    return (vlo, vhi), {e: kept[e] for e in sorted(kept)}, bound


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_construction_cases())
def test_constructor_matches_a_per_slot_reference(case):
    # decoded coefficients and validity range, the exact-end error of the
    # first offending exponent in input order, and the bound max |c|
    ctx, coeffs, bounds = case
    got = _outcome(lambda: MotiveSeries(ctx, coeffs, **bounds))
    want = _outcome(lambda: _construction_reference(ctx, coeffs, bounds))
    assert got[1] == want[1]
    if got[0] is not None:
        s, (valid, kept, bound) = got[0], want[0]
        assert ((s.valid_lo, s.valid_hi), s.coeffs, s.bound) == (valid, kept, bound)
        assert s.validate()


@st.composite
def _run_cases(draw):
    """Runs of ones on a window with its floor in [-8, 2], from few
    monomials so that they overlap: most runs end on the exact-end side
    inside the window (and may be cut by the free end), some lie past the
    free end and some reach past the exact end."""
    mode = draw(st.sampled_from([Mode.ADIC, Mode.DIMENSIONAL]))
    g = draw(st.integers(2, 3))
    lo = draw(st.integers(-8, 2))
    hi = lo + draw(st.integers(0, 12))
    ctx = GenusContext(g, TruncationWindow(lo, hi, mode))
    w = ctx.window
    monos = draw(st.lists(st.tuples(*[st.integers(0, 2)] * g), min_size=1, max_size=3))
    runs = []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.integers(1, 9))
        where = draw(st.sampled_from(["inside"] * 6 + ["free", "exact"]))
        slot = {"inside": st.integers(0, hi - lo), "free": st.integers(hi - lo + 1, hi - lo + 4),
                "exact": st.integers(-4, -1)}[where]
        near = w.exponent(draw(slot))  # the exponent of the run nearest the exact end
        runs.append((draw(st.sampled_from(monos)),
                     near if mode is Mode.ADIC else near - length + 1, length))
    return ctx, runs


def _run_reference(ctx, runs):
    """(the sum of one construction per exponent of each run, in order,
    the largest number of runs of one monomial that reach the window)."""
    g, total, count = ctx.g, MotiveSeries(ctx), {}
    for mono, e0, length in runs:
        exponents = range(e0, e0 + length)
        for e in exponents:
            total = total + MotiveSeries(ctx, {e: CoeffPoly.single(g, mono)})
        if any(ctx.window.contains(e) for e in exponents):
            count[mono] = count.get(mono, 0) + 1
    return total, max(count.values(), default=0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_run_cases())
def test_run_class_matches_per_exponent_constructions(case):
    # the same class on the whole window, the exact-end error of the first
    # run in input order (its lowest exponent past that end), and the bound
    # the run count of the monomial with most runs
    ctx, runs = case
    got = _outcome(lambda: _run_class(ctx, [(m, e0, n, 1) for m, e0, n in runs]))
    want = _outcome(lambda: _run_reference(ctx, runs))
    assert got[1] == want[1]
    if got[0] is not None:
        s, (total, bound) = got[0], want[0]
        assert s == total and s.bound == bound
        assert (s.valid_lo, s.valid_hi) == (ctx.window.lo, ctx.window.hi)
        assert s.validate()


def test_constructor_refuses_a_bound_inward_of_the_exact_end():
    # a series is exact from the window floor (adic) or ceiling
    # (dimensional) on, so it cannot take a validity range that starts
    # above that floor or below that ceiling; a bound at or beyond that end
    # means the whole window
    with pytest.raises(ValueError, match=r"^valid_lo 3 lies above the adic window floor 0$"):
        MotiveSeries(GenusContext.adic(2, hi=10), {0: 1}, valid_lo=3)
    with pytest.raises(ValueError,
                       match=r"^valid_hi -5 lies below the dimensional window ceiling 11$"):
        MotiveSeries(GenusContext.dimensional(2), {0: 1}, valid_hi=-5)
    for ctx, bounds in ((GenusContext.adic(2, hi=10), {"valid_lo": 0}),
                        (GenusContext.adic(2, hi=10), {"valid_lo": -4}),
                        (GenusContext.dimensional(2), {"valid_hi": 11}),
                        (GenusContext.dimensional(2), {"valid_hi": 15})):
        s = MotiveSeries(ctx, {0: 1}, **bounds)
        assert (s.valid_lo, s.valid_hi) == (ctx.window.lo, ctx.window.hi)
        assert s.coefficient(0) == 1
