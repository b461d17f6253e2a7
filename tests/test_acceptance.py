"""End-to-end acceptance gate.

One test per headline guarantee.  Each prints a single PASS/FAIL line
(visible with pytest -s or -rP) and then asserts, so the log doubles as a
scorecard.  Every comparison is exact; timing budgets are wall-clock.
"""

from time import perf_counter

from hypothesis import given, settings
import hypothesis.strategies as st

from curvemotives import checks, moduli
from curvemotives.curves import (
    check_functional_equation,
    check_symmetric_power_decomposition,
    check_zeta_rationality,
)
from curvemotives.polys import IntPoly
from curvemotives.realize import (
    HODGE,
    POINCARE,
    count_cross_check,
    genus2_fixture_counts,
    newstead_oracle,
    realize,
)
from curvemotives.series import (
    GenusContext,
    constant,
    lambda_class,
    lefschetz_power,
    one,
    zero,
)


def _report(num, name, ok, elapsed, budget=None):
    stamp = "%.2fs" % elapsed if budget is None else "%.2fs / %ds" % (elapsed, budget)
    within = budget is None or elapsed < budget
    verdict = "PASS" if ok and within else "FAIL"
    print("ACCEPTANCE %2d %-24s %s (%s)" % (num, name, verdict, stamp))
    assert ok, name
    assert within, "%s blew its %ds budget: %.2fs" % (name, budget, elapsed)


def test_acceptance_1_rank2():
    t0 = perf_counter()
    ok = True
    for g in range(2, 7):
        ctx = GenusContext.adic(g)
        m2 = moduli.m2_chi(ctx)
        ok = ok and m2.equals(moduli.rank2_decomposition(ctx)).equal
        ok = ok and m2.vanishes_above(3 * g - 3) is None
    _report(1, "rank2-decomposition", ok, perf_counter() - t0, 5)


def test_acceptance_2_rank3():
    t0 = perf_counter()
    ok = True
    for g in range(2, 6):
        ctx = GenusContext.adic(g)
        m3 = moduli.m3_chi(ctx)
        ok = ok and m3.equals(moduli.rank3_decomposition(ctx)).equal
        ok = ok and m3.vanishes_above(8 * g - 8) is None
    _report(2, "rank3-decomposition", ok, perf_counter() - t0, 60)


def test_acceptance_3_cancellation():
    t0 = perf_counter()
    ok = True
    for g in range(2, 6):
        ctx = GenusContext.adic(g)
        ok = ok and all(cmp.equal for _, cmp in moduli.j_squared_cancellation(ctx))
        ok = ok and moduli.j_linear_closed_form(ctx).equal
    for g in range(2, 11):
        ok = ok and all(not delta for _, delta in moduli.x_identity_all(g))
    _report(3, "jacobian-cancellation", ok, perf_counter() - t0, 5)


def test_acceptance_4_zeta():
    t0 = perf_counter()
    ok = True
    for g in range(2, 9):
        ctx = GenusContext.adic(g)
        ok = ok and all(cmp.equal for _, cmp in check_zeta_rationality(ctx))
        ok = ok and all(cmp.equal for _, cmp in check_functional_equation(ctx))
    _report(4, "zeta-function", ok, perf_counter() - t0, 5)


def test_acceptance_5_symmetric_powers():
    t0 = perf_counter()
    ok = True
    for g in range(2, 9):
        ctx = GenusContext.adic(g)
        for k in range(g, 3 * g + 1):
            ok = ok and check_symmetric_power_decomposition(ctx, k).equal
    _report(5, "symmetric-powers", ok, perf_counter() - t0, 5)


def test_acceptance_6_dec_zeta():
    t0 = perf_counter()
    ok = True
    for g in range(2, 7):
        ok = ok and checks.run_check("deczeta-chow", g).verdict == "pass"
        ok = ok and checks.run_check("deczeta-var", g).verdict == "pass"
    _report(6, "zeta-evaluations", ok, perf_counter() - t0, 10)


def test_acceptance_7_varying_determinant():
    t0 = perf_counter()
    ok = True
    for g in range(2, 5):
        r2 = checks.run_check("var-rank2", g)
        ok = ok and r2.verdict == "flagged"
        ok = ok and any(n.startswith("cubic-prefactor") for n in r2.notes)
        ok = ok and checks.run_check("var-rank3", g).verdict == "pass"
        ok = ok and checks.run_check("unstable-rank2-hn-sum", g).verdict == "pass"
    _report(7, "varying-determinant", ok, perf_counter() - t0, 30)


def test_acceptance_8_inversion():
    t0 = perf_counter()
    ok = True
    for g in range(2, 5):
        ctx = GenusContext.adic(g)
        for n in (2, 3):
            spec = moduli.InversionSpec(n, 1)
            for comp in moduli.compositions(n):
                # must be an exact integer for every composition
                moduli.inversion_exponent(g, spec, comp)
            rows = moduli.inversion_consistency(ctx, n)
            matched = [label for label, cmp in rows if cmp.equal]
            ok = ok and matched == ["jacobian-times-fixed-determinant"]
        ok = ok and checks.run_check("inversion-consistency", g).verdict == "flagged"
    _report(8, "inversion-formula", ok, perf_counter() - t0, 30)


def test_acceptance_9_realizations():
    t0 = perf_counter()
    ok = True
    for g in range(2, 7):
        ctx = GenusContext.adic(g)
        pm2 = realize(moduli.rank2_decomposition(ctx), POINCARE)
        ok = ok and pm2 == newstead_oracle(g)
    ok = ok and newstead_oracle(2) == IntPoly({0: 1, 2: 1, 3: 4, 4: 1, 6: 1})
    for g in (2, 3, 4):
        ctx = GenusContext.adic(g)
        for cls in (moduli.rank2_decomposition(ctx),) + (
                (moduli.rank3_decomposition(ctx),) if g <= 3 else ()):
            hodge = realize(cls, HODGE)
            ok = ok and hodge.diagonal() == realize(cls, POINCARE)
    data = genus2_fixture_counts()
    rows = count_cross_check(GenusContext.adic(2), data, k_max=6)
    ok = ok and len(rows) == 7 and all(got == want for _, got, want in rows)
    _report(9, "realizations", ok, perf_counter() - t0, 10)


# -- property suites (criterion 10) ----------------------------------------
#
# Five randomized invariants, >= 100 cases each.  They are plain decorated
# functions (not collected individually) driven from the one test at the
# bottom so the criterion still reports a single line.

_PROP = settings(max_examples=120, deadline=None, derandomize=True)


def _build(ctx, terms):
    out = zero(ctx)
    for a, e, c in terms:
        out = out + constant(ctx, c) * lambda_class(ctx, a).shift(e)
    return out


def _series_terms(g, max_shift):
    term = st.tuples(st.integers(0, 2 * g), st.integers(0, max_shift),
                     st.integers(-3, 3))
    return st.lists(term, max_size=3)


@_PROP
@given(_series_terms(2, 4), _series_terms(2, 4), _series_terms(2, 4))
def _prop_ring_axioms(ta, tb, tc):
    ctx = GenusContext.adic(2, hi=12)
    x, y, z = _build(ctx, ta), _build(ctx, tb), _build(ctx, tc)
    assert ((x + y) + z).equals(x + (y + z)).equal
    assert (x * y).equals(y * x).equal
    assert ((x * y) * z).equals(x * (y * z)).equal
    assert (x * (y + z)).equals(x * y + x * z).equal
    assert (x + (-x)).equals(zero(ctx)).equal


@_PROP
@given(st.integers(2, 4), st.data())
def _prop_duality_closure(g, data):
    ctx = GenusContext.adic(g)
    d = data.draw(st.integers(0, g))
    assert lambda_class(ctx, g + d).equals(lambda_class(ctx, g - d).shift(d)).equal
    x = _build(ctx, data.draw(_series_terms(g, 3)))
    y = _build(ctx, data.draw(_series_terms(g, 3)))
    (x * y).validate()


@_PROP
@given(st.integers(1, 6), st.booleans())
def _prop_unit_inverse(i, dim):
    if dim:
        ctx = GenusContext.dimensional(2)
        unit = lefschetz_power(ctx, i) - one(ctx)
    else:
        ctx = GenusContext.adic(2)
        unit = one(ctx) - lefschetz_power(ctx, i)
    assert (unit * one(ctx).div_unit(i)).equals(one(ctx)).equal


@_PROP
@given(_series_terms(2, 4), _series_terms(2, 4), st.integers(2, 10))
def _prop_window_soundness(ta, tb, hi):
    ctx = GenusContext.adic(2, hi=12)
    x, y = _build(ctx, ta), _build(ctx, tb)
    full = x * y
    narrow = x.restricted(hi=hi) * y.restricted(hi=hi)
    lo, top = narrow.valid_lo, narrow.valid_hi
    assert narrow.coefficient_table(lo, top) == full.coefficient_table(lo, top)


@_PROP
@given(_series_terms(2, 4), _series_terms(2, 4))
def _prop_realization_homomorphism(ta, tb):
    ctx = GenusContext.adic(2, hi=12)
    x, y = _build(ctx, ta), _build(ctx, tb)
    targets = (POINCARE, HODGE, genus2_fixture_counts())
    for tgt in targets:
        assert realize(x * y, tgt) == realize(x, tgt) * realize(y, tgt)
        assert realize(x + y, tgt) == realize(x, tgt) + realize(y, tgt)


def test_acceptance_10_property_suites():
    t0 = perf_counter()
    _prop_ring_axioms()
    _prop_duality_closure()
    _prop_unit_inverse()
    _prop_window_soundness()
    _prop_realization_homomorphism()
    _report(10, "property-suites", True, perf_counter() - t0)
