"""Moduli pipelines: stacks, unstable strata, decompositions, both modes."""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from curvemotives.checks import run_check
from curvemotives.curves import jacobian_class, sym_power_class, zeta_at_lefschetz
from curvemotives.moduli import (
    InversionSpec,
    behrend_dhillon_bun,
    bun_chi,
    cross_mode_agreement,
    inversion_formula,
    j_linear_closed_form,
    j_squared_cancellation,
    m2_chi,
    m2_var,
    m3_chi,
    m3_var,
    rank2_decomposition,
    rank3_decomposition,
    _template_value,
    template_blocks,
    unstable_rank2_chi,
    unstable_rank2_var_closed,
    unstable_rank2_var_sum,
    unstable_rank3_chi,
    x_identity_all,
    x_identity_delta,
)
from curvemotives.series import (CoeffPoly, Comparison, GenusContext, Mode, MotiveSeries,
                                  _digits, _value_class, lefschetz_power, one, zero)


def test_m2_genus2_table():
    m2 = m2_chi(GenusContext.adic(2))
    assert m2.coefficient(0) == 1
    assert m2.coefficient(1) == CoeffPoly.one(2) + CoeffPoly.single(2, (1, 0))
    assert m2.coefficient(2) == 1
    assert m2.coefficient(3) == 1
    assert m2.vanishes_above(3) is None


def test_m2_equals_template():
    for g in (2, 3, 4):
        ctx = GenusContext.adic(g)
        assert bool(m2_chi(ctx).equals(rank2_decomposition(ctx)))
        assert max(m2_chi(ctx).coeffs) == 3 * g - 3


def _rank2_blocks_reference(g):
    """The rank-2 blocks as they were built before the one block rule."""
    blocks = [((k,), (k, 3 * g - 3 - 2 * k)) for k in range(0, g - 1)]
    blocks.append(((g - 1,), (g - 1,)))
    return blocks


def _rank3_index_pairs_reference(g):
    pairs = []
    for s in range(0, 2 * (g - 1)):
        for k1 in range(0, s + 1):
            pairs.append((k1, s - k1))
    for k1 in range(0, g - 1):
        pairs.append((k1, 2 * (g - 1) - k1))
    pairs.append((g - 1, g - 1))
    return pairs


def _rank3_blocks_reference(g):
    """The rank-3 blocks as they were built before the one block rule."""
    blocks = []
    for k1, k2 in _rank3_index_pairs_reference(g):
        if (k1, k2) == (g - 1, g - 1):
            blocks.append(((k1, k2), (3 * (g - 1),)))
        else:
            blocks.append(((k1, k2), (k1 + 2 * k2, 8 * g - 8 - 2 * k1 - 3 * k2)))
    return blocks


@pytest.mark.parametrize("g", range(2, 41))
def test_template_blocks_equal_the_former_builders(g):
    # same blocks, same order, same multiplicities
    assert template_blocks(2, g) == _rank2_blocks_reference(g)
    assert template_blocks(3, g) == _rank3_blocks_reference(g)


def test_template_blocks_refuse_other_ranks():
    # the rule does not decompose the rank-4 class
    for r in (1, 4):
        with pytest.raises(ValueError, match="rank must be 2 or 3"):
            template_blocks(r, 2)


def test_rank2_blocks():
    assert template_blocks(2, 2) == [((0,), (0, 3)), ((1,), (1,))]
    assert template_blocks(2, 3) == [((0,), (0, 6)), ((1,), (1, 4)), ((2,), (2,))]


def test_rank3_index_pairs_g2():
    assert [k for k, _ in template_blocks(3, 2)] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)]


def test_rank3_blocks_g2():
    assert template_blocks(3, 2) == [
        ((0, 0), (0, 8)),
        ((0, 1), (2, 5)),
        ((1, 0), (1, 6)),
        ((0, 2), (4, 2)),
        ((1, 1), (3,)),
    ]


def test_rank3_block_count():
    # all pairs below the diagonal sum, the truncated boundary row, the middle
    for g in (2, 3, 4, 5, 6):
        want = (2 * g - 1) * (g - 1) + (g - 1) + 1
        assert len(template_blocks(3, g)) == want


def test_m3_equals_template():
    for g in (2, 3):
        ctx = GenusContext.adic(g)
        assert bool(m3_chi(ctx).equals(rank3_decomposition(ctx)))
        assert max(m3_chi(ctx).coeffs) == 8 * g - 8


def test_m3_g6_duplicate_exponent_block():
    # at g = 6 the block (0, 8) has both exponents equal to 16, so the
    # template must count it twice
    assert ((0, 8), (16, 16)) in template_blocks(3, 6)
    ctx = GenusContext.adic(6)
    assert bool(m3_chi(ctx).equals(rank3_decomposition(ctx)))


def test_template_class_accumulates_duplicate_exponents():
    ctx = GenusContext.adic(2)
    for build in (template_class, _exact_template):
        assert build(ctx, [((0, 0), (2, 2))]).coefficient(2) == 2


def template_class(ctx, blocks):
    """The template as series products, the oracle of the exact value: the
    sum over blocks of (product of symmetric powers) * (sum of L powers).
    Each distinct symmetric power is built once, and each first index k1
    costs one product [C_k1] P_k1, P_k1 the sum of its blocks' other factors."""
    sym = {k: sym_power_class(ctx, k) for k in {k for ks, _ in blocks for k in ks}}
    partners = {}
    for ks, exps in blocks:
        term = MotiveSeries(ctx, Counter(exps))
        for k in ks[1:]:
            term = sym[k] * term
        partners[ks[0]] = partners[ks[0]] + term if ks[0] in partners else term
    return sum((sym[k1] * partner for k1, partner in partners.items()), zero(ctx))


def _template_reference(ctx, blocks):
    """template_class block by block, as it was built before the blocks were
    grouped by their first index: the product of the block's symmetric
    powers times the sum of its L powers."""
    sym = {k: sym_power_class(ctx, k) for k in {k for ks, _ in blocks for k in ks}}
    out = zero(ctx)
    for ks, exps in blocks:
        base = sym[ks[0]]
        for k in ks[1:]:
            base = base * sym[k]
        emap = {}
        for e in exps:
            emap[e] = emap.get(e, 0) + 1
        out = out + base * MotiveSeries(ctx, emap)
    return out


def _exact_template(ctx, blocks):
    """The template over ``blocks`` as rank2/rank3_decomposition build it:
    its exact value, read into ctx."""
    return _value_class(ctx, *_template_value(ctx.g, blocks))


def _assert_template_matches_oracle(ctx, blocks, defaults):
    """The exact template on ctx raises ValueError where the oracle does.
    Otherwise it equals the oracle built on the mode's default window
    (cached per mode in ``defaults``) on its whole validity range, and is
    zero below that oracle's floor; it has the oracle's JSON in the same
    adic window, and a validity range containing the oracle's in the same
    dimensional window."""
    try:
        want = template_class(ctx, blocks)
    except ValueError:
        with pytest.raises(ValueError):
            _exact_template(ctx, blocks)
        return
    got = _exact_template(ctx, blocks)
    assert got.validate()
    if ctx.mode not in defaults:
        build = GenusContext.adic if ctx.mode is Mode.ADIC else GenusContext.dimensional
        defaults[ctx.mode] = template_class(build(ctx.g), blocks)
    ref = defaults[ctx.mode]
    assert got.coeffs == ref.coefficient_table(max(got.valid_lo, ref.valid_lo), got.valid_hi)
    if ctx.mode is Mode.ADIC:
        assert got.to_json() == want.to_json()
    else:
        assert got.valid_lo <= want.valid_lo and got.valid_hi >= want.valid_hi


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_template_class_matches_blockwise_reference_on_every_window(g):
    # every adic ceiling 0..10g+10 and every dimensional floor -(10g+10)..0
    ctxs = [GenusContext.adic(g, hi=hi) for hi in range(0, 10 * g + 11)]
    ctxs += [GenusContext.dimensional(g, lo=lo) for lo in range(-(10 * g + 10), 1)]
    for blocks in (template_blocks(2, g), template_blocks(3, g)):
        defaults = {}
        for ctx in ctxs:
            _assert_template_matches_oracle(ctx, blocks, defaults)
            assert (_outcome(lambda c: template_class(c, blocks), ctx)
                    == _outcome(lambda c: _template_reference(c, blocks), ctx)), ctx


@st.composite
def _template_cases(draw):
    g = draw(st.integers(2, 4))
    if draw(st.booleans()):
        ctx = GenusContext.adic(g, hi=draw(st.integers(0, 8 * g)))
    else:
        ctx = GenusContext.dimensional(g, lo=draw(st.integers(-(10 * g + 10), 0)))
    block = st.tuples(st.lists(st.integers(0, 2 * g), min_size=1, max_size=3).map(tuple),
                      st.lists(st.integers(0, 8 * g - 8), min_size=1, max_size=3).map(tuple))
    blocks = draw(st.lists(block, min_size=1, max_size=5))
    # duplicated blocks, and blocks with a repeated exponent
    blocks += draw(st.lists(st.sampled_from(blocks), max_size=2))
    ks, exps = draw(st.sampled_from(blocks))
    blocks.append((ks, exps + exps[:1]))
    return ctx, blocks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_template_cases())
def test_template_class_matches_blockwise_reference_on_random_blocks(case):
    ctx, blocks = case
    _assert_template_matches_oracle(ctx, blocks, {})
    assert (_outcome(lambda c: template_class(c, blocks), ctx)
            == _outcome(lambda c: _template_reference(c, blocks), ctx))


def test_template_value_has_no_rows_past_2g():
    # [C_k] for k > 2g has rows b <= 2g only; the recursion still passes
    # through the indices above 2g
    for ctx in (GenusContext.adic(2), GenusContext.dimensional(2)):
        _assert_template_matches_oracle(ctx, [((7, 1), (0, 2)), ((5,), (1,))], {})


@pytest.mark.parametrize("r", [2, 3])
def test_template_value_is_self_dual(r):
    # M(r, L) is smooth and projective of dimension N = (r^2-1)(g-1), so a
    # lambda-monomial of degree d carries at L^e what it carries at L^(N-e-d)
    for g in range(2, 31):
        n = (r * r - 1) * (g - 1)
        width, value = _template_value(g, template_blocks(r, g))
        for mono, v in value.items():
            d = sum(i * m for i, m in enumerate(mono, 1))
            terms = {e: c for e, c in enumerate(_digits(v, width, v.bit_length() // width + 1))
                     if c}
            assert max(terms) <= n, (g, mono)  # digits start at L^0
            assert all(terms.get(n - e - d) == c for e, c in terms.items()), (g, mono)


def test_bun_and_bgm():
    from curvemotives.curves import zeta_at_lefschetz

    ctx = GenusContext.adic(2)
    assert bool(bun_chi(ctx, 2).equals(zeta_at_lefschetz(ctx, 1)))
    b = one(ctx).div_unit(1)  # the classifying stack of the multiplicative group
    assert b.coefficient(0) == 1 and b.coefficient(7) == 1
    with pytest.raises(ValueError):
        bun_chi(ctx, 4)
    with pytest.raises(ValueError):
        bun_chi(GenusContext.dimensional(2), 2)


def test_bun_chi_closed_form_matches_termwise_zeta_product():
    # the closed form divides (1+L)^{h1} (1+L^2)^{h1} by the units; the
    # reference multiplies the termwise zeta sums
    ctxs = [GenusContext.adic(g) for g in (2, 3, 4)]
    ctxs.append(GenusContext.adic(3, hi=25, lo=-4))
    for ctx in ctxs:
        assert bun_chi(ctx, 3) == zeta_at_lefschetz(ctx, 1) * zeta_at_lefschetz(ctx, 2)


# sha256 of to_json() on the default windows, at genus 3 and, for m3_var,
# also at genus 2, where its validity floor depends on the factor order of the
# quadratic correction.  Recorded before the pipelines divided by units as
# running sums; any drift in a coefficient or a validity range changes them.
FROZEN_DIGESTS = {
    "m3_chi": "4156719a31b81d7c69e6eead5f8a3a83b34cba51eeef71c63df624acbfa6abbe",
    "m3_var": "853621a885ed5e9ce5d9e9b5f0310167faed16410997571bc378d517ae0cd3d7",
    "m3_var@g=2": "597c7ff9d3e776989bb8e195d350971500e3af40f5ca8a6573c6adcef88380d3",
    "inversion_formula": "7c934a9088a2c610c99671a2c4ee7a2bd6870c4f145bbb98d05bb6f97538e2de",
    "unstable_rank2_chi": "366053fbcb97c822d76052a275501e706feaeded4d2321abb8713daf5f956d77",
    "bun_chi": "1da6878cf415c612f45470d66b1208e2f95e7b32227634e8859668e94140f817",
    "unstable_rank3_chi": "07a27bb2d765871d99b05b45a2d44ee00cef3a7a846180fc901dbcd69ae11a91",
    "behrend_dhillon_bun@r=2": "a035147b61b6bd36d7af211b18ec22e70b320de96873e94821c1b113ff1dfea6",
    "behrend_dhillon_bun@r=3": "cd00634de3dd28d102f4d504e506b4ce8c471486eece898965444c9ff95d2b06",
    "unstable_rank2_var_closed": "a69052b0d0c243060be8f3c8dcbbf755922fdba8d4a528fcab91937084e4f3a4",
}


def test_frozen_digests():
    actx, dctx = GenusContext.adic(3), GenusContext.dimensional(3)
    built = {
        "m3_chi": m3_chi(actx),
        "m3_var": m3_var(dctx),
        "m3_var@g=2": m3_var(GenusContext.dimensional(2)),
        "inversion_formula": inversion_formula(actx, InversionSpec(3, 1)),
        "unstable_rank2_chi": unstable_rank2_chi(actx),
        "bun_chi": bun_chi(actx, 3),
        "unstable_rank3_chi": unstable_rank3_chi(actx),
        "behrend_dhillon_bun@r=2": behrend_dhillon_bun(dctx, 2),
        "behrend_dhillon_bun@r=3": behrend_dhillon_bun(dctx, 3),
        "unstable_rank2_var_closed": unstable_rank2_var_closed(dctx),
    }
    got = {name: hashlib.sha256(cls.to_json().encode()).hexdigest()
           for name, cls in built.items()}
    assert got == FROZEN_DIGESTS


def _behrend_dhillon_bun_reference(ctx, r):
    """The stack class as the product of the termwise zeta sums, as it was
    built before the closed form."""
    out = zeta_at_lefschetz(ctx, -2)
    for i in range(3, r + 1):
        out = out * zeta_at_lefschetz(ctx, -i)
    return out.shift((r * r - 1) * (ctx.g - 1))


def _m3_var_reference(ctx):
    """m3_var with the termwise stack class and the termwise stand-in
    L^{3(g-1)} Z(C, L^{-2}) for Z(C, L), as it was built before the closed
    form."""
    g = ctx.g
    jac = jacobian_class(ctx)
    zrep = zeta_at_lefschetz(ctx, -2).shift(3 * (g - 1))
    lin = ((lefschetz_power(ctx, 2 * g) + lefschetz_power(ctx, 2 * g - 1))
           .div_unit(1).div_unit(3) * jac * zrep)
    quad = (one(ctx).div_unit(1).div_unit(1).div_unit(2).div_unit(2)
            * jac * jac).shift(3 * g - 1)
    return _behrend_dhillon_bun_reference(ctx, 3) - lin + quad


def _outcome(build, ctx):
    try:
        return build(ctx).to_json()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_closed_form_dimensional_classes_match_termwise_reference(g):
    # every dimensional floor from -(12g+12) to 2g at g <= 4, a stride above;
    # the floors near 0 hold empty zeta sums and the raising windows
    floors = set(range(-(12 * g + 12), 2 * g + 1, 1 if g <= 4 else 5))
    floors |= {0, 1, 2 * g}
    pairs = [
        (lambda c: behrend_dhillon_bun(c, 2), lambda c: _behrend_dhillon_bun_reference(c, 2)),
        (lambda c: behrend_dhillon_bun(c, 3), lambda c: _behrend_dhillon_bun_reference(c, 3)),
        (m3_var, _m3_var_reference),
    ]
    for lo in sorted(floors):
        ctx = GenusContext.dimensional(g, lo=lo)
        for build, reference in pairs:
            assert _outcome(build, ctx) == _outcome(reference, ctx), (g, lo)


def test_unstable_rank2_lowest_coefficient():
    ctx = GenusContext.adic(2)
    un = unstable_rank2_chi(ctx)
    assert min(un.coeffs) == 2
    assert un.coefficient(2) == (CoeffPoly.one(2) + CoeffPoly.single(2, (1, 0))
                                 + CoeffPoly.single(2, (0, 1)))


def test_unstable_rank3_support_starts_at_2g_minus_1():
    for g in (2, 3):
        un = unstable_rank3_chi(GenusContext.adic(g))
        assert min(un.coeffs) == 2 * g - 1


def test_j_squared_cancellation():
    for g in (2, 3):
        steps = j_squared_cancellation(GenusContext.adic(g))
        assert [label for label, _ in steps] == [
            "sum-vanishes", "stack-term-form", "linear-term-form",
            "quadratic-term-form"]
        assert all(bool(cmp) for _, cmp in steps)


def test_j_linear_closed_form():
    for g in (2, 3, 4):
        assert bool(j_linear_closed_form(GenusContext.adic(g)))


def test_x_identity_holds():
    for g in range(2, 9):
        for label, delta in x_identity_all(g):
            assert not delta, "%s at g=%d: %s" % (label, g, delta)


def test_x_identity_argument_guards():
    with pytest.raises(ValueError):
        x_identity_delta(1, 0)
    with pytest.raises(ValueError):
        x_identity_delta(3, 2)
    with pytest.raises(ValueError):
        x_identity_delta(3, -1)


def test_behrend_dhillon_top_coefficient():
    dctx = GenusContext.dimensional(2)
    assert behrend_dhillon_bun(dctx, 2).coefficient(3) == 1
    assert behrend_dhillon_bun(dctx, 3).coefficient(8) == 1
    with pytest.raises(ValueError):
        behrend_dhillon_bun(GenusContext.adic(2), 2)


def test_unstable_var_sum_and_closed_form():
    for g in (2, 3):
        dctx = GenusContext.dimensional(g)
        total = unstable_rank2_var_sum(dctx)
        assert bool(total.equals(unstable_rank2_var_closed(dctx)))
        # the d = 1 stratum dominates: top exponent 2g-3
        assert max(total.coeffs) == 2 * g - 3


def test_var_mode_moduli_match_templates():
    for g in (2, 3):
        dctx = GenusContext.dimensional(g)
        assert bool(m2_var(dctx).equals(rank2_decomposition(dctx)))
        assert bool(m3_var(dctx).equals(rank3_decomposition(dctx)))


def test_cross_mode_agreement_of_moduli_classes():
    for g in (2, 3):
        dctx = GenusContext.dimensional(g)
        actx = GenusContext.adic(g)
        mv, ma = m2_var(dctx), m2_chi(actx)
        cmp = cross_mode_agreement(mv, ma, 0, min(mv.valid_hi, ma.valid_hi))
        assert bool(cmp)


def test_cross_mode_disagreement_is_witnessed():
    dctx = GenusContext.dimensional(2)
    actx = GenusContext.adic(2)
    cmp = cross_mode_agreement(m2_var(dctx), m2_chi(actx).shift(1), 0, 5)
    assert not cmp and cmp.witness_exponent == 0


def test_cross_mode_agreement_refuses_an_empty_range():
    ctx = GenusContext.adic(2)
    with pytest.raises(ValueError, match="no shared validity range to compare on"):
        cross_mode_agreement(one(ctx), one(ctx), 5, 3)
    assert cross_mode_agreement(one(ctx), one(ctx), 3, 3)


def _cross_mode_reference(x, y, lo, hi):
    """cross_mode_agreement on the decoded coefficient tables, exponent by
    exponent: the comparison before it read the packed ints."""
    if lo > hi:
        raise ValueError("no shared validity range to compare on")
    tx = x.coefficient_table(lo, hi)
    ty = y.coefficient_table(lo, hi)
    zx, zy = CoeffPoly.zero(x.g), CoeffPoly.zero(y.g)
    for e in sorted(set(tx) | set(ty)):
        mine, theirs = tx.get(e, zx), ty.get(e, zy)
        if mine != theirs:
            return Comparison(False, lo, hi, e, mine - theirs)
    return Comparison(True, lo, hi)


def _comparison_or_error(compare, x, y, lo, hi):
    try:
        return compare(x, y, lo, hi)
    except ValueError as exc:
        return str(exc)


_near_2_70 = st.integers(-4, 4).map(lambda c: 2 ** 70 + c if c % 2 else -2 ** 70 - c)


@st.composite
def _cross_mode_pairs(draw):
    """A dimensional class and an adic one over one genus: equal, differing
    at one slot, or with a monomial on one side only; coefficients small or
    near 2^70, so the two sides may have different slot widths."""
    g = draw(st.integers(2, 3))
    mono = st.tuples(*[st.integers(0, 2)] * g)
    coeff = draw(st.sampled_from([st.integers(-3, 3), _near_2_70]))
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 8), mono), coeff, max_size=8))
    other = dict(terms)
    kind = draw(st.sampled_from(["slot", "one-sided", "equal"]))
    extra = draw(st.sampled_from([st.integers(-3, 3), _near_2_70])).filter(bool)
    if kind == "slot":
        key = draw(st.sampled_from(sorted(terms)) if terms else st.tuples(st.integers(0, 8), mono))
        other[key] = other.get(key, 0) + draw(extra)
    elif kind == "one-sided":
        m = draw(mono.filter(lambda m: all(k[1] != m for k in terms)))
        for e in draw(st.lists(st.integers(0, 8), min_size=1, max_size=3)):
            other[e, m] = draw(extra)

    def build(ctx, table):
        coeffs = {}
        for (e, m), c in table.items():
            coeffs.setdefault(e, {})[m] = c
        return MotiveSeries(ctx, {e: CoeffPoly(g, t) for e, t in coeffs.items()})

    x = build(GenusContext.dimensional(g, lo=-2, hi=10), terms)
    y = build(GenusContext.adic(g, hi=draw(st.sampled_from([8, 10]))), other)
    # mostly inside both validity ranges, [0, 8] or [0, 10], at times not
    lo = draw(st.integers(-1, 8))
    return x, y, lo, draw(st.integers(lo, 9))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_cross_mode_pairs())
def test_cross_mode_agreement_matches_the_decoded_tables(pair):
    x, y, lo, hi = pair
    for a, b in ((x, y), (y, x)):
        want = _comparison_or_error(_cross_mode_reference, a, b, lo, hi)
        assert _comparison_or_error(cross_mode_agreement, a, b, lo, hi) == want


def test_comparisons_subtract_only_for_the_witness(monkeypatch):
    dctx, actx = GenusContext.dimensional(2), GenusContext.adic(2)
    mv, ma = m2_var(dctx), m2_chi(actx)
    shifted = ma.shift(1)
    calls = []
    sub = CoeffPoly.__sub__
    monkeypatch.setattr(CoeffPoly, "__sub__", lambda p, q: calls.append(1) or sub(p, q))
    assert cross_mode_agreement(mv, ma, 0, 5) and ma.equals(ma.shift(0))
    assert calls == []
    cmp = cross_mode_agreement(mv, shifted, 0, 5)
    assert calls == [1] and cmp.witness_delta == CoeffPoly.constant(2, 1)
    cmp = ma.equals(shifted)
    assert calls == [1, 1] and cmp.witness_delta == CoeffPoly.constant(2, 1)


def test_var_rank2_check_shape():
    steps = {d["step"]: d for d in run_check("var-rank2", 2).details}
    assert steps["decomposition"]["ok"]
    assert steps["cross-mode"]["ok"]
    assert steps["l3-prefactor-probe"]["equal"] is False  # the variant reading fails


def test_var_rank3_check_passes():
    report = run_check("var-rank3", 2)
    assert report.verdict == "pass"
    assert [d["step"] for d in report.details] == ["decomposition", "cross-mode"]


def test_mode_guards():
    with pytest.raises(ValueError):
        m2_chi(GenusContext.dimensional(2))
    with pytest.raises(ValueError):
        unstable_rank2_var_sum(GenusContext.adic(2))
