"""Symmetric powers, the Jacobian, and the zeta-function identities."""

import hashlib
import re

import pytest

from curvemotives.curves import (
    ZetaSeries,
    binomial_h1_series,
    check_functional_equation,
    check_symmetric_power_decomposition,
    check_zeta_rationality,
    dec_zeta_finite_part,
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


# sha256 of to_json() of the zeta decomposition, keyed by (function, mode,
# genus, window or None for the default, i).  The non-default windows are
# [-3, 30] (adic) and floor -30 (dimensional, default ceiling).
DEC_ZETA_DIGESTS = {
    ("dec_zeta_finite_part", "adic", 2, None, 1):
        "784bc7d6f6b42d7211f5a606a155b01377ee4fced02da4e740b50e5d025e4d24",
    ("dec_zeta_rhs", "adic", 2, None, 1):
        "9c3e161f048d6d1da4d5b84ad463df812956b6d0afab607dc8f78d5e54e81abe",
    ("dec_zeta_finite_part", "adic", 2, None, 2):
        "50e081f7ff9ebdc76991bc7c392f5182de96b5955d7c7f2b08758b044c6cd388",
    ("dec_zeta_rhs", "adic", 2, None, 2):
        "1a44ba57717be02e37aca239aa10116c35306c7efb1dcf076c3c3ff82ebc01e6",
    ("dec_zeta_finite_part", "adic", 2, None, 3):
        "48ad31a0e8c68d62f40c4b23cae58a69e2598980d3ec562ede578301cbce5a35",
    ("dec_zeta_rhs", "adic", 2, None, 3):
        "ff65769727f4328b79816d242978e3bcad4a5c68317bbea10bfbf9ecf7acf689",
    ("dec_zeta_finite_part", "dimensional", 2, None, 2):
        "451d1f2316611ec0a1652b74647d23aff97b1d0c028e092f271efed8b17e09d7",
    ("dec_zeta_rhs", "dimensional", 2, None, 2):
        "78b5faf2454a401dadf226b9276f74074f0e2b6c69d8e549bfd1f0f2644e2380",
    ("dec_zeta_finite_part", "dimensional", 2, None, 3):
        "c2ff9848b2c498bfe09fd0e679f3ffb139cc1cf9f3ecc335208c595202dd8610",
    ("dec_zeta_rhs", "dimensional", 2, None, 3):
        "d9cb29cb895be0a06b023c2b208463cb0511f4e2db1e2a27f356808afc9cd2bf",
    ("dec_zeta_finite_part", "adic", 3, None, 1):
        "bd70cd8c1a33949a57806f9b3a179394a769f770f53b40d60322839de747bd1a",
    ("dec_zeta_rhs", "adic", 3, None, 1):
        "889a52505acf67e0d8b7d519f22777f3a05a80d46bad540b7697c3f13e802487",
    ("dec_zeta_finite_part", "adic", 3, None, 2):
        "19c62c79f3844a599dc63b5f93eae8f4c8afabbfaf1284f16e6608ef4c1d8f73",
    ("dec_zeta_rhs", "adic", 3, None, 2):
        "926114526bc50a34550af761ff9407941a52f2e2f9dba94fcc1a3a24ba5e47e2",
    ("dec_zeta_finite_part", "adic", 3, None, 3):
        "63477e41e49f017cd697b8d303908cf2f5f29401f3dd01d7037b8cf51ee098e8",
    ("dec_zeta_rhs", "adic", 3, None, 3):
        "b7e3cc1a045ee287b9c0700506fa33ffeb3d56c4429f297b910a1cb198ebc9ec",
    ("dec_zeta_finite_part", "dimensional", 3, None, 2):
        "c6fb109ae68f53d2656427e140358abc41ed7503e4a9e3d7c84f089842de408b",
    ("dec_zeta_rhs", "dimensional", 3, None, 2):
        "a035147b61b6bd36d7af211b18ec22e70b320de96873e94821c1b113ff1dfea6",
    ("dec_zeta_finite_part", "dimensional", 3, None, 3):
        "90f39c9f3e58ed781b5aa9c53be109126f5cfb4a42aadab2c286231830aacf7f",
    ("dec_zeta_rhs", "dimensional", 3, None, 3):
        "ece66d7128ca4fdb8181a29c58ee82de8bc21b0e6e31b390e36b7b6ed071ab04",
    ("dec_zeta_finite_part", "adic", 3, (-3, 30), 1):
        "66daf552301ce505c5e85d3269bc53b5b1ee12cadfc3a09001b3f6a80ff20b3b",
    ("dec_zeta_rhs", "adic", 3, (-3, 30), 1):
        "ddda0a9f97cb7401668e325b737de4f7aac7ab116c3c33a93a57e3cc59fa3f56",
    ("dec_zeta_finite_part", "adic", 3, (-3, 30), 2):
        "e1201f2209a156e473870b8b9d070f46075952dd3b2dd881389510ff9e307856",
    ("dec_zeta_rhs", "adic", 3, (-3, 30), 2):
        "77804a93705a7302bbb016a3de619924b6655bec3fbd4e95eee42fc026744409",
    ("dec_zeta_finite_part", "adic", 3, (-3, 30), 3):
        "8e6b38a0b38085a1645411e5652456188d7acac99c1f5d70b945c9b6957cef3d",
    ("dec_zeta_rhs", "adic", 3, (-3, 30), 3):
        "8babc9458a8beabd4355afc077093547bc16d9aa7af91ccc4a1bd47a75f5a8bb",
    ("dec_zeta_finite_part", "dimensional", 3, (-30, None), 2):
        "ad4e03fb21e2a96d55eae555dc5c92a5fab059a985bef6b52003bf9b63d98a94",
    ("dec_zeta_rhs", "dimensional", 3, (-30, None), 2):
        "77ab37f71c8c609cc673a93e6888c2fed486e00108027cff1f466607d075a9ad",
    ("dec_zeta_finite_part", "dimensional", 3, (-30, None), 3):
        "10f6b2eb526cb3239f87e38551d4d8a91fd506c44159ab0a10961a707c54949d",
    ("dec_zeta_rhs", "dimensional", 3, (-30, None), 3):
        "89bfe1e8b92ed3e3f0f99cd35894b8e485f6c306ce40403b3fddb54d7c62cca8",
}

_DEC_ZETA_WINDOWS = {
    ("adic", (-3, 30)): lambda g: GenusContext.adic(g, hi=30, lo=-3),
    ("dimensional", (-30, None)): lambda g: GenusContext.dimensional(g, lo=-30),
}


def test_dec_zeta_digests_are_frozen():
    functions = {"dec_zeta_finite_part": dec_zeta_finite_part, "dec_zeta_rhs": dec_zeta_rhs}
    got = {}
    for name, mode, g, window, i in DEC_ZETA_DIGESTS:
        if window is None:
            ctx = getattr(GenusContext, mode)(g)
        else:
            ctx = _DEC_ZETA_WINDOWS[mode, window](g)
        cls = functions[name](ctx, i)
        got[name, mode, g, window, i] = hashlib.sha256(cls.to_json().encode()).hexdigest()
    assert got == DEC_ZETA_DIGESTS


@pytest.mark.parametrize("function", [dec_zeta_finite_part, dec_zeta_rhs])
def test_dec_zeta_refusal_texts(function):
    with pytest.raises(ValueError) as adic:
        function(GenusContext.adic(2), 0)
    assert str(adic.value) == "adic decomposition needs i >= 1, got 0"
    with pytest.raises(ValueError) as dimensional:
        function(GenusContext.dimensional(2), 1)
    assert str(dimensional.value) == "dimensional decomposition needs i >= 2, got 1"


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
