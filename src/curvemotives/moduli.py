"""Moduli pipelines: bundle-stack classes, Harder-Narasimhan corrections,
the rank-2 and rank-3 fixed-determinant moduli classes with their
symmetric-power decompositions, the composition-indexed inversion formula,
and the dimensional-mode counterparts of all of it.

Throughout, the stack of rank-r bundles with fixed determinant of odd degree
has class  prod_{i=1}^{r-1} Z(C, L^i)  in adic mode and
L^{(r^2-1)(g-1)} prod_{i=2}^{r} Z(C, L^{-i})  in dimensional mode; the
unstable locus is removed stratum by stratum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .curves import (
    binomial_h1_series,
    dec_zeta_finite_part,
    jacobian_class,
    sym_power_class,
)
from .polys import IntPoly
from .series import (
    CoeffPoly,
    Comparison,
    GenusContext,
    Mode,
    MotiveSeries,
    TruncationWindow,
    lefschetz_power,
    one,
    zero,
)

__all__ = [
    "bun_chi",
    "unstable_rank2_chi",
    "m2_chi",
    "rank2_min_ceiling",
    "rank2_template_blocks",
    "rank2_decomposition",
    "unstable_rank3_chi",
    "m3_chi",
    "rank3_min_ceiling",
    "rank3_index_pairs",
    "rank3_template_blocks",
    "rank3_decomposition",
    "template_class",
    "j_squared_cancellation",
    "j_linear_closed_form",
    "frac_part",
    "compositions",
    "InversionSpec",
    "inversion_exponent",
    "inversion_formula",
    "inversion_consistency",
    "behrend_dhillon_bun",
    "unstable_rank2_var_sum",
    "unstable_rank2_var_closed",
    "m2_var",
    "m3_var",
    "cross_mode_agreement",
    "var_rank2_check",
    "var_rank3_check",
    "x_identity_delta",
    "x_identity_all",
]


def _require_adic(ctx):
    if ctx.mode is not Mode.ADIC:
        raise ValueError("this construction lives in the adic completion")


def _require_dimensional(ctx):
    if ctx.mode is not Mode.DIMENSIONAL:
        raise ValueError("this construction lives in the dimensional completion")


# -- adic-mode pipelines ---------------------------------------------------


def bun_chi(ctx, r: int) -> MotiveSeries:
    """Class of the stack of rank-r bundles with fixed odd-degree determinant:
    the product of the zeta evaluations at L^1 .. L^{r-1}, built as the
    product of their numerators (1+L^i)^{h1} divided by the units."""
    _require_adic(ctx)
    if r not in (2, 3):
        raise ValueError("rank must be 2 or 3, got %d" % r)
    out = binomial_h1_series(ctx, 1)
    for i in range(2, r):
        out = out * binomial_h1_series(ctx, i)
    for i in range(1, r):
        out = out.div_unit(i).div_unit(i + 1)
    return out


def unstable_rank2_chi(ctx) -> MotiveSeries:
    """Unstable rank-2 stratum: [J] L^g / ((1-L)(1-L^2))."""
    _require_adic(ctx)
    g = ctx.g
    return jacobian_class(ctx).div_unit(1).div_unit(2).shift(g)


def _require_ceiling(ctx, need):
    """Refuse an adic window whose ceiling is below ``need``, one past the
    support bound of a moduli class: its vanishing check would see nothing."""
    _require_adic(ctx)
    if ctx.window.hi < need:
        raise ValueError("window ceiling %d does not pass the support bound %d "
                         "(needs >= %d)" % (ctx.window.hi, need - 1, need))


def rank2_min_ceiling(g):
    """The lowest adic window ceiling m2_chi accepts: 3g-2."""
    return 3 * g - 2


def rank3_min_ceiling(g):
    """The lowest adic window ceiling m3_chi accepts: 8g-7."""
    return 8 * g - 7


def m2_chi(ctx) -> MotiveSeries:
    """Rank-2 fixed-determinant moduli class: stack minus unstable stratum.

    The result is a polynomial supported in [0, 3g-3]; that vanishing is
    re-verified here on the whole window, whose ceiling must pass 3g-3,
    before returning."""
    _require_ceiling(ctx, rank2_min_ceiling(ctx.g))
    out = bun_chi(ctx, 2) - unstable_rank2_chi(ctx)
    bad = out.vanishes_above(3 * ctx.g - 3)
    if bad is not None:
        raise ArithmeticError(
            "rank-2 moduli class has unexpected support at L^%d" % bad)
    return out


def rank2_template_blocks(g):
    """Blocks of the rank-2 decomposition: (symmetric-power indices, exponents)."""
    blocks = [((k,), (k, 3 * g - 3 - 2 * k)) for k in range(0, g - 1)]
    blocks.append(((g - 1,), (g - 1,)))
    return blocks


def template_class(ctx, blocks) -> MotiveSeries:
    """Sum over blocks of (product of symmetric powers) * (sum of L powers).
    Each distinct symmetric power is built once."""
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


def rank2_decomposition(ctx) -> MotiveSeries:
    """Symmetric-power decomposition of the rank-2 moduli class:
    sum_{k=0}^{g-2} [C_k](L^k + L^{3g-3-2k}) + [C_{g-1}] L^{g-1}."""
    return template_class(ctx, rank2_template_blocks(ctx.g))


def unstable_rank3_chi(ctx) -> MotiveSeries:
    """Unstable rank-3 strata via the Harder-Narasimhan correction terms.

    Computes both the raw three-term signed sum

        (L^{2g} + L^{2g-1})/(1-L^3) * [J]/(1-L) * Z(C,L)
        - L^{3g-1}/(1-L^2)^2 * ([J]/(1-L))^2

    and the reduced form

        L^{2g-1}(1+L)/((1-L)(1-L^3)) * [J] Z(C,L)
        - L^{3g-1}/((1-L)^2(1-L^2)^2) * [J]^2

    and insists they agree before returning.  Z(C,L) enters through its
    numerator (1+L)^{h1}: every product is with a finite class, and the
    units are divided out with div_unit."""
    _require_adic(ctx)
    g = ctx.g
    jac = jacobian_class(ctx)
    h1 = binomial_h1_series(ctx, 1)  # Z(C,L) (1-L)(1-L^2)
    ell = lefschetz_power(ctx, 1)
    jb = jac.div_unit(1)  # [J] * [B Gm]
    lin = (jb.div_unit(3) * h1).div_unit(1).div_unit(2)
    lin_raw = lin.shift(2 * g) + lin.shift(2 * g - 1)
    quad_raw = (jb * jac).div_unit(1).div_unit(2).div_unit(2).shift(3 * g - 1)
    raw = lin_raw - quad_raw
    lin_red = (((one(ctx) + ell) * jac * h1)
               .div_unit(1).div_unit(3).div_unit(1).div_unit(2).shift(2 * g - 1))
    quad_red = ((jac * jac).div_unit(1).div_unit(1).div_unit(2).div_unit(2)
                .shift(3 * g - 1))
    reduced = lin_red - quad_red
    agree = raw.equals(reduced)
    if not agree:
        raise ArithmeticError(
            "raw and reduced unstable rank-3 corrections disagree at L^%d"
            % agree.witness_exponent)
    return reduced


def m3_chi(ctx) -> MotiveSeries:
    """Rank-3 fixed-determinant moduli class; a polynomial in [0, 8g-8],
    re-verified on a window whose ceiling must pass 8g-8."""
    _require_ceiling(ctx, rank3_min_ceiling(ctx.g))
    out = bun_chi(ctx, 3) - unstable_rank3_chi(ctx)
    bad = out.vanishes_above(8 * ctx.g - 8)
    if bad is not None:
        raise ArithmeticError(
            "rank-3 moduli class has unexpected support at L^%d" % bad)
    return out


def rank3_index_pairs(g):
    """Index pairs (k1, k2) of the rank-3 decomposition, in reading order:
    every pair with k1+k2 < 2(g-1), the boundary pairs (k1+k2 = 2(g-1) with
    k1 < g-1), then the middle pair (g-1, g-1)."""
    pairs = []
    for s in range(0, 2 * (g - 1)):
        for k1 in range(0, s + 1):
            pairs.append((k1, s - k1))
    for k1 in range(0, g - 1):
        pairs.append((k1, 2 * (g - 1) - k1))
    pairs.append((g - 1, g - 1))
    return pairs


def rank3_template_blocks(g):
    """Blocks of the rank-3 decomposition.  The middle pair carries the
    single exponent 3(g-1); everything else the pair (k1+2k2, 8g-8-2k1-3k2)."""
    blocks = []
    for k1, k2 in rank3_index_pairs(g):
        if (k1, k2) == (g - 1, g - 1):
            blocks.append(((k1, k2), (3 * (g - 1),)))
        else:
            blocks.append(((k1, k2), (k1 + 2 * k2, 8 * g - 8 - 2 * k1 - 3 * k2)))
    return blocks


def rank3_decomposition(ctx) -> MotiveSeries:
    """Symmetric-power decomposition of the rank-3 moduli class."""
    return template_class(ctx, rank3_template_blocks(ctx.g))


# -- the two intermediate identities behind the rank-3 subtraction ---------


def j_squared_cancellation(ctx):
    """The three series multiplying [J]^2 in the rank-3 subtraction sum to
    zero: the stack contributes L^{3g}/((1-L)(1-L^2)^2(1-L^3)), the linear
    correction -L^{3g-1}(1+L)^2/(same), the quadratic correction
    +L^{3g-1}(1+L+L^2)/(same).  Each source term is also matched against its
    displayed closed form.  Returns [(label, Comparison), ...]."""
    _require_adic(ctx)
    g = ctx.g
    ell = lefschetz_power(ctx, 1)
    u1 = one(ctx).div_unit(1).div_unit(2).shift(g)      # J-tail factor of Z(C, L)
    u2 = one(ctx).div_unit(2).div_unit(3).shift(2 * g)  # J-tail factor of Z(C, L^2)
    stack_term = u1 * u2
    lin_term = (one(ctx) + ell).div_unit(1).div_unit(3).shift(2 * g - 1) * u1
    quad_term = one(ctx).div_unit(1).div_unit(1).div_unit(2).div_unit(2).shift(3 * g - 1)
    common = one(ctx).div_unit(1).div_unit(2).div_unit(2).div_unit(3)
    return [
        ("sum-vanishes", (stack_term - lin_term + quad_term).equals(zero(ctx))),
        ("stack-term-form", stack_term.equals(common.shift(3 * g))),
        ("linear-term-form",
         lin_term.equals(((one(ctx) + ell) ** 2 * common).shift(3 * g - 1))),
        ("quadratic-term-form",
         quad_term.equals(((one(ctx) + ell + lefschetz_power(ctx, 2)) * common)
                          .shift(3 * g - 1))),
    ]


def j_linear_closed_form(ctx) -> Comparison:
    """The series multiplying [J] (to the first power) in the rank-3
    subtraction collapses to

        sum_{k=0}^{g-2} [C_k] L^{2k+g} (1-L^{g-1-k})(1-L^{4g-4-4k})
                        / ((1-L)(1-L^2)).
    """
    _require_adic(ctx)
    g = ctx.g
    ell = lefschetz_power(ctx, 1)
    a1 = dec_zeta_finite_part(ctx, 1)
    a2 = dec_zeta_finite_part(ctx, 2)
    b1 = rank2_decomposition(ctx)  # the same sum as a1, regrouped
    lhs = (a1.div_unit(2).div_unit(3).shift(2 * g)
           + a2.div_unit(1).div_unit(2).shift(g)
           - (b1 * (one(ctx) + ell) ** 2).div_unit(2).div_unit(3).shift(2 * g - 1))
    rhs = zero(ctx)
    for k in range(0, g - 1):
        numer = ((one(ctx) - lefschetz_power(ctx, g - 1 - k))
                 * (one(ctx) - lefschetz_power(ctx, 4 * g - 4 - 4 * k)))
        rhs = rhs + (sym_power_class(ctx, k) * numer).div_unit(1).div_unit(2).shift(2 * k + g)
    return lhs.equals(rhs)


# -- inversion formula -----------------------------------------------------


def frac_part(p: int, q: int) -> Fraction:
    """Fractional part of p/q in [0, 1); q must be positive."""
    if q <= 0:
        raise ValueError("denominator must be positive, got %d" % q)
    f = Fraction(p, q)
    return f - math.floor(f)


def compositions(n: int):
    """All ordered tuples of positive integers summing to n (2^{n-1} of
    them), in lexicographic order."""
    if n < 0:
        raise ValueError("compositions need n >= 0, got %d" % n)
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    out.sort()
    return out


@dataclass(frozen=True)
class InversionSpec:
    """Rank and degree for the composition-indexed inversion sum."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("rank must be >= 2, got %d" % self.n)
        if math.gcd(self.n, self.d) != 1:
            raise ValueError("rank %d and degree %d must be coprime" % (self.n, self.d))

    def compositions(self):
        return compositions(self.n)


def inversion_exponent(g: int, spec: InversionSpec, comp) -> int:
    """Total L-exponent of one composition term:
    (g-1) sum_{i<j} n_i n_j + sum_i (n_i + n_{i+1}) <-(n_1+..+n_i) d / n>.

    The fractional parts must sum to an integer with the quadratic part;
    anything else is a hard error."""
    s = len(comp)
    base = (g - 1) * sum(comp[i] * comp[j] for i in range(s) for j in range(i + 1, s))
    total = Fraction(base)
    prefix = 0
    for i in range(s - 1):
        prefix += comp[i]
        total += (comp[i] + comp[i + 1]) * frac_part(-prefix * spec.d, spec.n)
    if total.denominator != 1:
        raise ArithmeticError(
            "non-integer exponent %s for composition %r" % (total, comp))
    return int(total)


def inversion_formula(ctx, spec: InversionSpec) -> MotiveSeries:
    """The composition-indexed inversion sum for rank n, degree d:

        sum over compositions (n_1..n_s) of n of
        (-1)^{s-1} [J]^s / (1-L)^{s-1}
        * prod_j prod_{i=1}^{n_j - 1} (1+L^i)^{h1} / ((1-L^i)(1-L^{i+1}))
        * prod_j 1/(1-L^{n_j + n_{j+1}})
        * L^{exponent}.
    """
    _require_adic(ctx)
    g = ctx.g
    jac = jacobian_class(ctx)
    total = zero(ctx)
    for comp in spec.compositions():
        s = len(comp)
        # the finite numerator first, then one division per unit
        term = jac ** s
        units = [1] * (s - 1)
        for nj in comp:
            for i in range(1, nj):
                term = term * binomial_h1_series(ctx, i)
                units += [i, i + 1]
        units += [comp[j] + comp[j + 1] for j in range(s - 1)]
        for i in units:
            term = term.div_unit(i)
        term = term.shift(inversion_exponent(g, spec, comp))
        if s % 2 == 0:
            term = -term
        total = total + term
    return total


def inversion_consistency(ctx, r: int, d: int = 1):
    """Compare the inversion sum against the fixed-determinant moduli class
    and against the Jacobian times that class.  Returns both comparisons as
    [(label, Comparison), ...]; exactly one of them should hold."""
    inv = inversion_formula(ctx, InversionSpec(r, d))
    m = m2_chi(ctx) if r == 2 else m3_chi(ctx)
    return [
        ("fixed-determinant", inv.equals(m)),
        ("jacobian-times-fixed-determinant", inv.equals(jacobian_class(ctx) * m)),
    ]


# -- dimensional-mode pipelines --------------------------------------------


def _deeper(ctx, margin):
    """The dimensional context of ctx with its floor lowered to
    min(floor, 0) - margin."""
    w = ctx.window
    return GenusContext(ctx.g, TruncationWindow(min(w.lo, 0) - margin, w.hi,
                                                Mode.DIMENSIONAL))


def _rehome(ctx, closed, floor):
    """A closed form computed in a deeper context, as a series of ctx valid
    from ``floor`` up.  Narrowing a validity range is always sound; a closed
    form not known down to ``floor`` is an error, never a wider claim."""
    if closed.valid_lo > floor:
        raise ArithmeticError(
            "closed form is valid only from L^%d, above the termwise floor L^%d"
            % (closed.valid_lo, floor))
    # the deeper window shares the ceiling, so restricting it to the floor
    # of ctx gives a series of ctx; a sum is valid on the overlap of its
    # terms, so adding zero known from ``floor`` narrows the range
    return closed.restricted(ctx.window.lo) + MotiveSeries(ctx, valid_lo=floor)


def behrend_dhillon_bun(ctx, r: int) -> MotiveSeries:
    """Dimensional-mode bundle-stack class:
    L^{(r^2-1)(g-1)} prod_{i=2}^{r} Z(C, L^{-i}).

    Z(C, L^{-i}) = L^{2i-1} N_i / ((L^i-1)(L^{i-1}-1)) with the finite
    numerator N_i = sum_a l_a L^{-ia}, so the class is
    L^{(r^2-1)g} prod_i N_i divided by the units.  It is valid from the floor
    the product of the termwise zeta sums has, and raises where that product
    raises."""
    _require_dimensional(ctx)
    if r not in (2, 3):
        raise ValueError("rank must be 2 or 3, got %d" % r)
    g = ctx.g
    # one(ctx) has the validity range and support ceiling of a termwise sum
    # Z(C, L^{-i}) (exact on the window, top term 1 at L^0), so the product
    # rule applied to it gives the floor of the termwise product
    profile = one(ctx)
    for _ in range(3, r + 1):
        profile = profile * one(ctx)
    floor = profile.shift((r * r - 1) * (g - 1)).valid_lo
    # in the deeper context the numerator keeps its term at L^0 and the
    # divisions keep its floor; the shift then raises the floor by
    # (r^2-1)g, which is r^2-1 more than the termwise shift raises it
    deep = _deeper(ctx, r * r - 1)
    out = binomial_h1_series(deep, -2)
    for i in range(3, r + 1):
        out = out * binomial_h1_series(deep, -i)
    for i in range(2, r + 1):
        out = out.div_unit(i - 1).div_unit(i)
    # divide before shifting: the numerator times L^{(r^2-1)g} would reach
    # above the ceiling
    return _rehome(ctx, out.shift((r * r - 1) * g), floor)


def unstable_rank2_var_closed(ctx) -> MotiveSeries:
    """Closed form of the rank-2 unstable class: [J] L^g / ((L-1)(L^2-1))."""
    _require_dimensional(ctx)
    return jacobian_class(ctx).div_unit(1).div_unit(2).shift(ctx.g)


def unstable_rank2_var_sum(ctx) -> MotiveSeries:
    """Rank-2 unstable class summed stratum by stratum: the destabilizing
    line subbundle of degree d >= 1 contributes [J] L^{g-2d} / (L-1).

    Terms are added until they fall below the window.  The check
    unstable-rank2-hn-sum compares the result with the closed form."""
    _require_dimensional(ctx)
    g = ctx.g
    w = ctx.window
    jb = jacobian_class(ctx).div_unit(1)
    out = zero(ctx)
    d = 1
    # the degree-d term has true support bounded above by 2g - 2d - 1
    while 2 * g - 2 * d - 1 >= w.lo:
        out = out + jb.shift(g - 2 * d)
        d += 1
    return out


def m2_var(ctx) -> MotiveSeries:
    """Dimensional-mode rank-2 moduli class: stack minus unstable sum."""
    return behrend_dhillon_bun(ctx, 2) - unstable_rank2_var_sum(ctx)


def _hn_linear_factor(ctx) -> MotiveSeries:
    """(L^{2g} + L^{2g-1}) [J] / ((L-1)(L^3-1)): the linear
    Harder-Narasimhan term without its Z(C, L)."""
    g = ctx.g
    return ((lefschetz_power(ctx, 2 * g) + lefschetz_power(ctx, 2 * g - 1))
            .div_unit(1).div_unit(3) * jacobian_class(ctx))


def m3_var(ctx) -> MotiveSeries:
    """Dimensional-mode rank-3 moduli class.  The Harder-Narasimhan
    corrections are the same rational functions as in adic mode, re-expanded
    against the units L^i - 1 (the paired sign flips of numerator and
    denominator cancel).

    Z(C, L) = L^{3g} N_2 / ((L-1)(L^2-1)) enters the linear term through its
    numerator, and the term is valid from the floor it has with the termwise
    stand-in L^{3(g-1)} Z(C, L^{-2}) for Z(C, L)."""
    _require_dimensional(ctx)
    g = ctx.g
    jac = jacobian_class(ctx)
    # the profile of the termwise stand-in (see behrend_dhillon_bun)
    zrep = one(ctx).shift(3 * (g - 1))
    floor = (_hn_linear_factor(ctx) * zrep).valid_lo
    # with its floor at or below -3 no factor is empty, and the term is
    # valid from that floor plus 6g-4, as the termwise one is in ctx
    deep = _deeper(ctx, 3)
    lin = ((_hn_linear_factor(deep) * binomial_h1_series(deep, -2))
           .div_unit(1).div_unit(2).shift(3 * g))
    lin = _rehome(ctx, lin, floor)
    # the factor order is that of the expanded products: in this mode the
    # validity floor of a product depends on it
    quad = (one(ctx).div_unit(1).div_unit(1).div_unit(2).div_unit(2)
            * jac * jac).shift(3 * g - 1)
    return behrend_dhillon_bun(ctx, 3) - lin + quad


def cross_mode_agreement(x: MotiveSeries, y: MotiveSeries, lo: int, hi: int) -> Comparison:
    """Exact coefficient-table comparison of two series on [lo, hi]; the
    series may come from different modes (both must be valid there)."""
    tx = x.coefficient_table(lo, hi)
    ty = y.coefficient_table(lo, hi)
    zx, zy = CoeffPoly.zero(x.g), CoeffPoly.zero(y.g)
    for e in sorted(set(tx) | set(ty)):
        mine, theirs = tx.get(e, zx), ty.get(e, zy)
        if mine != theirs:
            return Comparison(False, lo, hi, e, mine - theirs)
    return Comparison(True, lo, hi)


def var_rank2_check(ctx, adic_ctx=None):
    """Dimensional-mode rank-2 pipeline checks.

    * decomposition: stack minus unstable sum equals the rank-2 template;
    * cross-mode: the dimensional and adic moduli classes have identical
      coefficient tables on the shared exponent range (both are honest
      polynomials);
    * l3-prefactor-probe: the variant reading of the stack class with an
      extra L^3 prefactor, compared against the template.  It does not
      close; the mismatch witness lets the caller flag (not fail) it.
    """
    _require_dimensional(ctx)
    bun = behrend_dhillon_bun(ctx, 2)
    un = unstable_rank2_var_sum(ctx)
    m2v = bun - un
    template = rank2_decomposition(ctx)
    steps = [("decomposition", m2v.equals(template))]
    if adic_ctx is None:
        adic_ctx = GenusContext.adic(ctx.g)
    m2a = m2_chi(adic_ctx)
    lo = max(0, m2v.valid_lo)
    hi = min(m2v.valid_hi, m2a.valid_hi)
    steps.append(("cross-mode", cross_mode_agreement(m2v, m2a, lo, hi)))
    steps.append(("l3-prefactor-probe", (bun.shift(3) - un).equals(template)))
    return steps


def var_rank3_check(ctx, adic_ctx=None):
    """Dimensional-mode rank-3 pipeline checks (decomposition + cross-mode)."""
    _require_dimensional(ctx)
    m3v = m3_var(ctx)
    steps = [("decomposition", m3v.equals(rank3_decomposition(ctx)))]
    if adic_ctx is None:
        adic_ctx = GenusContext.adic(ctx.g)
    m3a = m3_chi(adic_ctx)
    lo = max(0, m3v.valid_lo)
    hi = min(m3v.valid_hi, m3a.valid_hi)
    steps.append(("cross-mode", cross_mode_agreement(m3v, m3a, lo, hi)))
    return steps


# -- the terminal exponent identity ---------------------------------------


def x_identity_delta(g: int, k: int) -> IntPoly:
    """Difference of the two sides of the four-term exponent identity used
    to collapse the [J]-linear part, cleared by (1-x)(1-x^2)(1-x^3).  The
    zero polynomial means the identity holds for this (g, k)."""
    if g < 2:
        raise ValueError("genus must be >= 2, got %d" % g)
    if not 0 <= k <= g - 2:
        raise ValueError("k must lie in [0, g-2], got k=%d at g=%d" % (k, g))
    x = IntPoly.x
    t1 = (x(k + 2 * g) - x(3 * g - 3)) * (1 - x(2 * g - 2 - 2 * k)) * (1 - x(3))
    t2 = (x(k + 2 * g + 1) - x(2 * g + k - 2)) * (1 - x(3 * g - 3 - 3 * k)) * (1 - x(2))
    # the third term's denominator is (1-x)^2, so clearing leaves (1+x+x^2)
    t3 = ((x(2 * k + g) - x(5 * g - 4 - 2 * k)) * (1 - x(g - 2 - k))
          * (1 - x(2)) * (1 + x(1) + x(2)))
    t4 = (x(2 * k + g + 1) - x(4 * g - k - 2)) * (1 - x(2 * g - 4 - 2 * k)) * (1 - x(3))
    rhs = x(2 * k + g) * (1 - x(g - 1 - k)) * (1 - x(4 * g - 4 - 4 * k)) * (1 - x(3))
    return t1 - t2 + t3 - t4 - rhs


def x_identity_all(g: int):
    """The exponent identity at every k in [0, g-2]; [(label, delta), ...]."""
    return [("k=%d" % k, x_identity_delta(g, k)) for k in range(0, g - 1)]
