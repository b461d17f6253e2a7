"""Moduli pipelines: bundle-stack classes, Harder-Narasimhan corrections,
the rank-2 and rank-3 fixed-determinant moduli classes with their
symmetric-power decompositions, the composition-indexed inversion formula,
and the dimensional-mode counterparts of all of it.

Throughout, the stack of rank-r bundles with fixed determinant of odd degree
has class  prod_{j=1}^{r-1} Z(C, L^j), which in dimensional mode stands for
L^{(2j+1)(g-1)} Z(C, L^{-(j+1)}), the same rational function expanded
against the units L^i - 1; the unstable locus is removed stratum by stratum.
The stack, both Harder-Narasimhan terms and the rank-2 stratum are each
stated once for both completions.  One builder, _moduli_class, makes both
adic moduli classes; the unstable rank-3 correction is built in its reduced
form only (the rank3 check compares the raw Harder-Narasimhan sum with the
stack minus m3_chi).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from .curves import (
    _zeta_numerator,
    cached,
    dec_zeta_finite_part,
    jacobian_class,
    sym_power_class,
)
from .polys import IntPoly, add_into
from .series import (
    Comparison,
    GenusContext,
    Mode,
    MotiveSeries,
    TruncationWindow,
    _basis_row,
    _value_class,
    _width,
    lefschetz_power,
    one,
    zero,
)

__all__ = [
    "bun_chi",
    "unstable_rank2_chi",
    "m2_chi",
    "min_ceiling",
    "template_blocks",
    "rank2_decomposition",
    "unstable_rank3_chi",
    "m3_chi",
    "rank3_decomposition",
    "j_squared_cancellation",
    "j_linear_closed_form",
    "frac_part",
    "compositions",
    "InversionSpec",
    "inversion_exponent",
    "inversion_sum",
    "inversion_formula",
    "inversion_consistency",
    "behrend_dhillon_bun",
    "unstable_rank2_var_sum",
    "unstable_rank2_var_closed",
    "m2_var",
    "m3_var",
    "cross_mode_agreement",
    "x_identity_delta",
    "x_identity_all",
]


def _require(ctx, mode):
    if ctx.mode is not mode:
        raise ValueError("this construction lives in the %s completion" % mode.value)


def _require_rank(r):
    if r not in (2, 3):
        raise ValueError("rank must be 2 or 3, got %d" % r)


# -- the formulas both completions share -----------------------------------


def _stack(ctx, r):
    """prod_{j<r} Z(C, L^j): the product of the numerators, divided by the
    units, then shifted (the shifted numerators would pass the dimensional
    ceiling)."""
    out, s = _zeta_numerator(ctx, 1)
    for j in range(2, r):
        n, t = _zeta_numerator(ctx, j)
        out, s = out * n, s + t
    for j in range(1, r):
        out = out.div_unit(j).div_unit(j + 1)
    return out.shift(s) if s else out


def _unstable_rank2(ctx, mode):
    """[J] L^g / ((1-L)(1-L^2)), in a context of the given mode."""
    _require(ctx, mode)
    return jacobian_class(ctx).div_unit(1).div_unit(2).shift(ctx.g)


def _hn_linear(ctx):
    """The linear Harder-Narasimhan term L^{2g-1}(1+L)/((1-L)(1-L^3)) [J] Z(C, L),
    with Z(C, L) through its numerator: every product is with a finite
    class, and the units are divided out last."""
    n, s = _zeta_numerator(ctx, 1)
    return (((one(ctx) + lefschetz_power(ctx, 1)) * jacobian_class(ctx) * n)
            .div_unit(1).div_unit(3).div_unit(1).div_unit(2).shift(2 * ctx.g - 1 + s))


def _hn_quadratic(ctx):
    """The quadratic Harder-Narasimhan term L^{3g-1} [J]^2 / ((1-L)^2(1-L^2)^2).
    The factor order is that of the expanded product: in dimensional mode
    the validity floor of a product depends on it."""
    jac = jacobian_class(ctx)
    return (one(ctx).div_unit(1).div_unit(1).div_unit(2).div_unit(2)
            * jac * jac).shift(3 * ctx.g - 1)


# -- adic-mode pipelines ---------------------------------------------------


@cached
def bun_chi(ctx, r: int) -> MotiveSeries:
    """Class of the stack of rank-r bundles with fixed odd-degree determinant:
    the product of the zeta evaluations at L^1 .. L^{r-1} (see _stack)."""
    _require(ctx, Mode.ADIC)
    _require_rank(r)
    return _stack(ctx, r)


def unstable_rank2_chi(ctx) -> MotiveSeries:
    """Unstable rank-2 stratum: [J] L^g / ((1-L)(1-L^2))."""
    return _unstable_rank2(ctx, Mode.ADIC)


def min_ceiling(r, g):
    """The lowest adic window ceiling the rank-r moduli class accepts, one
    past its dimension: (r^2-1)(g-1)+1, so 3g-2 for m2_chi and 8g-7 for m3_chi."""
    return (r * r - 1) * (g - 1) + 1


def _moduli_class(ctx, r, unstable):
    """Rank-r fixed-determinant moduli class: the bundle stack minus the
    unstable strata.  It is a polynomial supported up to min_ceiling(r, g) - 1;
    that vanishing is re-verified on the whole window, whose ceiling must
    pass it (else the check would see nothing), before returning."""
    _require(ctx, Mode.ADIC)
    need = min_ceiling(r, ctx.g)
    if ctx.window.hi < need:
        raise ValueError("window ceiling %d does not pass the support bound %d "
                         "(needs >= %d)" % (ctx.window.hi, need - 1, need))
    out = bun_chi(ctx, r) - unstable(ctx)
    bad = out.vanishes_above(need - 1)
    if bad is not None:
        raise ArithmeticError(
            "rank-%d moduli class has unexpected support at L^%d" % (r, bad))
    return out


@cached
def m2_chi(ctx) -> MotiveSeries:
    """Rank-2 fixed-determinant moduli class, a polynomial in [0, 3g-3]."""
    return _moduli_class(ctx, 2, unstable_rank2_chi)


def template_blocks(r, g):
    """Blocks (k, exponents) of the rank-r decomposition, r = 2 or 3: every
    k = (k_1 .. k_{r-1}) with sum(k) <= (r-1)(g-1), keeping only k_1 <= g-1
    when sum(k) = (r-1)(g-1), read in (sum(k), k) order.  A block carries
    e = sum_i i k_i and (r^2-1)(g-1) - sum(k) - e; the middle block
    (g-1, .., g-1) carries e once.  At rank 4 the rule is no decomposition."""
    _require_rank(r)
    top, middle = (r - 1) * (g - 1), (g - 1,) * (r - 1)
    blocks = []
    for s in range(top + 1):
        # (k_1 .. k_{r-2}) in increasing order; k_{r-1} is what s leaves
        for head in itertools.product(range(s + 1), repeat=r - 2):
            k = head + (s - sum(head),)
            if s == top and k[0] > g - 1:
                continue
            e = sum(i * ki for i, ki in enumerate(k, 1))
            blocks.append((k, (e,) if k == middle else (e, (r * r - 1) * (g - 1) - s - e)))
    return blocks


@cached
def _template_value(g, blocks):
    """The template over ``blocks`` as an exact value (W, {monomial: int}),
    each int a polynomial in L in W-bit digits, cached by genus for both
    completions.  Row b of [C_k] is l_b (1 + L + .. + L^{k-b}), so along
    each index S(b) = T(b) + L S(b+1), T the suffix sum of the blocks' L
    powers, sums the rows with no product ([C_0] = 1 pads k); rows b > g
    fold by _basis_row.  A digit counts terms of the products, whose total sets W."""
    total = sum(len(exps) * math.prod((k + 1) * (k + 2) // 2 for k in ks) for ks, exps in blocks)
    n = max((len(ks) for ks, _ in blocks), default=0)
    width, grid, value = _width(total), {}, {}
    for ks, exps in blocks:
        k = ks + (0,) * (n - len(ks))
        grid[k] = grid.get(k, 0) + sum(1 << e * width for e in exps)
    for _ in range(n):  # the recursion along the last index, which moves to the front
        lines = {}
        for k, f in grid.items():
            lines.setdefault(k[:-1], {})[k[-1]] = f
        grid = {}
        for rest, line in lines.items():
            t = s = 0
            for b in range(max(line), -1, -1):
                t += line.get(b, 0)
                s = t + (s << width)
                if b <= 2 * g:
                    grid[(b,) + rest] = s
    for b, q in grid.items():
        rows = [_basis_row(g, bi) for bi in b]
        mono = tuple(map(sum, zip(*(m for m, _ in rows))))
        value[mono] = value.get(mono, 0) + (q << sum(o for _, o in rows) * width)
    return width, value


def rank2_decomposition(ctx) -> MotiveSeries:
    """Symmetric-power decomposition of the rank-2 moduli class:
    sum_{k=0}^{g-2} [C_k](L^k + L^{3g-3-2k}) + [C_{g-1}] L^{g-1}."""
    return _value_class(ctx, *_template_value(ctx.g, tuple(template_blocks(2, ctx.g))))


def unstable_rank3_chi(ctx) -> MotiveSeries:
    """Unstable rank-3 strata via the Harder-Narasimhan correction terms,
    in reduced form:

        L^{2g-1}(1+L)/((1-L)(1-L^3)) * [J] Z(C,L)
        - L^{3g-1}/((1-L)^2(1-L^2)^2) * [J]^2

    (_hn_linear and _hn_quadratic).  The rank3 check compares the raw form,
    _unstable_rank3_raw, with the stack minus m3_chi, which is this form."""
    _require(ctx, Mode.ADIC)
    return _hn_linear(ctx) - _hn_quadratic(ctx)


def _unstable_rank3_raw(ctx) -> MotiveSeries:
    """The unstable rank-3 strata as the raw three-term signed sum

        (L^{2g} + L^{2g-1})/(1-L^3) * [J]/(1-L) * Z(C,L)
        - L^{3g-1}/(1-L^2)^2 * ([J]/(1-L))^2

    which unstable_rank3_chi reduces."""
    _require(ctx, Mode.ADIC)
    g = ctx.g
    jac = jacobian_class(ctx)
    jb = jac.div_unit(1)  # [J] * [B Gm]
    lin = (jb.div_unit(3) * _zeta_numerator(ctx, 1)[0]).div_unit(1).div_unit(2)
    quad = (jb * jac).div_unit(1).div_unit(2).div_unit(2).shift(3 * g - 1)
    return lin.shift(2 * g) + lin.shift(2 * g - 1) - quad


@cached
def m3_chi(ctx) -> MotiveSeries:
    """Rank-3 fixed-determinant moduli class, a polynomial in [0, 8g-8]."""
    return _moduli_class(ctx, 3, unstable_rank3_chi)


def rank3_decomposition(ctx) -> MotiveSeries:
    """Symmetric-power decomposition of the rank-3 moduli class."""
    return _value_class(ctx, *_template_value(ctx.g, tuple(template_blocks(3, ctx.g))))


# -- the two intermediate identities behind the rank-3 subtraction ---------


def j_squared_cancellation(ctx):
    """The three series multiplying [J]^2 in the rank-3 subtraction sum to
    zero: the stack contributes L^{3g}/((1-L)(1-L^2)^2(1-L^3)), the linear
    correction -L^{3g-1}(1+L)^2/(same), the quadratic correction
    +L^{3g-1}(1+L+L^2)/(same).  Each source term is also matched against its
    displayed closed form.  Returns [(label, Comparison), ...]."""
    _require(ctx, Mode.ADIC)
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
    _require(ctx, Mode.ADIC)
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
    them), in lexicographic order: one per set of cut points in 1..n-1."""
    if n < 0:
        raise ValueError("compositions need n >= 0, got %d" % n)
    cuts = (c for k in range(n) for c in itertools.combinations(range(1, n), k))
    return sorted(tuple(b - a for a, b in zip((0,) + c, c + (n,))) for c in cuts) or [()]


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


def inversion_sum(ctx, spec: InversionSpec) -> MotiveSeries:
    """I(n,d), the composition-indexed sum for rank n, degree d, less one [J]:

        sum over compositions (n_1..n_s) of n of
        (-1)^{s-1} [J]^{s-1} / (1-L)^{s-1}
        * prod_j prod_{i=1}^{n_j - 1} (1+L^i)^{h1} / ((1-L^i)(1-L^{i+1}))
        * prod_j 1/(1-L^{n_j + n_{j+1}})
        * L^{exponent}.

    Over one common denominator: each composition's signed, shifted finite
    numerator is multiplied by the units 1 - L^i of the lcm of all the
    denominators that its own lacks, and the sum is divided by the lcm once.
    """
    _require(ctx, Mode.ADIC)
    g, jac = ctx.g, jacobian_class(ctx)
    terms, lcm = [], Counter()
    for comp in spec.compositions():
        s = len(comp)
        term = jac ** (s - 1)
        units = Counter({1: s - 1})
        for nj in comp:
            for i in range(1, nj):
                term = term * _zeta_numerator(ctx, i)[0]
                units.update((i, i + 1))
        units.update(comp[j] + comp[j + 1] for j in range(s - 1))
        term = term.shift(inversion_exponent(g, spec, comp))
        terms.append((-term if s % 2 == 0 else term, units))
        lcm |= units
    total = zero(ctx)
    for term, units in terms:
        for i in sorted((lcm - units).elements()):
            term = term - term.shift(i)
        total = total + term
    for i in sorted(lcm.elements()):
        total = total.div_unit(i)
    return total


def inversion_formula(ctx, spec: InversionSpec) -> MotiveSeries:
    """The composition-indexed inversion sum: [J] ``inversion_sum``."""
    return jacobian_class(ctx) * inversion_sum(ctx, spec)


def _product_equals(x, y, m) -> Comparison:
    """(x * y).equals(m), adic, the product built on windows narrowed by
    ``restricted``, doubled until a slot differs (a coefficient at L^e reads
    exponents <= e only), else whole; the range is the product's by its rule."""
    lo, far, top = x.ctx.window.lo, x._product_far(y), max(x._near(), y._near(), 1)
    while top < far:
        xs, ys, ms = (s.restricted(hi=lo + top) for s in (x, y, m))
        if xs._product_far(ys) != top:
            break
        if not (cmp := (xs * ys).equals(ms)):
            return replace(cmp, hi=min(lo + far, m.valid_hi))
        top *= 2
    return (x * y).equals(m)


def inversion_consistency(ctx, r: int, d: int = 1):
    """Compare the inversion sum [J] I(n,d) against the fixed-determinant
    moduli class, and I(n,d) against it, which decides [J] I = [J] M on the
    same range.  Returns [(label, Comparison), ...]; exactly one should hold."""
    _require_rank(r)
    i = inversion_sum(ctx, InversionSpec(r, d))
    m = m2_chi(ctx) if r == 2 else m3_chi(ctx)
    return [("fixed-determinant", _product_equals(jacobian_class(ctx), i, m)),
            ("jacobian-times-fixed-determinant", i.equals(m))]


# -- dimensional-mode pipelines --------------------------------------------


def _rehome(ctx, build, margin, floor):
    """The closed form build(deep), computed in the dimensional context deep
    of ctx with the window floor lo lowered to min(lo, 0) - margin, as a
    series of ctx valid from ``floor`` up.  Narrowing a validity range is
    always sound; a closed form not known down to ``floor`` is an error,
    never a wider claim."""
    w = ctx.window
    closed = build(GenusContext(ctx.g, TruncationWindow(min(w.lo, 0) - margin, w.hi,
                                                        Mode.DIMENSIONAL)))
    if closed.valid_lo > floor:
        raise ArithmeticError(
            "closed form is valid only from L^%d, above the termwise floor L^%d"
            % (closed.valid_lo, floor))
    # the deeper window shares the ceiling, so restricting it to the floor
    # of ctx gives a series of ctx; a sum is valid on the overlap of its
    # terms, so adding zero known from ``floor`` narrows the range
    return closed.restricted(w.lo) + MotiveSeries(ctx, valid_lo=floor)


@cached
def behrend_dhillon_bun(ctx, r: int) -> MotiveSeries:
    """Dimensional-mode bundle-stack class:
    L^{(r^2-1)(g-1)} prod_{i=2}^{r} Z(C, L^{-i}), which is _stack at
    j = i - 1.  It is valid from the floor the product of the termwise zeta
    sums has, and raises where that product raises."""
    _require(ctx, Mode.DIMENSIONAL)
    _require_rank(r)
    # one(ctx) has the validity range and support ceiling of a termwise sum
    # Z(C, L^{-i}) (exact on the window, top term 1 at L^0), so the product
    # rule applied to it gives the floor of the termwise product
    profile = one(ctx)
    for _ in range(3, r + 1):
        profile = profile * one(ctx)
    floor = profile.shift((r * r - 1) * (ctx.g - 1)).valid_lo
    # in the deeper context the numerator keeps its term at L^0 and the
    # divisions keep its floor; the shift then raises the floor by
    # (r^2-1)g, which is r^2-1 more than the termwise shift raises it
    return _rehome(ctx, lambda deep: _stack(deep, r), r * r - 1, floor)


def unstable_rank2_var_closed(ctx) -> MotiveSeries:
    """Closed form of the rank-2 unstable class: [J] L^g / ((L-1)(L^2-1))."""
    return _unstable_rank2(ctx, Mode.DIMENSIONAL)


@cached
def unstable_rank2_var_sum(ctx) -> MotiveSeries:
    """Rank-2 unstable class summed stratum by stratum: the destabilizing
    line subbundle of degree d >= 1 contributes [J] L^{g-2d} / (L-1).

    Terms are added until they fall below the window.  The check
    unstable-rank2-hn-sum compares the result with the closed form."""
    _require(ctx, Mode.DIMENSIONAL)
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


@cached
def m2_var(ctx) -> MotiveSeries:
    """Dimensional-mode rank-2 moduli class: stack minus unstable sum."""
    return behrend_dhillon_bun(ctx, 2) - unstable_rank2_var_sum(ctx)


@cached
def m3_var(ctx) -> MotiveSeries:
    """Dimensional-mode rank-3 moduli class: the stack minus the
    Harder-Narasimhan terms of unstable_rank3_chi, the same rational
    functions re-expanded against the units L^i - 1."""
    _require(ctx, Mode.DIMENSIONAL)
    g = ctx.g
    jac = jacobian_class(ctx)
    # the linear term is valid from the floor it has with the termwise
    # stand-in L^{3(g-1)} Z(C, L^{-2}) for Z(C, L), whose profile is one(ctx)
    # shifted (see behrend_dhillon_bun)
    zrep = one(ctx).shift(3 * (g - 1))
    floor = ((lefschetz_power(ctx, 2 * g) + lefschetz_power(ctx, 2 * g - 1))
             .div_unit(1).div_unit(3) * jac * zrep).valid_lo
    # with the deeper floor at or below -3 no factor is empty, and the term
    # is valid from that floor plus 6g-4 (6g-3 at g = 2), no higher than the
    # termwise one is in ctx
    lin = _rehome(ctx, _hn_linear, 3, floor)
    # the terms come first, the linear one before the quadratic one, so
    # that a narrow window raises what the termwise products raise
    quad = _hn_quadratic(ctx)
    return behrend_dhillon_bun(ctx, 3) - lin + quad


def cross_mode_agreement(x: MotiveSeries, y: MotiveSeries, lo: int, hi: int) -> Comparison:
    """Exact comparison of two series on [lo, hi], int by int of their
    ascending views at one width; the series may come from different modes
    (both must be valid there).  Only the lowest differing slot is decoded,
    for the witness.  An empty range raises ValueError."""
    if lo > hi:
        raise ValueError("no shared validity range to compare on")
    width = max(x.width, y.width)
    (_, mine), (_, theirs) = x._ascending(width, lo, hi), y._ascending(width, lo, hi)
    if mine == theirs:
        return Comparison(True, lo, hi)
    diff = add_into(dict(mine), theirs, -1)
    e = lo + (min(d & -d for d in diff.values()).bit_length() - 1) // width
    return Comparison(False, lo, hi, e, x.coefficient(e) - y.coefficient(e))


def _cross_mode(dim: MotiveSeries, adic: MotiveSeries) -> Comparison:
    """cross_mode_agreement on the range both classes cover from L^0 up."""
    return cross_mode_agreement(dim, adic, max(0, dim.valid_lo),
                                min(dim.valid_hi, adic.valid_hi))


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
