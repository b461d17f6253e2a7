"""Classes attached to the curve itself: symmetric powers, the Jacobian,
and the motivic zeta function with its decomposition identities.

All constructors return exact polynomial classes (full validity range); the
only genuinely infinite objects here are the zeta evaluations at powers of L,
which are exact on the whole window by construction.  The dimensional zeta
decomposition at i is the adic formula at i - 1, so both completions run
one formula; ``_zeta_numerator`` states the numerator of Z(C, L^j) by the
same rule for the moduli pipelines.
"""

from __future__ import annotations

import functools

from .series import Mode, MotiveSeries, _basis_row, _run_class, lambda_class

__all__ = [
    "sym_power_class",
    "jacobian_class",
    "binomial_h1_series",
    "ZetaSeries",
    "zeta_series",
    "zeta_at_lefschetz",
    "dec_zeta_finite_part",
    "dec_zeta_rhs",
    "check_zeta_rationality",
    "check_functional_equation",
    "check_symmetric_power_decomposition",
]


# while open: the classes built so far, keyed by (build, context, arguments)
_cache = {"classes": None}


def open_cache():
    """Open the class cache: each class is built once per context.  The suite
    opens it for one job, one genus's checks; a caller who opens it by hand
    holds every class it builds until ``close_cache``."""
    _cache["classes"] = {}


def close_cache():
    """Close the class cache: until it is opened again, every class is built."""
    _cache["classes"] = None


def cached(build):
    """``build(ctx, ...)``, memoized by (class, context or genus) while the
    class cache is open.  A class is shared as is: nothing changes a MotiveSeries."""
    @functools.wraps(build)
    def wrapper(ctx, *args, **kwargs):
        if _cache["classes"] is None:
            return build(ctx, *args, **kwargs)
        classes, key = _cache["classes"], (build, ctx, args, tuple(sorted(kwargs.items())))
        if key not in classes:
            classes[key] = build(ctx, *args, **kwargs)
        return classes[key]
    return wrapper


def _h1_runs(g, m):
    """Runs of the sum of l_a * L^{m a} over a = 0..2g, one term each."""
    for a in range(0, 2 * g + 1):
        mono, off = _basis_row(g, a)
        yield mono, off + m * a, 1, 1


def _sym_runs(g, k, shift=0):
    """Runs of [C_k] L^shift.  The class is the sum of l_b * L^c over
    b + c <= k: in the canonical basis each row b is a run of ones from
    the L-offset of l_b, and rows b > g share their monomial with row 2g-b."""
    for b in range(0, min(k, 2 * g) + 1):
        mono, off = _basis_row(g, b)
        yield mono, off + shift, k - b + 1, 1


@cached
def sym_power_class(ctx, k: int) -> MotiveSeries:
    """Class of the k-th symmetric power of the curve (k >= 0)."""
    if k < 0:
        raise ValueError("symmetric power index must be >= 0, got %d" % k)
    return _run_class(ctx, _sym_runs(ctx.g, k))


@cached
def jacobian_class(ctx) -> MotiveSeries:
    """Class of the Jacobian: the sum of all exterior powers 0..2g."""
    return _run_class(ctx, _h1_runs(ctx.g, 0))


def binomial_h1_series(ctx, m: int) -> MotiveSeries:
    """The binomial expansion of (1 + L^m) raised to the degree-one
    cohomology: the sum of l_a * L^{m a} over a = 0..2g.  It is the numerator
    of Z(C, L^m); m may be negative (the dimensional numerators)."""
    if m == 0:
        raise ValueError("binomial exponent must be nonzero")
    return _run_class(ctx, _h1_runs(ctx.g, m))


class ZetaSeries:
    """The motivic zeta function as a series in a formal variable t.

    The t^k coefficient is the (exact, untruncated) class of the k-th
    symmetric power; construction refuses windows too narrow to store it
    without loss.
    """

    def __init__(self, ctx, t_max):
        if t_max < 0:
            raise ValueError("t_max must be >= 0, got %d" % t_max)
        w = ctx.window
        if t_max > w.hi or w.lo > 0:
            raise ValueError(
                "window [%d, %d] cannot hold the symmetric powers up to k=%d exactly"
                % (w.lo, w.hi, t_max))
        self.ctx = ctx
        self.t_max = t_max
        self._coeffs = [sym_power_class(ctx, k) for k in range(t_max + 1)]

    def coeff(self, k) -> MotiveSeries:
        if not 0 <= k <= self.t_max:
            raise ValueError("t-degree %d outside [0, %d]" % (k, self.t_max))
        return self._coeffs[k]


def zeta_series(ctx, t_max: int | None = None) -> ZetaSeries:
    """Zeta series with default t-precision 4g."""
    if t_max is None:
        t_max = 4 * ctx.g
    return ZetaSeries(ctx, t_max)


@cached
def zeta_at_lefschetz(ctx, i: int) -> MotiveSeries:
    """Zeta function evaluated at t = L^i, summed termwise across the window.

    In ADIC mode i >= 1 (terms march toward +infinity); in DIMENSIONAL mode
    i <= -2 (terms march toward -infinity; i = -1 would pile up infinitely
    many contributions at a single exponent and is rejected).
    """
    if ctx.mode is Mode.ADIC:
        if i < 1:
            raise ValueError("adic zeta evaluation needs i >= 1, got %d" % i)
    elif i > -2:
        raise ValueError("dimensional zeta evaluation needs i <= -2, got %d" % i)
    w = ctx.window

    def runs():
        # term k, on [ik, ik+k], is added while its end nearest the exact end
        # lies in the window; the span rule truncates or refuses the rest
        k = 0
        while min(w.slot(i * k), w.slot(i * k + k)) <= w.hi - w.lo:
            yield from _sym_runs(ctx.g, k, i * k)
            k += 1
    return _run_class(ctx, runs())


def _adic_index(ctx, i):
    """The index j at which the adic formula gives the decomposition at i:
    j = i in ADIC mode (i >= 1), j = i - 1 in DIMENSIONAL mode (i >= 2)."""
    lag = int(ctx.mode is Mode.DIMENSIONAL)
    if i - lag < 1:
        raise ValueError("%s decomposition needs i >= %d, got %d"
                         % (ctx.mode.value, 1 + lag, i))
    return i - lag


def _zeta_numerator(ctx, j):
    """Z(C, L^j) = L^s N / ((1-L^j)(1-L^{j+1})) as (N, s), j >= 1.  In adic
    mode N = (1+L^j)^{h1} and s = 0.  In dimensional mode the class is
    L^{(2j+1)(g-1)} Z(C, L^{-(j+1)}), the adic formula at j = i - 1, with
    N = sum_a l_a L^{-(j+1)a} and s = (2j+1)g."""
    if ctx.mode is Mode.ADIC:
        return binomial_h1_series(ctx, j), 0
    return binomial_h1_series(ctx, -(j + 1)), (2 * j + 1) * ctx.g


def dec_zeta_finite_part(ctx, i: int) -> MotiveSeries:
    """The two finite blocks of the zeta decomposition at t = L^(+-i), in
    terms of j = i (ADIC, evaluation at L^i) or j = i - 1 (DIMENSIONAL,
    evaluation at L^{-i} scaled by L^{(2i-1)(g-1)}):

        sum_{k=0}^{g-1} [C_k] L^{jk}  +  sum_{k=0}^{g-2} [C_k] L^{(2j+1)(g-1)-(j+1)k}
    """
    g, j = ctx.g, _adic_index(ctx, i)
    out = sym_power_class(ctx, 0)
    for k in range(1, g):
        out = out + sym_power_class(ctx, k).shift(j * k)
    for k in range(0, g - 1):
        out = out + sym_power_class(ctx, k).shift((2 * j + 1) * (g - 1) - (j + 1) * k)
    return out


def dec_zeta_rhs(ctx, i: int) -> MotiveSeries:
    """Finite blocks plus the Jacobian tail [J] L^{jg} / ((1 - L^j)(1 - L^{j+1}))
    of the zeta decomposition, with j as in dec_zeta_finite_part; in
    DIMENSIONAL mode the units are L^j - 1 and L^{j+1} - 1."""
    j = _adic_index(ctx, i)
    return (dec_zeta_finite_part(ctx, i)
            + jacobian_class(ctx).shift(j * ctx.g).div_unit(j).div_unit(j + 1))


# -- identity checks -------------------------------------------------------


def check_zeta_rationality(ctx, t_max: int | None = None):
    """(1-t)(1-Lt) Z(C,t) is a polynomial of t-degree 2g whose t^k
    coefficient is the k-th exterior power.

    Returns [(label, Comparison), ...], one entry per t-degree up to t_max.
    """
    z = zeta_series(ctx, t_max)
    steps = []
    for k in range(0, z.t_max + 1):
        p = z.coeff(k)
        if k >= 1:
            p = p - z.coeff(k - 1) - z.coeff(k - 1).shift(1)
        if k >= 2:
            p = p + z.coeff(k - 2).shift(1)
        want = lambda_class(ctx, k) if k <= 2 * ctx.g else MotiveSeries(ctx)
        steps.append(("t^%d" % k, p.equals(want)))
    return steps


def check_functional_equation(ctx):
    """Numerator symmetry of the zeta function: for every a in 0..2g the
    degree-a exterior power times L^g equals the degree-(2g-a) one times L^a
    (the cleared form of l_a = l_{2g-a} L^{a-g})."""
    g = ctx.g
    steps = []
    for a in range(0, 2 * g + 1):
        lhs = lambda_class(ctx, a).shift(g)
        rhs = lambda_class(ctx, 2 * g - a).shift(a)
        steps.append(("a=%d" % a, lhs.equals(rhs)))
    return steps


def check_symmetric_power_decomposition(ctx, k: int):
    """Symmetric powers at and above the middle decompose against the
    Jacobian: for g <= k <= 2g-2

        [C_k] = [J] (1 + L + ... + L^{k-g}) + [C_{2g-2-k}] L^{k-g+1}

    and for k >= 2g-1 the same without the second term.  Returns a
    Comparison."""
    g = ctx.g
    if k < g:
        raise ValueError("decomposition needs k >= g, got k=%d < g=%d" % (k, g))
    ladder = _run_class(ctx, [((0,) * g, 0, k - g + 1, 1)])  # 1 + L + .. + L^{k-g}
    rhs = jacobian_class(ctx) * ladder
    if k <= 2 * g - 2:
        rhs = rhs + sym_power_class(ctx, 2 * g - 2 - k).shift(k - g + 1)
    return sym_power_class(ctx, k).equals(rhs)
