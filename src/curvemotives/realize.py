"""Numeric realizations of polynomial motive classes.

Three ring homomorphisms out of the lambda-basis:

* Poincare:  lambda^a -> C(2g, a) t^a,  L -> t^2  (univariate integer poly);
* Hodge:     lambda^a -> sum_i C(g, i) C(g, a-i) u^i v^{a-i},  L -> u v
  (bivariate integer poly);
* counting:  lambda^a -> the a-th elementary symmetric function of the
  negated Frobenius eigenvalues,  L -> q  (an integer).

The counting images are recovered from a short list of point counts
N_1..N_g over F_q, .., F_{q^g} by Newton's identities; the remaining
images follow from the functional-equation rule e_{g+d} = q^d e_{g-d}.
Nothing here is approximate: intermediate rationals must clear to integers
or the constructor refuses the data.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt, prod

from .polys import IntPoly, IntPoly2
from .series import Mode, _digits, _width

__all__ = [
    "CountingData",
    "POINCARE",
    "HODGE",
    "realize",
    "newstead_oracle",
    "sym_count_oracle",
    "count_cross_check",
    "genus2_fixture_counts",
]


def _is_prime_power(q):
    """True when q >= 2 is a power of its smallest prime factor."""
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    while q % p == 0:
        q //= p
    return q == 1


class CountingData:
    """Point counts of a genus-g curve over F_q, F_{q^2}, .., F_{q^g},
    digested into the counting images of the lambda classes.

    lambda_count(a) is the trace of Frobenius on the weight-a piece of the
    Jacobian, with the sign convention that makes counting a ring
    homomorphism (the class of the curve itself counts as
    1 + lambda_count(1) + q = N_1).
    """

    def __init__(self, q, counts):
        if not isinstance(q, int) or q < 2 or not _is_prime_power(q):
            raise ValueError("q must be a prime power >= 2, got %r" % (q,))
        counts = list(counts)
        if not counts:
            raise ValueError("need at least one point count")
        if any(not isinstance(n, int) or n < 0 for n in counts):
            raise ValueError("point counts must be nonnegative integers")
        self.q = q
        self.counts = counts
        self.g = len(counts)
        g, lam = self.g, [1]
        # Newton's identities on the negated eigenvalues; their j-th power
        # sum is (-1)^j (q^j + 1 - N_j)
        signed = [0] + [(-1) ** j * (q ** j + 1 - counts[j - 1])
                        for j in range(1, g + 1)]
        for a in range(1, g + 1):
            acc = Fraction(0)
            for i in range(1, a + 1):
                acc += (-1) ** (i - 1) * lam[a - i] * signed[i]
            e = acc / a
            if e.denominator != 1:
                raise ArithmeticError(
                    "counts %r over q=%d are not the counts of a curve "
                    "(non-integral class at weight %d)" % (counts, q, a))
            lam.append(int(e))
        for delta in range(1, g + 1):
            lam.append(q ** delta * lam[g - delta])
        self._lam = lam           # lambda_count(0..2g)
        self._psums = [0] + signed[1:]  # power sums of the negated eigenvalues

    @classmethod
    def from_json(cls, obj):
        return cls(obj["q"], obj["counts"])

    def lambda_count(self, a):
        if a < 0:
            raise ValueError("weight must be nonnegative, got %d" % a)
        if a > 2 * self.g:
            return 0
        return self._lam[a]

    def _power_sum(self, j):
        """j-th power sum of the negated eigenvalues, extended past g by the
        characteristic-polynomial recurrence."""
        twog = 2 * self.g
        while len(self._psums) <= j:
            m = len(self._psums)
            acc = 0
            for i in range(1, min(m, twog) + 1):
                acc += (-1) ** (i - 1) * self._lam[i] * self._psums[m - i]
            if m <= twog:
                acc += (-1) ** (m - 1) * m * self._lam[m]
            self._psums.append(acc)
        return self._psums[j]

    def frobenius_count(self, j):
        """Number of points over F_{q^j}, for any j >= 1."""
        if j < 1:
            raise ValueError("field extension degree must be >= 1, got %d" % j)
        return self.q ** j + 1 - (-1) ** j * self._power_sum(j)


POINCARE = "poincare"
HODGE = "hodge"


def realize(series, target):
    """Apply the target homomorphism, POINCARE, HODGE or the counting
    realization of a CountingData, to a polynomial class, straight from its
    packed ints: v_m, the int of a lambda-monomial m of degree d, holds
    L^(e0+j) in slot j of W bits (``MotiveSeries._ascending``).  W is the
    width of the class's bound times sum |img_m|, img_m the image of m at
    u = v = t = 1, so it holds every output coefficient, which takes at most
    one term of each monomial.  A count decodes sum img_m v_m and evaluates
    it at L = q; POINCARE (L = t^2) decodes sum img_m v_m << (d // 2) W per
    parity of d; HODGE adds img_(m,i) v_m << i W, img_(m,i) the coefficient
    of u^i v^(d-i), into diagonal d - 2i for each i <= d/2 and decodes each
    diagonal once into h^(p,p+d-2i), p = e0 + slot.  The images of lambda_a
    and of L = uv are symmetric in u and v, so h^(p+d-2i,p) is the same
    number.  The zero class realizes to the int 0.  Coefficients are taken
    at face value, so only feed this genuinely polynomial classes (moduli
    classes, symmetric powers, the Jacobian); a negative exponent is refused
    with ValueError, and so is a dimensional class valid only from L^e,
    e > 0, as its coefficients below L^e are unknown."""
    if series.mode is Mode.DIMENSIONAL and series.valid_lo > 0:
        raise ValueError("realization needs the class from L^0 up; this dimensional "
                         "class is valid only from L^%d" % series.valid_lo)
    g, count, ks = series.g, isinstance(target, CountingData), range(1, series.g + 1)
    if count:
        if target.g != g:
            raise ValueError("point-count data is for genus %d, class has genus %d" % (target.g, g))
        lam = [target.lambda_count(a) for a in ks]
    elif target in (POINCARE, HODGE):
        lam = [comb(2 * g, a) for a in ks]
    else:
        raise ValueError("unknown realization target %r" % (target,))
    if not series.packed:
        return 0
    rows = [(m, sum(map(int.__mul__, ks, m)), prod(map(pow, lam, m))) for m in series.packed]
    width = _width(series.bound * (sum(abs(img) for _, _, img in rows) or 1))
    e0, packed = series._ascending(width)
    if e0 < 0:
        raise ValueError("realization needs nonnegative exponents, got L^%d" % e0)
    sums = {}  # (diagonal, slots to shift): a weighted sum of the monomials' ints
    if target == HODGE:
        cg, hodge = [comb(g, i) for i in range(g + 1)], None
        for m, d, _ in rows:
            if sum(m) <= 1:  # 1 or lambda_d itself
                cs = [cg[i] * cg[d - i] for i in range(d // 2 + 1)]
            else:  # a product of the images of lambda_a, u^i in slot i
                hodge = hodge or [sum(cg[i] * cg[a - i] << i * width for i in range(a + 1))
                                  for a in ks]
                cs = _digits(prod(map(pow, hodge, m)), width, d + 1)[:d // 2 + 1]
            for i, c in enumerate(cs):
                sums[d - 2 * i, i] = sums.get((d - 2 * i, i), 0) + c * packed[m]
    else:
        for m, d, img in rows:
            key = (d % 2, d // 2) if target == POINCARE else (0, 0)
            sums[key] = sums.get(key, 0) + img * packed[m]
    diagonals = {}
    for (delta, i), v in sums.items():
        diagonals[delta] = diagonals.get(delta, 0) + (v << i * width)
    out = [(delta, p, c) for delta, v in diagonals.items()
           for p, c in enumerate(_digits(v, width, abs(v).bit_length() // width + 1), e0) if c]
    if count:
        return sum(c * target.q ** p for _, p, c in out)
    if target == POINCARE:
        return IntPoly._trusted({2 * p + delta: c for delta, p, c in out})
    terms = {}
    for delta, p, c in out:
        terms[p, p + delta] = terms[p + delta, p] = c
    return IntPoly2._trusted(terms)


def newstead_oracle(g: int) -> IntPoly:
    """Independent Poincare polynomial of the rank-2 odd-determinant moduli
    space:  ((1+t^3)^{2g} - t^{2g} (1+t)^{2g}) / ((1-t^2)(1-t^4))."""
    if g < 2:
        raise ValueError("genus must be >= 2, got %d" % g)
    t = IntPoly.x
    numer = (1 + t(3)) ** (2 * g) - t(2 * g) * (1 + t(1)) ** (2 * g)
    return numer.exact_div((1 - t(2)) * (1 - t(4)))


def sym_count_oracle(data: CountingData, m: int) -> int:
    """Number of degree-m effective divisors (points of the m-th symmetric
    power), from the point counts alone:  m z_m = sum_j N_j z_{m-j}."""
    if m < 0:
        raise ValueError("symmetric power index must be >= 0, got %d" % m)
    z = [Fraction(1)]
    for k in range(1, m + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += data.frobenius_count(j) * z[k - j]
        zk = acc / k
        if zk.denominator != 1:
            raise ArithmeticError("non-integral symmetric-power count at m=%d" % k)
        z.append(zk)
    return int(z[m])


def count_cross_check(ctx, data: CountingData, k_max=None):
    """Counting realization of each symmetric-power class against the
    divisor-count recurrence.  Returns [(k, realized, expected), ...]."""
    from .curves import sym_power_class

    if ctx.g != data.g:
        raise ValueError("context genus %d does not match data genus %d"
                         % (ctx.g, data.g))
    if k_max is None:
        k_max = 2 * ctx.g
    rows = []
    for k in range(0, k_max + 1):
        got = realize(sym_power_class(ctx, k), data)
        rows.append((k, got, sym_count_oracle(data, k)))
    return rows


def genus2_fixture_counts():
    """Brute-force point counts of y^2 = x^5 - x over F_3 and F_9
    (including the single point at infinity).  Returns a CountingData."""
    n1 = 1
    for x in range(3):
        for y in range(3):
            if (y * y - (x ** 5 - x)) % 3 == 0:
                n1 += 1
    # F_9 = F_3[s]/(s^2 + 1), elements (a, b) standing for a + b s
    def mul(u, v):
        return ((u[0] * v[0] - u[1] * v[1]) % 3, (u[0] * v[1] + u[1] * v[0]) % 3)

    def sub(u, v):
        return ((u[0] - v[0]) % 3, (u[1] - v[1]) % 3)

    elems = [(a, b) for a in range(3) for b in range(3)]
    n2 = 1
    for x in elems:
        x5 = x
        for _ in range(4):
            x5 = mul(x5, x)
        rhs = sub(x5, x)
        for y in elems:
            if mul(y, y) == rhs:
                n2 += 1
    return CountingData(3, [n1, n2])
