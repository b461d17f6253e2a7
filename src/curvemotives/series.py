"""Windowed Laurent-series arithmetic over the lambda-class coefficient ring.

The scalars of this package are finite integer combinations of monomials in g
free commuting classes l1, ..., lg: the exterior powers of the degree-one
cohomology of a fixed smooth projective curve of genus g.  A MotiveSeries is a
Laurent polynomial in the Lefschetz class L with such coefficients, truncated
to a finite exponent window.  Two truncation modes exist and never mix:

* ADIC: the tail toward +infinity is discarded.  The window floor is a hard
  support bound, so every Cauchy product is a finite sum and the exactly-known
  exponent range of a product can be computed from the factors.
* DIMENSIONAL: the mirror image.  The window ceiling is the hard support
  bound and tails toward -infinity are discarded.

Exterior powers above the middle degree are rewritten on construction: the
class in degree g+d equals the class in degree g-d times L^d.  Arithmetic
therefore happens entirely in the canonical basis l1..lg, which is closed
under all ring operations.

Every series carries a validity range [valid_lo, valid_hi]: the exponents on
which its stored coefficients are exactly those of the represented class.  In
ADIC mode valid_lo is pinned to the window floor; in DIMENSIONAL mode
valid_hi is pinned to the ceiling.  Multiplication shrinks the free end of
the range using the true-support bound of the other factor, so equality
verdicts (which compare on the overlap of validity ranges) are always sound.
"""

from __future__ import annotations

import enum
import json
import operator
from dataclasses import dataclass

from .polys import add_into, mul_into

__all__ = [
    "Mode",
    "UnitSign",
    "TruncationWindow",
    "GenusContext",
    "CoeffPoly",
    "MotiveSeries",
    "Comparison",
    "zero",
    "one",
    "constant",
    "lefschetz_power",
    "lambda_class",
    "geom_unit_inverse",
    "equals",
]


class Mode(enum.Enum):
    """Which infinite tail a window discards."""

    ADIC = "adic"
    DIMENSIONAL = "dimensional"


class UnitSign(enum.Enum):
    """The two unit shapes with a geometric-series inverse, one per mode."""

    ONE_MINUS_L_I = "1-L^i"
    L_I_MINUS_ONE = "L^i-1"


@dataclass(frozen=True)
class TruncationWindow:
    lo: int
    hi: int
    mode: Mode

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty window: lo=%d > hi=%d" % (self.lo, self.hi))

    def contains(self, e: int) -> bool:
        return self.lo <= e <= self.hi


@dataclass(frozen=True)
class GenusContext:
    """The genus and the shared truncation window of one computation."""

    g: int
    window: TruncationWindow

    def __post_init__(self):
        if self.g < 2:
            raise ValueError("genus must be at least 2, got %d" % self.g)

    @property
    def mode(self) -> Mode:
        return self.window.mode

    @classmethod
    def adic(cls, g: int, hi: int | None = None, lo: int = 0) -> "GenusContext":
        """Context truncating toward +infinity; default window [0, 10g+10]."""
        if hi is None:
            hi = 10 * g + 10
        return cls(g, TruncationWindow(lo, hi, Mode.ADIC))

    @classmethod
    def dimensional(cls, g: int, lo: int | None = None, hi: int | None = None,
                    max_rank: int = 3) -> "GenusContext":
        """Context truncating toward -infinity.

        The default ceiling r^2(g-1) + g (r = max_rank) leaves room for the
        bundle classes of every rank up to max_rank; the default floor
        -(10g+10) mirrors the adic default depth.
        """
        if lo is None:
            lo = -(10 * g + 10)
        if hi is None:
            hi = max_rank * max_rank * (g - 1) + g
        return cls(g, TruncationWindow(lo, hi, Mode.DIMENSIONAL))


def _unit_mono(g):
    return (0,) * g


def _mono_mul(m, n):
    return tuple(map(operator.add, m, n))


def _unit_multiple(terms, unit):
    """n when ``terms`` is the integer n times the unit monomial, else None."""
    return terms[unit] if len(terms) == 1 and unit in terms else None


def _mono_str(mono):
    if not any(mono):
        return "1"
    parts = []
    for i, m in enumerate(mono):
        if m == 1:
            parts.append("l%d" % (i + 1))
        elif m > 1:
            parts.append("l%d^%d" % (i + 1, m))
    return "*".join(parts)


class CoeffPoly:
    """Integer polynomial in the free commuting classes l1..lg.

    ``terms`` maps an exponent vector (m1, ..., mg) -- mi the multiplicity of
    li -- to a nonzero integer.  The all-zero vector is the unit.  Instances
    are treated as immutable.

    The public constructor validates what it is given; the ring operations
    build their results through ``_trusted``, because their monomials are
    already canonical and they never store a zero coefficient.
    """

    __slots__ = ("g", "terms")

    def __init__(self, g, terms=None):
        if g < 1:
            raise ValueError("need at least one class, got g=%d" % g)
        self.g = g
        clean = {}
        if terms:
            for mono, c in terms.items():
                if c == 0:
                    continue
                mono = tuple(mono)
                if len(mono) != g or any(m < 0 for m in mono):
                    raise ValueError("bad monomial %r for genus %d" % (mono, g))
                clean[mono] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, g, terms):
        """Wrap ``terms`` as is: length-g tuples of non-negative ints mapped
        to nonzero ints.  The dict is taken over, not copied."""
        self = object.__new__(cls)
        self.g = g
        self.terms = terms
        return self

    @classmethod
    def zero(cls, g):
        return cls(g)

    @classmethod
    def one(cls, g):
        return cls(g, {_unit_mono(g): 1})

    @classmethod
    def constant(cls, g, n):
        return cls(g, {_unit_mono(g): n})

    @classmethod
    def single(cls, g, mono, c=1):
        """The single term c * l1^m1 ... lg^mg."""
        return cls(g, {tuple(mono): c})

    def _require_same_ring(self, other):
        if self.g != other.g:
            raise ValueError("mixed coefficient rings: g=%d vs g=%d" % (self.g, other.g))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CoeffPoly.constant(self.g, other)
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self.g == other.g and self.terms == other.terms

    def __neg__(self):
        return CoeffPoly._trusted(self.g, {m: -c for m, c in self.terms.items()})

    def _plus(self, other, n):
        """self + n * other for an int or a same-ring CoeffPoly."""
        if isinstance(other, int):
            other = CoeffPoly.constant(self.g, other)
        elif not isinstance(other, CoeffPoly):
            return NotImplemented
        self._require_same_ring(other)
        return CoeffPoly._trusted(self.g, add_into(dict(self.terms), other.terms, n))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (self * -1)._plus(other, 1)

    def __mul__(self, other):
        if isinstance(other, int):
            return CoeffPoly._trusted(self.g, add_into({}, self.terms, other) if other else {})
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        self._require_same_ring(other)
        return CoeffPoly._trusted(self.g, mul_into({}, self.terms, other.terms, _mono_mul))

    __rmul__ = __mul__

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), 0)

    @property
    def constant_term(self):
        """Coefficient of the unit monomial (the pure-Lefschetz part)."""
        return self.terms.get(_unit_mono(self.g), 0)

    def items(self):
        """Terms sorted by exponent vector (graded, low classes first)."""
        return sorted(self.terms.items(), key=lambda mc: (sum(mc[0]), tuple(reversed(mc[0]))))

    def __str__(self):
        if not self.terms:
            return "0"
        out = []
        for mono, c in self.items():
            ms = _mono_str(mono)
            if ms == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = ms
            else:
                body = "%d*%s" % (abs(c), ms)
            if not out:
                out.append(body if c > 0 else "-" + body)
            else:
                out.append(("+ " if c > 0 else "- ") + body)
        return " ".join(out)

    def __repr__(self):
        return "CoeffPoly(g=%d, %s)" % (self.g, self)


@dataclass(frozen=True)
class Comparison:
    """Outcome of a windowed equality test, with the range it covers."""

    equal: bool
    lo: int
    hi: int
    witness_exponent: int | None = None
    witness_delta: CoeffPoly | None = None

    def __bool__(self):
        return self.equal


class MotiveSeries:
    """A window-truncated Laurent polynomial in L over CoeffPoly scalars.

    ``coeffs`` maps an L-exponent to a nonzero CoeffPoly.  Stored keys always
    lie inside the validity range.  Constructing with support on the exact
    side of the window (below the floor in ADIC mode, above the ceiling in
    DIMENSIONAL mode) is an error -- that side is a hard support bound, not a
    truncation -- while support beyond the truncated side is discarded, which
    is what truncation means.

    As with CoeffPoly, only the public constructor validates; the ring
    operations build their results through ``_trusted``.
    """

    __slots__ = ("ctx", "coeffs", "valid_lo", "valid_hi")

    def __init__(self, ctx, coeffs=None, valid_lo=None, valid_hi=None):
        w = ctx.window
        if valid_lo is None:
            valid_lo = w.lo
        if valid_hi is None:
            valid_hi = w.hi
        valid_lo = max(valid_lo, w.lo)
        valid_hi = min(valid_hi, w.hi)
        if ctx.mode is Mode.ADIC:
            valid_lo = w.lo
        else:
            valid_hi = w.hi
        if valid_lo > valid_hi:
            raise ValueError("series with empty validity range")
        store = {}
        if coeffs:
            for e, p in coeffs.items():
                if isinstance(p, int):
                    p = CoeffPoly.constant(ctx.g, p)
                if p.g != ctx.g:
                    raise ValueError("coefficient over g=%d in a g=%d context" % (p.g, ctx.g))
                if not p:
                    continue
                if ctx.mode is Mode.ADIC:
                    if e < w.lo:
                        raise ValueError(
                            "support at L^%d below the adic window floor %d" % (e, w.lo))
                    if e > valid_hi:
                        continue
                else:
                    if e > w.hi:
                        raise ValueError(
                            "support at L^%d above the dimensional ceiling %d" % (e, w.hi))
                    if e < valid_lo:
                        continue
                store[e] = p
        self.ctx = ctx
        self.coeffs = store
        self.valid_lo = valid_lo
        self.valid_hi = valid_hi

    @classmethod
    def _trusted(cls, ctx, coeffs, valid_lo, valid_hi):
        """Wrap ``coeffs`` as is: nonzero CoeffPolys of genus ctx.g on keys
        inside [valid_lo, valid_hi], a range the window mode allows.  The
        dict is taken over, not copied."""
        self = object.__new__(cls)
        self.ctx = ctx
        self.coeffs = coeffs
        self.valid_lo = valid_lo
        self.valid_hi = valid_hi
        return self

    # -- bookkeeping -------------------------------------------------------

    @property
    def g(self):
        return self.ctx.g

    @property
    def mode(self):
        return self.ctx.mode

    def _require_same_ctx(self, other):
        if self.ctx != other.ctx:
            raise ValueError("series from different contexts cannot be combined")

    def _support_floor(self):
        # ADIC: exact lower bound of the true support.  A series that is zero
        # on its whole validity range can hide support only above it.
        if self.coeffs:
            return min(self.coeffs)
        return self.valid_hi + 1

    def _support_ceiling(self):
        if self.coeffs:
            return max(self.coeffs)
        return self.valid_lo - 1

    def coefficient(self, e):
        """Exact coefficient of L^e; e must lie in the validity range."""
        if e < self.valid_lo or e > self.valid_hi:
            raise ValueError(
                "L^%d is outside the validity range [%d, %d]" % (e, self.valid_lo, self.valid_hi))
        return self.coeffs.get(e, CoeffPoly.zero(self.g))

    def coefficient_table(self, lo, hi):
        """Exact coefficients on [lo, hi] as {exponent: CoeffPoly}, zeros omitted."""
        if lo < self.valid_lo or hi > self.valid_hi:
            raise ValueError("[%d, %d] is not inside the validity range [%d, %d]"
                             % (lo, hi, self.valid_lo, self.valid_hi))
        return {e: p for e, p in self.coeffs.items() if lo <= e <= hi}

    def items(self):
        return sorted(self.coeffs.items())

    def vanishes_above(self, bound):
        """First exponent > bound (within validity) with a nonzero coefficient, or None."""
        bad = [e for e in self.coeffs if e > bound]
        return min(bad) if bad else None

    def validate(self):
        """Assert the representation invariants; used by property tests."""
        w = self.ctx.window
        assert w.lo <= self.valid_lo <= self.valid_hi <= w.hi
        if self.mode is Mode.ADIC:
            assert self.valid_lo == w.lo
        else:
            assert self.valid_hi == w.hi
        for e, p in self.coeffs.items():
            assert self.valid_lo <= e <= self.valid_hi
            assert isinstance(p, CoeffPoly) and p.g == self.g and p
            for mono, c in p.terms.items():
                assert len(mono) == self.g and all(m >= 0 for m in mono) and c != 0
        return True

    # -- ring operations ---------------------------------------------------

    def _plus(self, other, n):
        """self + n * other on the overlap of the validity ranges."""
        if isinstance(other, int):
            other = constant(self.ctx, other)
        if not isinstance(other, MotiveSeries):
            return NotImplemented
        self._require_same_ctx(other)
        vlo = max(self.valid_lo, other.valid_lo)
        vhi = min(self.valid_hi, other.valid_hi)
        if vlo > vhi:
            raise ValueError("sum has empty validity range")
        g, acc = self.g, {e: p for e, p in self.coeffs.items() if vlo <= e <= vhi}
        for e, p in other.coeffs.items():
            if e < vlo or e > vhi:
                continue
            q = acc.get(e)
            if q is None and n == 1:
                acc[e] = p
                continue
            row = add_into({} if q is None else dict(q.terms), p.terms, n)
            if row:
                acc[e] = CoeffPoly._trusted(g, row)
            else:
                del acc[e]
        return MotiveSeries._trusted(self.ctx, acc, vlo, vhi)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MotiveSeries._trusted(self.ctx, {e: -p for e, p in self.coeffs.items()},
                                     self.valid_lo, self.valid_hi)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (self * -1)._plus(other, 1)

    def __mul__(self, other):
        if isinstance(other, int):
            coeffs = {e: p * other for e, p in self.coeffs.items()} if other else {}
            return MotiveSeries._trusted(self.ctx, coeffs, self.valid_lo, self.valid_hi)
        if not isinstance(other, MotiveSeries):
            return NotImplemented
        self._require_same_ctx(other)
        w = self.ctx.window
        if self.mode is Mode.ADIC:
            fx, fy = self._support_floor(), other._support_floor()
            if self.coeffs and other.coeffs and fx + fy < w.lo:
                raise ValueError("product support would start below the window floor")
            vlo = w.lo
            vhi = min(w.hi, self.valid_hi + fy, other.valid_hi + fx)
        else:
            cx, cy = self._support_ceiling(), other._support_ceiling()
            if self.coeffs and other.coeffs and cx + cy > w.hi:
                raise ValueError("product support would pass the window ceiling")
            vlo = max(w.lo, self.valid_lo + cy, other.valid_lo + cx)
            vhi = w.hi
        if vlo > vhi:
            raise ValueError("product has empty validity range (window too narrow)")
        # Each output exponent accumulates into one raw {monomial: int} row.
        # A coefficient n*1 adds n times the other one's terms.
        g, unit = self.g, _unit_mono(self.g)
        ys = [(e2, p2.terms, _unit_multiple(p2.terms, unit))
              for e2, p2 in other.coeffs.items()]
        rows = {}
        for e1, p1 in self.coeffs.items():
            t1 = p1.terms
            n1 = _unit_multiple(t1, unit)
            for e2, t2, n2 in ys:
                e = e1 + e2
                if e < vlo or e > vhi:
                    continue
                row = rows.get(e)
                if row is None:
                    row = rows[e] = {}
                if n1 is not None:
                    add_into(row, t2, n1)
                elif n2 is not None:
                    add_into(row, t1, n2)
                else:
                    mul_into(row, t1, t2, _mono_mul)
        coeffs = {e: CoeffPoly._trusted(g, row) for e, row in rows.items() if row}
        return MotiveSeries._trusted(self.ctx, coeffs, vlo, vhi)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are defined")
        out = one(self.ctx)
        for _ in range(n):
            out = out * self
        return out

    def shift(self, e):
        """Multiply by L^e: shift all exponents and the validity range."""
        w = self.ctx.window
        if self.mode is Mode.ADIC:
            if self.coeffs and min(self.coeffs) + e < w.lo:
                raise ValueError("shift pushes support below the window floor")
            vlo = w.lo
            vhi = min(w.hi, self.valid_hi + e)
            if vhi < vlo:
                raise ValueError("shift leaves an empty validity range")
        else:
            if self.coeffs and max(self.coeffs) + e > w.hi:
                raise ValueError("shift pushes support above the window ceiling")
            vlo = max(w.lo, self.valid_lo + e)
            vhi = w.hi
            if vlo > vhi:
                raise ValueError("shift leaves an empty validity range")
        acc = {k + e: p for k, p in self.coeffs.items() if vlo <= k + e <= vhi}
        return MotiveSeries._trusted(self.ctx, acc, vlo, vhi)

    def div_unit(self, i):
        """Divide by 1 - L^i (adic) or L^i - 1 (dimensional) as a running sum.

        ADIC: out[e] = x[e] + out[e-i].  DIMENSIONAL: out[e] = x[e+i] +
        out[e+i].  The result, its validity range and any error are exactly
        those of ``self * geom_unit_inverse(ctx, i, sign)``, without
        materializing the geometric series."""
        if i < 1:
            raise ValueError("unit exponent must be positive, got i=%d" % i)
        w = self.ctx.window
        # The ranges below are those of the product with the inverse, whose
        # support is 0, i, 2i, .. (adic) or -i, -2i, .. (dimensional) and
        # whose validity range is the whole window.
        if self.mode is Mode.ADIC:
            if w.lo > 0:
                raise ValueError("support at L^0 below the adic window floor %d" % w.lo)
            fx = self._support_floor()
            fy = 0 if w.hi >= 0 else w.hi + 1
            vlo, vhi = w.lo, min(w.hi, self.valid_hi + fy, w.hi + fx)
            steps, src, back = range(fx, vhi + 1), 0, -i
        else:
            if -i > w.hi:
                raise ValueError(
                    "support at L^%d above the dimensional ceiling %d" % (-i, w.hi))
            cx = self._support_ceiling()
            cy = -i if -i >= w.lo else w.lo - 1
            vlo, vhi = max(w.lo, self.valid_lo + cy, w.lo + cx), w.hi
            steps, src, back = range(cx - i, vlo - 1, -1), i, i
        if vlo > vhi:
            raise ValueError("product has empty validity range (window too narrow)")
        g, coeffs, acc = self.g, self.coeffs, {}
        for e in steps:  # out[e] = x[e + src] + out[e + back]
            here = coeffs.get(e + src)
            prev = acc.get(e + back)
            if prev is None:
                if here is not None:
                    acc[e] = here
            elif here is None:
                acc[e] = prev
            else:
                s = add_into(dict(prev.terms), here.terms)
                if s:  # a missing key reads as zero in later steps
                    acc[e] = CoeffPoly._trusted(g, s)
        return MotiveSeries._trusted(self.ctx, acc, vlo, vhi)

    def restricted(self, lo=None, hi=None):
        """Re-truncate to a narrower window.  Only the truncated side may move."""
        w = self.ctx.window
        lo = w.lo if lo is None else lo
        hi = w.hi if hi is None else hi
        if self.mode is Mode.ADIC:
            if lo != w.lo or hi > w.hi:
                raise ValueError("an adic window may only shrink from above")
        else:
            if hi != w.hi or lo < w.lo:
                raise ValueError("a dimensional window may only shrink from below")
        ctx2 = GenusContext(self.g, TruncationWindow(lo, hi, self.mode))
        return MotiveSeries(ctx2, {e: p for e, p in self.coeffs.items() if lo <= e <= hi},
                            max(self.valid_lo, lo), min(self.valid_hi, hi))

    # -- comparison and serialization -------------------------------------

    def equals(self, other):
        """Exact comparison on the overlap of the validity ranges.

        Returns a Comparison carrying the compared range and, on failure, the
        smallest differing exponent with the coefficient difference.  An
        empty overlap raises: nothing would have been verified.
        """
        if isinstance(other, int):
            other = constant(self.ctx, other)
        if self.g != other.g or self.mode is not other.mode:
            raise ValueError("cannot compare series over different genus or mode")
        lo = max(self.valid_lo, other.valid_lo)
        hi = min(self.valid_hi, other.valid_hi)
        if lo > hi:
            raise ValueError("no shared validity range to compare on")
        zero = CoeffPoly.zero(self.g)
        for e in sorted(set(self.coeffs) | set(other.coeffs)):
            if e < lo or e > hi:
                continue
            mine = self.coeffs.get(e, zero)
            theirs = other.coeffs.get(e, zero)
            if mine != theirs:
                return Comparison(False, lo, hi, e, mine - theirs)
        return Comparison(True, lo, hi)

    def __eq__(self, other):
        if not isinstance(other, MotiveSeries):
            return NotImplemented
        return (self.ctx == other.ctx and self.coeffs == other.coeffs
                and self.valid_lo == other.valid_lo and self.valid_hi == other.valid_hi)

    def to_json_obj(self):
        """Canonical JSON-ready form: sorted exponents, sorted monomials,
        coefficients as decimal strings (arbitrary precision survives)."""
        w = self.ctx.window
        return {
            "genus": self.g,
            "mode": self.mode.value,
            "window": [w.lo, w.hi],
            "valid": [self.valid_lo, self.valid_hi],
            "terms": [
                [e, [[list(m), str(c)] for m, c in self.coeffs[e].items()]]
                for e in sorted(self.coeffs)
            ],
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, p in self.items():
            body = str(p)
            if len(p.terms) > 1:
                body = "(%s)" % body
            if e == 0:
                parts.append(body)
            elif e == 1:
                parts.append("1*L" if body == "1" else body + "*L")
            else:
                parts.append(("L^%d" % e) if body == "1" else "%s*L^%d" % (body, e))
        return " + ".join(parts)

    def __repr__(self):
        body = str(self)
        if len(body) > 120:
            body = body[:117] + "..."
        w = self.ctx.window
        return "MotiveSeries(g=%d, %s[%d..%d], %s)" % (self.g, self.mode.value, w.lo, w.hi, body)


# -- constructors ----------------------------------------------------------


def zero(ctx) -> MotiveSeries:
    return MotiveSeries(ctx)


def one(ctx) -> MotiveSeries:
    return constant(ctx, 1)


def constant(ctx, n: int) -> MotiveSeries:
    return MotiveSeries(ctx, {0: CoeffPoly.constant(ctx.g, n)} if n else {})


def lefschetz_power(ctx, e: int) -> MotiveSeries:
    """The class L^e.  The exponent must lie inside the window."""
    if not ctx.window.contains(e):
        raise ValueError("exponent %d outside the window [%d, %d]"
                         % (e, ctx.window.lo, ctx.window.hi))
    return MotiveSeries(ctx, {e: CoeffPoly.one(ctx.g)})

def lambda_class(ctx, a: int) -> MotiveSeries:
    """The a-th exterior power of the degree-one cohomology, 0 <= a <= 2g.

    Indices above g are rewritten on the spot: the degree-(g+d) class equals
    the degree-(g-d) class times L^d.
    """
    g = ctx.g
    if a < 0 or a > 2 * g:
        raise ValueError("exterior power index %d outside [0, %d]" % (a, 2 * g))
    if a <= g:
        b, e = a, 0
    else:
        b, e = 2 * g - a, a - g
    mono = tuple(1 if i == b - 1 else 0 for i in range(g))
    return MotiveSeries(ctx, {e: CoeffPoly.single(g, mono)})


def geom_unit_inverse(ctx, i: int, sign: UnitSign) -> MotiveSeries:
    """Geometric-series inverse of 1 - L^i (adic) or L^i - 1 (dimensional).

    Each mode admits exactly one of the two unit shapes: the expansion must
    run in the direction the window truncates.  i must be positive.
    """
    if i < 1:
        raise ValueError("unit exponent must be positive, got i=%d" % i)
    w = ctx.window
    g = ctx.g
    if ctx.mode is Mode.ADIC:
        if sign is not UnitSign.ONE_MINUS_L_I:
            raise ValueError("adic mode inverts only units of the form 1 - L^i")
        coeffs = {e: CoeffPoly.one(g) for e in range(0, w.hi + 1, i)}
    else:
        if sign is not UnitSign.L_I_MINUS_ONE:
            raise ValueError("dimensional mode inverts only units of the form L^i - 1")
        coeffs = {e: CoeffPoly.one(g) for e in range(-i, w.lo - 1, -i)}
    return MotiveSeries(ctx, coeffs)


def equals(x: MotiveSeries, y) -> Comparison:
    """Windowed equality of two series; see MotiveSeries.equals."""
    return x.equals(y)
