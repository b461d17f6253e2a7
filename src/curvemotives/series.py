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

A window [lo, hi] is read in slots from its exact end: slot s is L^(lo+s)
in ADIC mode and L^(hi-s) in DIMENSIONAL mode (``TruncationWindow.slot``),
so the two modes share every rule below.  A series is exact on the slots
0 .. far, one number: the exact end is always pinned, and ``valid_lo`` and
``valid_hi`` are derived from it.  A product, a shift and a division by a
unit move ``far`` in from the free end using the lowest occupied slot of
the other factor, so equality verdicts (which compare on the overlap of
validity ranges) are always sound.

A series is stored Kronecker-packed, one Python int per lambda-monomial.
The int holds that monomial's Laurent polynomial in L in slots of W bits,
slots 0 .. far only.  Digits are balanced: a slot holds a signed
coefficient c with |c| < 2^(W-1), and the int is the plain sum of
c * 2^(sW), so a negative coefficient borrows one from the slot above.
Then a product is one big-int product per pair of monomials, a sum one int
sum per monomial, shift a bit shift, the cut to a validity range a mask
with a sign fix (or a right shift with a borrow fix), and a division by a
unit one exact integer division per monomial.

The slot width is never fixed.  Each series carries a proven bound on the
absolute value of its coefficients, and W is the smallest multiple of 24
that holds the bound and a sign bit: whole bytes, so that digits split and
repack through bytes, and narrow, because a product costs more per bit of
its factors.  Each operation derives the bound of its result before any
arithmetic: B_x + |n| B_y for x + n y, B_x B_y min(T_x, T_y) for a product,
with T the number of slots each monomial spans summed over the monomials
(no output coefficient sums more pairs of terms than either factor has
terms), and B ceil(n/i) for a division by a unit over n output slots.  An
operand whose slots are narrower than the result's is repacked first.

CoeffPoly stays the public coefficient type: ``coeffs``, ``coefficient``,
``items``, the witnesses of ``equals`` and the JSON form decode the packed
ints on demand.
"""

from __future__ import annotations

import enum
import json
import operator
from dataclasses import dataclass

from .polys import (add_into, format_terms, mul_into, ring_add, ring_bool, ring_eq, ring_mul,
                    ring_neg, ring_rsub, ring_sub)

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

    def slot(self, e: int) -> int:
        """How far L^e lies in from the exact end: the floor (adic) or the
        ceiling (dimensional).  Negative beyond it."""
        return e - self.lo if self.mode is Mode.ADIC else self.hi - e

    def exponent(self, s: int) -> int:
        """The exponent of slot s; the inverse of ``slot``."""
        return self.lo + s if self.mode is Mode.ADIC else self.hi - s


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
    def dimensional(cls, g: int, lo: int | None = None, hi: int | None = None) -> "GenusContext":
        """Context truncating toward -infinity.

        The default ceiling 9(g-1) + g leaves room for the bundle classes of
        ranks 2 and 3; the default floor -(10g+10) mirrors the adic default
        depth.
        """
        if lo is None:
            lo = -(10 * g + 10)
        if hi is None:
            hi = 9 * (g - 1) + g
        return cls(g, TruncationWindow(lo, hi, Mode.DIMENSIONAL))


def _mono_mul(m, n):
    return tuple(map(operator.add, m, n))


# -- balanced-digit packing ------------------------------------------------


def _width(bound):
    """Slot width for coefficients of absolute value at most ``bound``."""
    return -(-(bound.bit_length() + 1) // 24) * 24


def _fill(value, nbytes, n):
    """The int holding ``value`` in each of n slots of ``nbytes`` bytes."""
    return int.from_bytes(value.to_bytes(nbytes, "little") * n, "little")


def _digits(v, width, n):
    """The n balanced digits of v, lowest slot first.  Adding half a slot to
    every digit makes them all non-negative, so the bytes split cleanly."""
    k, half = width // 8, 1 << (width - 1)
    raw = (v + _fill(half, k, n)).to_bytes(n * k, "little")
    return [int.from_bytes(raw[j:j + k], "little") - half for j in range(0, n * k, k)]


def _pack(digits, width):
    """The int of the balanced digits {slot: digit}; inverse of _digits.
    Each digit is written in two's complement, and a negative one then
    takes its borrow from the slot above."""
    k, mask = width // 8, (1 << width) - 1
    size = (max(digits) + 2) * k
    raw, borrow = bytearray(size), bytearray(size)
    for s, d in digits.items():
        raw[s * k:s * k + k] = (d & mask).to_bytes(k, "little")
        if d < 0:
            borrow[s * k + k] = 1
    return int.from_bytes(raw, "little") - int.from_bytes(borrow, "little")


def _repack(packed, width, new_width, n):
    """The ints of ``packed``, of n slots each, with every digit moved into
    a slot of ``new_width`` bits (new_width > width)."""
    k, k2, half = width // 8, new_width // 8, 1 << (width - 1)
    lift, lower = _fill(half, k, n), _fill(half, k2, n)
    out = {}
    for m, v in packed.items():
        src, dst = (v + lift).to_bytes(n * k, "little"), bytearray(n * k2)
        for j in range(k):
            dst[j::k2] = src[j::k]
        out[m] = int.from_bytes(dst, "little") - lower
    return out


def _cut(v, bits):
    """The slots of v below bit ``bits`` (a slot boundary), read as
    balanced digits: a mask, less 2^bits when the top kept digit is
    negative."""
    r = v & ((1 << bits) - 1)
    return r - (1 << bits) if r >> (bits - 1) else r


def _drop(v, bits):
    """The slots of v from bit ``bits`` (a slot boundary) up: a right shift,
    plus the one the dropped digits borrowed if they are negative."""
    return (v >> bits) + ((v >> (bits - 1)) & 1) if bits else v


# The texts of the errors for support pushed past the exact end, per mode.
_PAST_EXACT_END = {
    Mode.ADIC: {"support": "support at L^%d below the adic window floor %d",
                "product": "product support would start below the window floor",
                "shift": "shift pushes support below the window floor"},
    Mode.DIMENSIONAL: {"support": "support at L^%d above the dimensional ceiling %d",
                       "product": "product support would pass the window ceiling",
                       "shift": "shift pushes support above the window ceiling"},
}


def _exact_end_error(ctx, e):
    """The error for support at L^e beyond the exact end of the window."""
    return ValueError(_PAST_EXACT_END[ctx.mode]["support"] % (e, ctx.window.exponent(0)))


class CoeffPoly:
    """Integer polynomial in the free commuting classes l1..lg.

    ``terms`` maps an exponent vector (m1, ..., mg) -- mi the multiplicity of
    li -- to a nonzero integer.  The all-zero vector is the unit.  Instances
    are treated as immutable.

    The public constructor validates what it is given; the ring operations
    of ``polys`` build their results through ``_wrap``, because their
    monomials are already canonical and they never store a zero coefficient.
    """

    __slots__ = ("g", "terms")
    _combine = staticmethod(_mono_mul)
    __bool__ = ring_bool
    __eq__ = ring_eq
    __neg__ = ring_neg
    __add__ = __radd__ = ring_add
    __sub__ = ring_sub
    __rsub__ = ring_rsub
    __mul__ = __rmul__ = ring_mul

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
        return cls(g, {(0,) * g: 1})

    @classmethod
    def constant(cls, g, n):
        return cls(g, {(0,) * g: n})

    @classmethod
    def single(cls, g, mono, c=1):
        """The single term c * l1^m1 ... lg^mg."""
        return cls(g, {tuple(mono): c})

    _unit = property(lambda self: (0,) * self.g)
    _ring = property(lambda self: self.g)

    def _wrap(self, terms):
        return CoeffPoly._trusted(self.g, terms)

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), 0)

    def items(self):
        """Terms sorted by exponent vector (graded, low classes first)."""
        return sorted(self.terms.items(), key=lambda mc: (sum(mc[0]), tuple(reversed(mc[0]))))

    def __str__(self):
        return format_terms(["l%d" % i for i in range(1, self.g + 1)], self.items())

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

    ``packed`` maps a canonical lambda-monomial to a nonzero int that holds
    the monomial's Laurent polynomial in L in balanced digits of ``width``
    bits, on the slots 0 .. ``far`` of the validity range (see the module
    docstring); every coefficient is at most ``bound`` in absolute value,
    and ``width`` is the width of that bound; ``shape`` caches the occupied
    slots (see ``_shape``).  ``coeffs`` is the decoded view
    {exponent: CoeffPoly}.  Constructing with support past the exact end of
    the window (below the floor in ADIC mode, above the ceiling in
    DIMENSIONAL mode) is an error -- that end is a hard support bound, not
    a truncation -- while support beyond the free end is discarded, which
    is what truncation means.  Of ``valid_lo`` and ``valid_hi`` only the
    free end is read; the exact end is pinned.

    As with CoeffPoly, only the public constructor validates; the ring
    operations build their results through ``_trusted``.
    """

    __slots__ = ("ctx", "packed", "width", "bound", "far", "shape")

    def __init__(self, ctx, coeffs=None, valid_lo=None, valid_hi=None):
        w = ctx.window
        free, top = (valid_hi if ctx.mode is Mode.ADIC else valid_lo), w.hi - w.lo
        far = top if free is None else min(w.slot(free), top)
        if far < 0:
            raise ValueError("series with empty validity range")
        o, d = w.slot(0), w.slot(1) - w.slot(0)  # slot(e) = o + d e
        rows, bound = {}, 0  # rows: {monomial: {slot: coefficient}}
        if coeffs:
            for e, p in coeffs.items():
                if isinstance(p, int):
                    p = CoeffPoly.constant(ctx.g, p)
                if p.g != ctx.g:
                    raise ValueError("coefficient over g=%d in a g=%d context" % (p.g, ctx.g))
                if not p:
                    continue
                s = o + d * e
                if s < 0:
                    raise _exact_end_error(ctx, e)
                if s > far:
                    continue
                for mono, c in p.terms.items():
                    rows.setdefault(mono, {})[s] = c
                    bound = max(bound, abs(c))
        width = _width(bound)
        packed = {mono: _pack(row, width) for mono, row in rows.items()}
        self.ctx, self.packed, self.width, self.bound, self.far = ctx, packed, width, bound, far
        self.shape = None

    @classmethod
    def _trusted(cls, ctx, packed, width, bound, far):
        """Wrap ``packed`` as is: nonzero ints whose balanced ``width``-bit
        digits are at most ``bound`` in absolute value, ``width`` the width
        of ``bound``, on the slots 0 .. far of the window.  The dict is
        taken over, not copied."""
        self = object.__new__(cls)
        self.ctx, self.packed, self.width, self.bound, self.far = ctx, packed, width, bound, far
        self.shape = None
        return self

    # -- bookkeeping -------------------------------------------------------

    @property
    def g(self):
        return self.ctx.g

    @property
    def mode(self):
        return self.ctx.mode

    @property
    def valid_lo(self):
        """The lowest exponent of the validity range."""
        w = self.ctx.window
        return min(w.exponent(0), w.exponent(self.far))

    @property
    def valid_hi(self):
        """The highest exponent of the validity range."""
        w = self.ctx.window
        return max(w.exponent(0), w.exponent(self.far))

    def _require_same_ctx(self, other):
        if self.ctx != other.ctx:
            raise ValueError("series from different contexts cannot be combined")

    def _shape(self):
        """(lowest occupied slot, highest occupied slot, the slots each
        monomial spans summed) of a nonzero series, computed on first use.
        The sum bounds the number of nonzero coefficients."""
        if self.shape is None:
            w, vals = self.width, self.packed.values()
            lows = [((v & -v).bit_length() - 1) // w for v in vals]
            tops = [abs(v).bit_length() // w for v in vals]
            self.shape = (min(lows), max(tops), sum(tops) - sum(lows) + len(tops))
        return self.shape

    def _near(self):
        """The lowest occupied slot, or far + 1 for a zero series: one that
        is zero on its validity range can hide support only past it."""
        return self._shape()[0] if self.packed else self.far + 1

    def _view(self, n, width, skip=0):
        """The packed terms on the n slots from ``skip`` on, inside the
        validity range, moved down to slot 0, at ``width`` >= self.width
        bits per slot.  May be ``self.packed`` itself: never change it."""
        own = self.width
        out = self.packed
        if skip or n <= self.far:
            low, bits = skip * own, n * own
            out = {}
            for m, v in self.packed.items():
                v = _cut(_drop(v, low), bits)
                if v:
                    out[m] = v
        return _repack(out, own, width, n) if width != own else out

    def _lpolys(self):
        """[(monomial, [(exponent, coefficient), ..]), ..]: the Laurent
        polynomial of each monomial, nonzero coefficients only."""
        w, width = self.ctx.window, self.width
        base, step = w.exponent(0), w.exponent(1) - w.exponent(0)
        out = []
        for mono, v in self.packed.items():
            digits = _digits(v, width, abs(v).bit_length() // width + 1)
            out.append((mono, [(base + step * s, c) for s, c in enumerate(digits) if c]))
        return out

    @property
    def coeffs(self):
        """{exponent: CoeffPoly} on the validity range in ascending order,
        zeros omitted: decoded from the packed ints on every read."""
        rows = {}
        for mono, terms in self._lpolys():
            for e, c in terms:
                rows.setdefault(e, {})[mono] = c
        return {e: CoeffPoly._trusted(self.g, rows[e]) for e in sorted(rows)}

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
        w, width = self.ctx.window, self.width
        if self.mode is Mode.ADIC:
            first = max(bound + 1 - w.lo, 0)  # the slots from here up lie above bound
            lows = [h & -h for h in (_drop(v, first * width) for v in self.packed.values()) if h]
            return w.lo + first + (min(lows).bit_length() - 1) // width if lows else None
        below = w.hi - bound  # the slots below this one lie above bound
        if below <= 0:
            return None
        tops = [abs(c).bit_length() for c in (_cut(v, below * width) for v in self.packed.values())
                if c]
        return w.hi - max(tops) // width if tops else None

    def validate(self):
        """Assert the representation invariants; used by property tests."""
        w = self.ctx.window
        assert type(self.far) is int and 0 <= self.far <= w.hi - w.lo
        width, n = self.width, self.far + 1
        assert width == _width(self.bound)
        for mono, v in self.packed.items():
            assert type(mono) is tuple and len(mono) == self.g
            assert all(type(m) is int and m >= 0 for m in mono)
            assert type(v) is int and v != 0
            assert abs(v).bit_length() < n * width  # nothing past the last slot
            digits = _digits(v, width, n)
            assert _pack(dict(enumerate(digits)), width) == v
            assert all(abs(c) <= self.bound for c in digits)
        return True

    # -- ring operations ---------------------------------------------------
    #
    # Every rule below is stated in slots, once for both modes.  The product
    # of slots s1 and s2 lies in slot s1 + s2 + base, with base = -slot(0);
    # a result is exact up to the slot where the first factor's unknown tail
    # can meet the second factor's lowest occupied slot, and vice versa.

    def _plus(self, other, n):
        """self + n * other on the overlap of the validity ranges."""
        if isinstance(other, int):
            other = constant(self.ctx, other)
        if not isinstance(other, MotiveSeries):
            return NotImplemented
        self._require_same_ctx(other)
        far = min(self.far, other.far)
        bound = self.bound + abs(n) * other.bound
        width = _width(bound)
        acc = add_into(dict(self._view(far + 1, width)), other._view(far + 1, width), n)
        return MotiveSeries._trusted(self.ctx, acc, width, bound, far)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MotiveSeries._trusted(self.ctx, {m: -v for m, v in self.packed.items()},
                                     self.width, self.bound, self.far)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (self * -1)._plus(other, 1)

    def __mul__(self, other):
        if isinstance(other, int):
            bound = self.bound * abs(other)
            width = _width(bound)
            packed = {}
            if other:
                packed = {m: v * other for m, v in self._view(self.far + 1, width).items()}
            return MotiveSeries._trusted(self.ctx, packed, width, bound, self.far)
        if not isinstance(other, MotiveSeries):
            return NotImplemented
        self._require_same_ctx(other)
        w = self.ctx.window
        base = -w.slot(0)
        nx, ny = self._near(), other._near()
        if self.packed and other.packed and nx + ny + base < 0:
            raise ValueError(_PAST_EXACT_END[self.mode]["product"])
        far = min(w.hi - w.lo, self.far + ny + base, other.far + nx + base)
        if far < 0:
            raise ValueError("product has empty validity range (window too narrow)")
        packed, bound = {}, 0
        if self.packed and other.packed:
            (lx, hx, tx), (ly, hy, ty) = self._shape(), other._shape()
            bound = self.bound * other.bound * min(tx, ty)
        width = _width(bound)
        if bound:
            # the empty slots at each factor's exact end are shifted out
            # first; slot s1 + s2 of a raw product is then slot
            # s1 + s2 + lx + ly + base, and the support check above leaves
            # the slots a right shift drops empty
            packed = mul_into({}, self._view(self.far + 1 - lx, width, lx),
                              other._view(other.far + 1 - ly, width, ly), _mono_mul)
            off = (lx + ly + base) * width
            if off:
                packed = {m: v << off if off > 0 else v >> -off for m, v in packed.items()}
            if hx + hy + base > far:  # some product passes the last slot
                bits = (far + 1) * width
                packed = {m: c for m, c in ((m, _cut(v, bits)) for m, v in packed.items()) if c}
        return MotiveSeries._trusted(self.ctx, packed, width, bound, far)

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
        d = w.slot(e) - w.slot(0)  # slots toward the free end
        if self.packed and self._near() + d < 0:
            raise ValueError(_PAST_EXACT_END[self.mode]["shift"])
        far = min(w.hi - w.lo, self.far + d)
        if far < 0:
            raise ValueError("shift leaves an empty validity range")
        up, bits = d * self.width, (far + 1) * self.width
        packed = {}
        for m, v in self.packed.items():
            # a right shift drops only empty slots: the check above
            v = _cut(v << up, bits) if up >= 0 else v >> -up
            if v:
                packed[m] = v
        return MotiveSeries._trusted(self.ctx, packed, self.width, self.bound, far)

    def div_unit(self, i):
        """Divide by 1 - L^i (adic) or L^i - 1 (dimensional).

        The result, its validity range and any error are exactly those of
        ``self * geom_unit_inverse(ctx, i, sign)``.  With B = 2^(W i) the
        inverse is 1 + B + B^2 + .. (adic) or B + B^2 + .. (dimensional) in
        slot terms, so each monomial's int v becomes (v B^m - v) / (B - 1),
        an exact division, times B in dimensional mode, cut to the validity
        range; m is the number of terms the output slots need."""
        if i < 1:
            raise ValueError("unit exponent must be positive, got i=%d" % i)
        w = self.ctx.window
        # The rules are those of the product with the inverse, which is
        # valid on the whole window and supported on the slots first,
        # first + i, .., from its first exponent: 0 (adic) or -i.
        e0 = 0 if self.mode is Mode.ADIC else -i
        first, top, base = w.slot(e0), w.hi - w.lo, -w.slot(0)
        if first < 0:
            raise _exact_end_error(self.ctx, e0)
        ny = min(first, top + 1)  # the inverse is zero on a window short of first
        far = min(top, self.far + ny + base, top + self._near() + base)
        if far < 0:
            raise ValueError("product has empty validity range (window too narrow)")
        n = far + 1
        terms = -(-n // i)  # each output coefficient sums at most this many
        bound = self.bound * terms
        width = _width(bound)
        step = i * width
        unit, span, head = (1 << step) - 1, terms * step, (first + base) * width
        bits = n * width
        packed = {}
        for m, v in self._view(self.far + 1, width).items():
            v <<= head
            v = _cut(((v << span) - v) // unit, bits)
            if v:
                packed[m] = v
        return MotiveSeries._trusted(self.ctx, packed, width, bound, far)

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
        # the exact end stays where it was, and with it every slot
        far = min(self.far, hi - lo)
        return MotiveSeries._trusted(ctx2, self._view(far + 1, self.width), self.width,
                                     self.bound, far)

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
        # slot 0 of each view is the end of [lo, hi] nearest the exact end
        width, n = _width(self.bound + other.bound), hi - lo + 1
        mine, theirs = (x._view(n, width, min(x.ctx.window.slot(lo), x.ctx.window.slot(hi)))
                        for x in (self, other))
        diff = add_into(dict(mine), theirs, -1)
        if not diff:
            return Comparison(True, lo, hi)
        if self.mode is Mode.ADIC:
            e = lo + (min(d & -d for d in diff.values()).bit_length() - 1) // width
        else:
            e = hi - max(abs(d).bit_length() for d in diff.values()) // width
        return Comparison(False, lo, hi, e, self.coefficient(e) - other.coefficient(e))

    def __eq__(self, other):
        if not isinstance(other, MotiveSeries):
            return NotImplemented
        if self.ctx != other.ctx or self.far != other.far:
            return False
        width, n = max(self.width, other.width), self.far + 1
        return self._view(n, width) == other._view(n, width)

    def to_json_obj(self):
        """Canonical JSON-ready form: sorted exponents, sorted monomials,
        coefficients as decimal strings (arbitrary precision survives)."""
        w = self.ctx.window
        return {
            "genus": self.g,
            "mode": self.mode.value,
            "window": [w.lo, w.hi],
            "valid": [self.valid_lo, self.valid_hi],
            "terms": [[e, [[list(m), str(c)] for m, c in p.items()]]
                      for e, p in self.coeffs.items()],
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    def __str__(self):
        if not self.packed:
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


def _run_class(ctx, runs):
    """The class with a one at L^e0 .. L^(e0+length-1) in the monomial of
    each run (monomial, e0, length), the runs summed, valid on the whole
    window.  Each run is packed as a repunit.  Support beyond the exact end
    raises the constructor's error for the run's lowest such exponent, in
    the order of the runs; support beyond the free end is truncated."""
    w = ctx.window
    top = w.hi - w.lo  # the last slot
    o, d = w.slot(0), w.slot(1) - w.slot(0)  # slot(e) = o + d e
    back = d < 0  # slots run against the exponents: a run's last one is nearest
    spans, count = [], {}
    for mono, e0, length in runs:
        s0 = o + d * e0 - back * (length - 1)
        s1 = s0 + length - 1
        if s0 < 0:
            raise _exact_end_error(ctx, w.exponent(min(w.slot(e0), -1)))
        if s1 > top:
            s1 = top
        if s0 <= s1:
            spans.append((mono, s0, s1 - s0 + 1))
            count[mono] = count.get(mono, 0) + 1
    bound = max(count.values(), default=0)  # runs of one monomial may overlap
    width = _width(bound)
    packed = {}
    for mono, s0, length in spans:
        packed[mono] = packed.get(mono, 0) + (_fill(1, width // 8, length) << (s0 * width))
    return MotiveSeries._trusted(ctx, packed, width, bound, top)


def equals(x: MotiveSeries, y) -> Comparison:
    """Windowed equality of two series; see MotiveSeries.equals."""
    return x.equals(y)
