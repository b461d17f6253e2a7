"""The sparse-term kernel of the package and two integer polynomial types.

A term dict maps a key to a nonzero int.  ``add_into`` and ``mul_into`` are
the only code that sums or multiplies term dicts: they accumulate into their
first argument in place and drop zero sums.  ``combine`` adds two keys:
``operator.add`` for ``IntPoly``, a pair sum for ``IntPoly2``, the monomial
product for ``CoeffPoly`` and for the packed classes of ``MotiveSeries``,
whose values are whole Laurent polynomials in L packed into ints.

``IntPoly`` and ``IntPoly2`` serve the numeric realizations and oracles.
The constructors drop zero coefficients; the ring operations call the
kernel, wrap its result through ``_trusted``, and refuse an operand of the
other polynomial type with ``TypeError``."""

from __future__ import annotations

import operator

__all__ = ["IntPoly", "IntPoly2"]


def add_into(acc, terms, n=1):
    """Add ``n * terms`` into ``acc`` in place and return ``acc``; n != 0."""
    get = acc.get
    for k, c in terms.items():
        s = get(k, 0) + (c if n == 1 else c * n)  # c * 1 copies a big int
        if s:
            acc[k] = s
        else:
            del acc[k]
    return acc


def mul_into(acc, a, b, combine):
    """Add the product of the term dicts ``a`` and ``b`` into ``acc`` in
    place and return ``acc``; ``combine`` adds two keys."""
    get = acc.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = combine(k1, k2)
            s = get(k, 0) + c1 * c2
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc


def _add_pairs(p, q):
    return (p[0] + q[0], p[1] + q[1])


def power(one, base, n):
    """``base ** n`` by repeated squaring, starting from ``one``."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("only non-negative integer powers are defined")
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _operand(cls, other):
    """The terms of a ring operand: an int or a ``cls``; None otherwise."""
    if isinstance(other, int):
        other = cls.const(other)
    return other.terms if isinstance(other, cls) else None


class IntPoly:
    """Univariate Laurent polynomial over Z as {exponent: coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def _trusted(cls, terms):
        """Wrap ``terms`` as is; every coefficient must be nonzero."""
        self = object.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def x(cls, e=1):
        return cls({e: 1})

    @classmethod
    def const(cls, n):
        return cls({0: n})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self):
        return IntPoly._trusted({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        b = _operand(IntPoly, other)
        if b is None:
            return NotImplemented
        return IntPoly._trusted(add_into(dict(self.terms), b))

    __radd__ = __add__

    def __sub__(self, other):
        b = _operand(IntPoly, other)
        if b is None:
            return NotImplemented
        return IntPoly._trusted(add_into(dict(self.terms), b, -1))

    def __rsub__(self, other):
        return (self * -1).__add__(other)

    def __mul__(self, other):
        b = _operand(IntPoly, other)
        if b is None:
            return NotImplemented
        return IntPoly._trusted(mul_into({}, self.terms, b, operator.add))

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(IntPoly.const(1), self, n)

    def degree(self):
        if not self.terms:
            return None
        return max(self.terms)

    def coeff(self, e):
        return self.terms.get(e, 0)

    def __call__(self, v):
        return sum(c * v**e for e, c in self.terms.items())

    def divmod(self, other):
        """Long division; every quotient step must divide exactly over Z."""
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.terms)
        quo = {}
        d, lead = other.degree(), other.terms[other.degree()]
        while rem:
            e = max(rem)
            if e < d:
                break
            q, r = divmod(rem[e], lead)
            if r:
                raise ArithmeticError("leading coefficient %d does not divide %d" % (lead, rem[e]))
            quo[e - d] = q
            mul_into(rem, {e - d: -q}, other.terms, operator.add)
        return IntPoly(quo), IntPoly(rem)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if r:
            raise ArithmeticError("division left the remainder %s" % r)
        return q

    def __str__(self):
        if not self.terms:
            return "0"
        out = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                v = "x" if e == 1 else "x^%d" % e
                body = v if abs(c) == 1 else "%d*%s" % (abs(c), v)
            if not out:
                out.append(body if c > 0 else "-" + body)
            else:
                out.append(("+ " if c > 0 else "- ") + body)
        return " ".join(out)

    __repr__ = __str__


class IntPoly2:
    """Bivariate polynomial over Z as {(i, j): coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {ij: c for ij, c in (terms or {}).items() if c != 0}

    @classmethod
    def _trusted(cls, terms):
        """Wrap ``terms`` as is; every coefficient must be nonzero."""
        self = object.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def const(cls, n):
        return cls({(0, 0): n})

    @classmethod
    def monomial(cls, i, j, c=1):
        return cls({(i, j): c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly2.const(other)
        if not isinstance(other, IntPoly2):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self):
        return IntPoly2._trusted({ij: -c for ij, c in self.terms.items()})

    def __add__(self, other):
        b = _operand(IntPoly2, other)
        if b is None:
            return NotImplemented
        return IntPoly2._trusted(add_into(dict(self.terms), b))

    __radd__ = __add__

    def __sub__(self, other):
        b = _operand(IntPoly2, other)
        if b is None:
            return NotImplemented
        return IntPoly2._trusted(add_into(dict(self.terms), b, -1))

    def __rsub__(self, other):
        return (self * -1).__add__(other)

    def __mul__(self, other):
        b = _operand(IntPoly2, other)
        if b is None:
            return NotImplemented
        return IntPoly2._trusted(mul_into({}, self.terms, b, _add_pairs))

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(IntPoly2.const(1), self, n)

    def coeff(self, i, j):
        return self.terms.get((i, j), 0)

    def diagonal(self):
        """Substitute both variables by a single one (u = v = t)."""
        acc = {}
        for (i, j), c in self.terms.items():
            acc[i + j] = acc.get(i + j, 0) + c
        return IntPoly(acc)

    def __str__(self):
        if not self.terms:
            return "0"
        def var(s, e):
            if e == 0:
                return ""
            return s if e == 1 else "%s^%d" % (s, e)
        out = []
        for i, j in sorted(self.terms):
            c = self.terms[(i, j)]
            vs = "*".join(x for x in (var("u", i), var("v", j)) if x)
            body = (str(abs(c)) if not vs else (vs if abs(c) == 1 else "%d*%s" % (abs(c), vs)))
            if not out:
                out.append(body if c > 0 else "-" + body)
            else:
                out.append(("+ " if c > 0 else "- ") + body)
        return " ".join(out)

    __repr__ = __str__
