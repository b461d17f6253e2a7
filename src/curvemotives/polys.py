"""Small exact polynomial helpers over Z, used by the numeric oracles and
the x-variable identity check.  Sparse dicts, integer coefficients only.

The constructors drop zero coefficients from what they are given; the ring
operations drop them as they go and build their results through
``_trusted``."""

from __future__ import annotations

__all__ = ["IntPoly", "IntPoly2"]


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
        if isinstance(other, int):
            other = IntPoly.const(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                del acc[e]
        return IntPoly._trusted(acc)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        a, b = self.terms, other.terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:  # a shifted, scaled copy
            (e2, c2), = b.items()
            return IntPoly._trusted({e1 + e2: c1 * c2 for e1, c1 in a.items()})
        acc = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        return IntPoly._trusted(acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are defined")
        out = IntPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
            for e2, c2 in other.terms.items():
                k = e - d + e2
                s = rem.get(k, 0) - q * c2
                if s:
                    rem[k] = s
                elif k in rem:
                    del rem[k]
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
        if isinstance(other, int):
            other = IntPoly2.const(other)
        acc = dict(self.terms)
        for ij, c in other.terms.items():
            s = acc.get(ij, 0) + c
            if s:
                acc[ij] = s
            else:
                del acc[ij]
        return IntPoly2._trusted(acc)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly2.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = IntPoly2.const(other)
        a, b = self.terms, other.terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:  # a shifted, scaled copy
            ((i2, j2), c2), = b.items()
            return IntPoly2._trusted({(i1 + i2, j1 + j2): c1 * c2
                                      for (i1, j1), c1 in a.items()})
        acc = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                ij = (i1 + i2, j1 + j2)
                s = acc.get(ij, 0) + c1 * c2
                if s:
                    acc[ij] = s
                elif ij in acc:
                    del acc[ij]
        return IntPoly2._trusted(acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are defined")
        out = IntPoly2.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
