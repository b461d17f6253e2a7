"""The sparse-term kernel of the package, its one ring protocol, and two
integer polynomial types.

A term dict maps a key to a nonzero int.  ``add_into`` and ``mul_into`` are
the only code that sums or multiplies term dicts: they accumulate into their
first argument in place and drop zero sums.  ``combine`` adds two keys.

The ring operations of ``CoeffPoly``, ``IntPoly`` and ``IntPoly2`` exist
once, as the ``ring_*`` functions below, and each class binds them in its
own body (``__add__ = __radd__ = ring_add``).  A type supplies only its
constants: ``_unit``, the key of the constant monomial; ``_ring``, which
tells its coefficient rings apart (None, or the genus of a ``CoeffPoly``);
``_combine``, its key sum (``operator.add``, a pair sum, the monomial
product); and ``_wrap(terms)``, which wraps a term dict the kernel built
without checking it.  An int operand is a constant, and an int factor
scales a copy; an operand of another type is refused with ``TypeError``,
and one over another ring with ``ValueError``.  The operations are bound
in each class body, not inherited or set afterwards, so that each type
defines them in its own ``__dict__`` (where perfbench's tracer wraps them)
and keeps ``__hash__ = None``: equal polynomials need not be one object.

``format_terms`` and ``monomial_text`` print all three types.  ``IntPoly``
and ``IntPoly2`` serve the numeric realizations and oracles; their
constructor drops zero coefficients."""

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


# -- the ring protocol -----------------------------------------------------


def _operand(a, b):
    """The terms of ``b`` as an operand of ``a``: an int is a constant, a
    polynomial of a's type must share a's ring; None for anything else."""
    if isinstance(b, int):
        return {a._unit: b} if b else {}
    if type(b) is not type(a):
        return None
    if b._ring != a._ring:
        raise ValueError("mixed coefficient rings: g=%d vs g=%d" % (a._ring, b._ring))
    return b.terms


def ring_bool(a):
    return bool(a.terms)


def ring_eq(a, b):
    if isinstance(b, int):
        return a.terms == ({a._unit: b} if b else {})
    if type(b) is not type(a):
        return NotImplemented
    return a._ring == b._ring and a.terms == b.terms


def ring_neg(a):
    return a._wrap({k: -c for k, c in a.terms.items()})


def ring_add(a, b):
    t = _operand(a, b)
    return NotImplemented if t is None else a._wrap(add_into(dict(a.terms), t))


def ring_sub(a, b):
    t = _operand(a, b)
    return NotImplemented if t is None else a._wrap(add_into(dict(a.terms), t, -1))


def ring_rsub(a, b):
    return ring_add(ring_neg(a), b)


def ring_mul(a, b):
    if isinstance(b, int):
        return a._wrap(add_into({}, a.terms, b) if b else {})
    t = _operand(a, b)
    return NotImplemented if t is None else a._wrap(mul_into({}, a.terms, t, a._combine))


def ring_pow(a, n):
    """``a ** n`` by repeated squaring."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("only non-negative integer powers are defined")
    out, base = a._wrap({a._unit: 1}), a
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


# -- printing --------------------------------------------------------------


def monomial_text(names, exps):
    """The product of the names to their exponents, '' for the unit."""
    return "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in zip(names, exps) if e)


def format_terms(names, items):
    """The text of a polynomial from its (exponents, coefficient) pairs in
    print order, joined by signs; '0' for none."""
    out = []
    for exps, c in items:
        m, n = monomial_text(names, exps), abs(c)
        body = str(n) if not m else m if n == 1 else "%d*%s" % (n, m)
        sign = ("- " if c < 0 else "+ ") if out else ("-" if c < 0 else "")
        out.append(sign + body)
    return " ".join(out) or "0"


# -- the integer polynomial types ------------------------------------------


def _init_terms(self, terms=None):
    self.terms = {k: c for k, c in (terms or {}).items() if c != 0}


def _trusted_terms(cls, terms):
    """Wrap ``terms`` as is; every coefficient must be nonzero."""
    self = object.__new__(cls)
    self.terms = terms
    return self


def _const(cls, n):
    return cls({cls._unit: n})


def _add_pairs(p, q):
    return (p[0] + q[0], p[1] + q[1])


class IntPoly:
    """Univariate Laurent polynomial over Z as {exponent: coefficient}."""

    __slots__ = ("terms",)
    _unit = 0
    _ring = None
    _combine = staticmethod(operator.add)
    __init__ = _init_terms
    _trusted = _wrap = classmethod(_trusted_terms)
    const = classmethod(_const)
    __bool__ = ring_bool
    __eq__ = ring_eq
    __neg__ = ring_neg
    __add__ = __radd__ = ring_add
    __sub__ = ring_sub
    __rsub__ = ring_rsub
    __mul__ = __rmul__ = ring_mul
    __pow__ = ring_pow

    @classmethod
    def x(cls, e=1):
        return cls({e: 1})

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
        return format_terms("x", (((e,), c) for e, c in sorted(self.terms.items())))

    __repr__ = __str__


class IntPoly2:
    """Bivariate polynomial over Z as {(i, j): coefficient}."""

    __slots__ = ("terms",)
    _unit = (0, 0)
    _ring = None
    _combine = staticmethod(_add_pairs)
    __init__ = _init_terms
    _trusted = _wrap = classmethod(_trusted_terms)
    const = classmethod(_const)
    __bool__ = ring_bool
    __eq__ = ring_eq
    __neg__ = ring_neg
    __add__ = __radd__ = ring_add
    __sub__ = ring_sub
    __rsub__ = ring_rsub
    __mul__ = __rmul__ = ring_mul
    __pow__ = ring_pow

    @classmethod
    def monomial(cls, i, j, c=1):
        return cls({(i, j): c})

    def coeff(self, i, j):
        return self.terms.get((i, j), 0)

    def diagonal(self):
        """Substitute both variables by a single one (u = v = t)."""
        acc = {}
        for (i, j), c in self.terms.items():
            acc[i + j] = acc.get(i + j, 0) + c
        return IntPoly(acc)

    def __str__(self):
        return format_terms("uv", sorted(self.terms.items()))

    __repr__ = __str__
