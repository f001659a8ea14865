"""Exact coefficient arithmetic, the term order and sparse polynomials.

All rings are standard graded: every variable has degree 1.  Coefficients
live either in a prime field F_p (default p = 32003, large enough that
random linear forms behave generically) or in the rationals.

The term order is graded reverse lex, stated once in grevlex_key as an
ascending key: the smallest key is the leading monomial.  Every sparse sum
Σ c·x^m·v is one lincomb, which sums exactly and reduces each coefficient
once by CoeffField.reduce (delayed reduction: J.-G. Dumas, P. Giorgi and
C. Pernet, ACM Trans. Math. Software 35, 2008).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub


class PolyError(Exception):
    pass


class RingMismatch(PolyError):
    pass


class InvariantViolation(PolyError):
    """A mathematical invariant failed: a fault of the engine, not of its input."""


def require(cond, msg):
    """Raise InvariantViolation(msg) unless cond; unlike assert, kept under -O."""
    if not cond:
        raise InvariantViolation(msg)


class PolyParseError(PolyError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_ONE = Fraction(1)  # shared: Fractions are immutable


class CoeffField:
    """Prime field F_p or the rationals, with exact arithmetic."""

    def __init__(self, p: int | None = 32003):
        if p is not None and not _is_prime(p):
            raise PolyError(f"{p} is not prime")
        if p == 2:
            raise PolyError("characteristic 2 is not supported (p >= 3 required)")
        self.p = p

    def coerce(self, c):
        """c in this field; over F_p a Fraction a/b is a·b⁻¹ mod p."""
        if self.p is None:
            return Fraction(c)
        if isinstance(c, Fraction):
            if c.denominator % self.p == 0:
                raise PolyError(f"{c} has a denominator divisible by {self.p}")
            return c.numerator * pow(c.denominator, -1, self.p) % self.p
        return int(c) % self.p

    def reduce(self, c):
        """c mod p over F_p, c itself over Q."""
        return c if self.p is None else c % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return _ONE / a
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def one(self):
        return _ONE if self.p is None else 1

    def random(self, rng):
        if self.p is None:
            return Fraction(rng.randrange(-20, 21))
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, CoeffField) and self.p == other.p

    def __hash__(self):
        return hash(("CoeffField", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


# -- monomials: exponent tuples -------------------------------------------

def mon_mul(a, b):
    return tuple(map(add, a, b))


def mon_div(a, b):
    """a / b, or None when b does not divide a."""
    q = tuple(map(sub, a, b))
    return q if min(q, default=0) >= 0 else None


def mon_divides(b, a):
    return all(x >= y for x, y in zip(a, b))


def mon_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mon_deg(a):
    return sum(a)


def grevlex_key(mon):
    """Ascending grevlex key: the smaller key is the larger monomial.

    Higher degree comes first; within a degree, the smaller exponent of the
    last variable, then of the one before it, and so on.
    """
    return (-sum(mon), mon[::-1])


def monomials_of_degree(num_vars, deg):
    """All exponent tuples in num_vars variables of total degree deg."""
    if deg < 0:
        return
    if num_vars == 0:
        if deg == 0:
            yield ()
        return
    if num_vars == 1:
        yield (deg,)
        return
    for first in range(deg, -1, -1):
        for rest in monomials_of_degree(num_vars - 1, deg - first):
            yield (first,) + rest


class PolyRing:
    """Standard-graded polynomial ring over a CoeffField."""

    def __init__(self, field: CoeffField, var_names):
        names = tuple(var_names)
        if len(set(names)) != len(names):
            raise PolyError("variable names must be unique")
        if not names:
            raise PolyError("at least one variable required")
        self.field = field
        self.var_names = names
        self.num_vars = len(names)
        self._var_index = {n: i for i, n in enumerate(names)}
        self.zero_mon = (0,) * self.num_vars

    def zero(self):
        return Poly(self, {})

    def one(self):
        return Poly(self, {self.zero_mon: self.field.one()})

    def const(self, c):
        return self.monomial(self.zero_mon, c)

    def var(self, i_or_name):
        i = self._var_index[i_or_name] if isinstance(i_or_name, str) else i_or_name
        mon = tuple(1 if j == i else 0 for j in range(self.num_vars))
        return Poly(self, {mon: self.field.one()})

    def gens(self):
        return [self.var(i) for i in range(self.num_vars)]

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.num_vars or any(e < 0 for e in exps):
            raise PolyError(f"bad exponent vector {exps}")
        c = self.field.coerce(coeff)
        return Poly(self, {exps: c} if c != 0 else {})

    def random_form(self, degree, rng):
        """Random homogeneous form of the given degree, coefficients uniform."""
        terms = {}
        for mon in monomials_of_degree(self.num_vars, degree):
            c = self.field.random(rng)
            if c != 0:
                terms[mon] = c
        return Poly(self, terms)

    def poly(self, text: str):
        return parse_poly(self, text)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.var_names == other.var_names)

    def __hash__(self):
        return hash((self.field, self.var_names))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.var_names)}]"


def lincomb(reduce, parts, shift):
    """Σ c·v·shift(t, m) over the terms t: v of each (c, m, terms) in
    parts, with t itself where m is None, summed exactly; each resulting
    coefficient is reduced once, by reduce, and the zero ones are dropped."""
    out = {}
    for c, m, terms in parts:
        for t, v in terms.items():
            if m is not None:
                t = shift(t, m)
            if t in out:
                out[t] += c * v
            else:
                out[t] = c * v
    return {t: r for t, v in out.items() if (r := reduce(v))}


class SparseTerms:
    """A sparse sum of terms: dict term -> nonzero coefficient.

    A Poly's terms are monomials and a Vector's are (position, monomial)
    pairs.  A subclass gives key, the ascending order of its terms (the
    smallest key is the leading term), shift(t, m), the term t times the
    monomial m, field, its coefficient field, _new, which builds a sibling
    from a terms dict, and its own _check.  All arithmetic is one lincomb.
    """

    __slots__ = ()

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _lincomb(self, parts):
        return self._new(lincomb(self.field.reduce, parts, self.shift))

    def __add__(self, other):
        self._check(other)
        one = self.field.one()
        return self._lincomb([(one, None, self.terms), (one, None, other.terms)])

    def __neg__(self):
        return self._lincomb([(-self.field.one(), None, self.terms)])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._lincomb([(self.field.coerce(c), None, self.terms)])

    def __rmul__(self, other):
        return self.scale(other)

    def mul_term(self, mon, coeff):
        """Multiply by coeff·x^mon."""
        return self._lincomb([(coeff, mon, self.terms)])

    def poly_mul(self, p):
        """Multiply by the polynomial p."""
        return self._lincomb([(c, m, self.terms) for m, c in p.terms.items()])

    def leading_term(self):
        """(term, coeff) of the leading term, the one of smallest key."""
        if not self.terms:
            raise PolyError("zero element has no leading term")
        t = min(self.terms, key=self.key)
        return t, self.terms[t]

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.field.inv(self.leading_term()[1]))


class Poly(SparseTerms):
    """Sparse polynomial: dict exponent-tuple -> nonzero coefficient."""

    __slots__ = ("ring", "terms")
    key = staticmethod(grevlex_key)
    shift = staticmethod(mon_mul)

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    @property
    def field(self):
        return self.ring.field

    def _new(self, terms):
        return Poly(self.ring, terms)

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        return self.poly_mul(other)

    def __pow__(self, n):
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def total_degree(self):
        """Max total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(mon_deg(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {mon_deg(m) for m in self.terms}
        return len(degs) <= 1

    def __repr__(self):
        """The terms in grevlex order, a negative coefficient written after
        a minus sign, so parse_poly reads back any coefficients."""
        if not self.terms:
            return "0"
        out = ""
        for mon in sorted(self.terms, key=grevlex_key):
            cs = str(self.terms[mon])
            sign = "-" if cs[0] == "-" else "+"  # F_p residues are never negative
            cs = cs.lstrip("-")
            factors = []
            for name, e in zip(self.ring.var_names, mon):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors:
                body = f"{cs}*" + "*".join(factors)
            else:
                body = cs
            if out:
                out += f" {sign} {body}"
            else:
                out = body if sign == "+" else f"-{body}"
        return out


# -- parsing ---------------------------------------------------------------

def parse_poly(ring: PolyRing, text: str) -> Poly:
    """Parse `3*x^2*y - y^3` style syntax into a Poly.  A coefficient may
    be a fraction a/b of integers, as in `1/2*x`; over F_p it is a·b⁻¹."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_int():
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if start == pos:
            raise PolyParseError("expected integer", pos)
        return int(text[start:pos])

    def parse_name():
        nonlocal pos
        start = pos
        while pos < n and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        return text[start:pos]

    def parse_factor():
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise PolyParseError("unexpected end of input", pos)
        ch = text[pos]
        if ch.isdigit():
            c = parse_int()
            skip_ws()
            if pos < n and text[pos] == "/":
                advance()
                skip_ws()
                start, den = pos, parse_int()
                if den == 0 or ring.field.p and den % ring.field.p == 0:
                    raise PolyParseError(
                        f"denominator {den} is zero in {ring.field}", start)
                c = Fraction(c, den)
            return ring.const(c)
        if ch.isalpha() or ch == "_":
            name = parse_name()
            if name not in ring._var_index:
                raise PolyParseError(f"unknown variable '{name}'", pos - len(name))
            exp = 1
            skip_ws()
            if pos < n and text[pos] == "^":
                pos += 1
                skip_ws()
                exp = parse_int()
            i = ring._var_index[name]
            return ring.monomial(exp if j == i else 0 for j in range(ring.num_vars))
        raise PolyParseError(f"unexpected character '{ch}'", pos)

    def parse_term():
        result = parse_factor()
        while True:
            skip_ws()
            if pos < n and text[pos] == "*":
                advance()
                result = result * parse_factor()
            else:
                return result

    def advance():
        nonlocal pos
        pos += 1

    skip_ws()
    sign = 1
    if pos < n and text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        advance()
    result = parse_term().scale(sign)
    while True:
        skip_ws()
        if pos >= n:
            return result
        if text[pos] not in "+-":
            raise PolyParseError(f"unexpected character '{text[pos]}'", pos)
        sign = -1 if text[pos] == "-" else 1
        advance()
        result = result + parse_term().scale(sign)
