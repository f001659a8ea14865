"""Checks of gradedca's results that do not run gradedca code.

Relations are parsed from the job text with sympy, and lengths and ranks
come from per-degree Macaulay matrices eliminated here, so a fault in the
program's parser, Groebner bases or rank trackers cannot hide in its own
check.  Every function returns a list of error strings; empty means correct.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod

# Rank over Q is taken modulo this prime; it equals the rank over Q unless
# the prime divides every maximal nonzero minor, which the inputs here
# (small integer coefficients) do not come near.
QQ_PRIME = (1 << 61) - 1

# e(M), the degree of the support's top-dimensional part counted with
# multiplicity; derived in README.md.
MULTIPLICITY = {"two-plane": 2, "dim3-buchsbaum": 2, "hypersurface": 2,
                "plane-plus-line": 1, "mixed-line": 1, "mixed-sum": 1,
                "free-plane": 1}


# ---------------------------------------------------------------------------
# text -> exponent dictionaries, via sympy


def parse_polys(texts, variables):
    """{exponent tuple: Fraction} for each polynomial text."""
    import sympy
    syms = sympy.symbols(list(variables))
    local = dict(zip(variables, syms))
    out = []
    for text in texts:
        expr = sympy.parse_expr(text.replace("^", "**"), local_dict=local)
        poly = sympy.Poly(expr, *syms, domain="QQ")
        out.append({tuple(m): Fraction(int(c.p), int(c.q))
                    for m, c in poly.terms() if c != 0})
    return out


def parse_relations(rows, variables):
    """Relation vectors of a job's module as {(pos, exponents): Fraction}."""
    vectors = []
    for row in rows:
        v = {}
        for pos, p in enumerate(parse_polys(row, variables)):
            for mon, c in p.items():
                v[(pos, mon)] = c
        if v:
            vectors.append(v)
    return vectors


# ---------------------------------------------------------------------------
# exact linear algebra modulo a prime


def _mod(c, p):
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def _monomials(nvars, deg):
    out = []
    for combo in combinations_with_replacement(range(nvars), deg):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


class _Echelon:
    """Row echelon form over F_p, one row at a time."""

    def __init__(self, p):
        self.p = p
        self.pivots = {}

    def add(self, row):
        p = self.p
        row = {k: v % p for k, v in row.items() if v % p}
        while row:
            col = max(row)
            piv = self.pivots.get(col)
            if piv is None:
                inv = pow(row[col], -1, p)
                self.pivots[col] = {k: v * inv % p for k, v in row.items()}
                return True
            c = row[col]
            for k, v in piv.items():
                s = (row.get(k, 0) - c * v) % p
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
        return False

    @property
    def rank(self):
        return len(self.pivots)


def quotient_length(p, nvars, twists, vectors, max_degree=60):
    """λ(F/K) for F = ⊕ S(−twists[i]) and K spanned by homogeneous vectors.

    Coefficients are read modulo p.  F/K is generated in degrees at most
    max(twists), so its first zero component at or above that degree is
    its end.  Returns None when no such degree is found by max_degree.
    """
    gens = []
    for v in vectors:
        deg = {twists[pos] + sum(mon) for pos, mon in v}
        if len(deg) != 1:
            raise ValueError("inhomogeneous vector")
        gens.append((deg.pop(), {k: _mod(c, p) for k, c in v.items()}))
    top = max(twists)
    total = 0
    for t in range(min(twists), max_degree + 1):
        free = sum(comb(t - tw + nvars - 1, nvars - 1)
                   for tw in twists if t >= tw)
        ech = _Echelon(p)
        for d, v in gens:
            if d > t:
                continue
            for mon in _monomials(nvars, t - d):
                ech.add({(pos, tuple(a + b for a, b in zip(m, mon))): c
                         for (pos, m), c in v.items()})
        total += free - ech.rank
        if free == ech.rank and t >= top:
            return total
    return None


def colength(p, raw, relations, forms):
    """λ(M/QM) for the module of a job document, its parsed relations and
    the forms {exponents: coefficient} that generate Q."""
    twists = raw["module"]["twists"]
    vecs = list(relations)
    for f in forms:
        for pos in range(len(twists)):
            vecs.append({(pos, m): c for m, c in f.items()})
    return quotient_length(p, len(raw["ring"]["variables"]), twists, vecs)


def rank_of(matrix):
    """Rank over Q of a matrix of small integers."""
    ech = _Echelon(QQ_PRIME)
    for row in matrix:
        ech.add(dict(enumerate(row)))
    return ech.rank


def rank_at_points(matrix, nvars, points=2, seed=20111):
    """Generic rank of a matrix of polynomials, as the largest rank of its
    values at random integer points."""
    rng = random.Random(seed)
    best = 0
    for _ in range(points):
        x = [rng.randrange(1, 10 ** 6) for _ in range(nvars)]
        ech = _Echelon(QQ_PRIME)
        for row in matrix:
            ech.add({j: _mod(sum(c * prod(xi ** e for xi, e in zip(x, mon))
                                 for mon, c in entry.items()), QQ_PRIME)
                     for j, entry in enumerate(row)})
        best = max(best, ech.rank)
    return best


def poly_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def product_is_zero(left, right):
    """Whether the product of two matrices of polynomials is zero."""
    for row in left:
        for j in range(len(right[0]) if right else 0):
            acc = {}
            for k, entry in enumerate(row):
                for m, c in poly_mul(entry, right[k][j]).items():
                    acc[m] = acc.get(m, 0) + c
            if any(c != 0 for c in acc.values()):
                return False
    return True


def sympy_groebner(texts, variables):
    """Reduced grevlex Groebner basis over Q, each element monic."""
    import sympy
    syms = sympy.symbols(list(variables))
    local = dict(zip(variables, syms))
    exprs = [sympy.parse_expr(t.replace("^", "**"), local_dict=local)
             for t in texts]
    basis = sympy.groebner(exprs, *syms, order="grevlex", domain="QQ")
    return {monic({tuple(m): Fraction(int(c.p), int(c.q))
                   for m, c in sympy.Poly(g, *syms, domain="QQ").terms()})
            for g in basis.exprs}


def monic(poly):
    """Frozen monic form of {exponents: coefficient} under grevlex."""
    lead = max(poly, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))
    c = Fraction(poly[lead])
    return frozenset((m, Fraction(v) / c) for m, v in poly.items())


# ---------------------------------------------------------------------------
# the oracles


def expect(errors, cond, message):
    if not cond:
        errors.append(message)


def hilbert_errors(name, degrees, e, chi1, h0, colength, length,
                   cm, e1_constant):
    """Oracles for one Hilbert–Samuel and Koszul op on a corpus module."""
    errs = []
    e0 = MULTIPLICITY[name] * prod(degrees)
    expect(errs, e and e[0] == e0, "e0 %r != e(M)*prod(deg) = %d" % (e, e0))
    if cm:
        expect(errs, all(v == 0 for v in e[1:]),
               "e_i != 0 on a Cohen-Macaulay module: %r" % (e,))
    if e1_constant is not None:
        expect(errs, len(e) > 1 and e[1] == e1_constant,
               "e1 %r != Buchsbaum constant %d" % (e, e1_constant))
    expect(errs, length is not None and colength == length,
           "colength %r != independent length %r" % (colength, length))
    expect(errs, h0 == length, "H0 length %r != %r" % (h0, length))
    expect(errs, length is not None and chi1 == length - e0,
           "chi1 %r != length - e0 = %r" % (chi1, None if length is None
                                             else length - e0))
    expect(errs, chi1 is not None and chi1 >= 0, "chi1 %r < 0" % (chi1,))
    return errs


def brim_errors(base_multiplicity, base_dim, cm, e1_constant, r, br, br1,
                degree):
    """Oracles for the Buchsbaum–Rim coefficients of a generic linear E."""
    errs = []
    want = base_multiplicity * comb(base_dim + r - 1, r - 1)
    expect(errs, br == want, "br %r != e(R)*C(d+r-1, r-1) = %d" % (br, want))
    expect(errs, degree == base_dim + r - 1,
           "degree %r != d+r-1 = %d" % (degree, base_dim + r - 1))
    if cm:
        expect(errs, br1 == 0, "br1 %r != 0 over a Cohen-Macaulay ring" % br1)
    if r == 1:
        e1 = 0 if cm else e1_constant
        expect(errs, (br, br1) == (base_multiplicity, e1),
               "(br, br1) %r != (e0, e1) %r" % ((br, br1), (base_multiplicity, e1)))
    return errs


def structure_errors(res, facts):
    """Oracles for one structure-qq op.

    res holds the program's answers; facts holds values computed here from
    the job text (generic rank, Groebner basis, lengths).
    """
    errs = []
    betti = res["betti"]
    expect(errs, res["ab_depth"] == res["ext_depth"],
           "Auslander-Buchsbaum depth %r != Ext depth %r"
           % (res["ab_depth"], res["ext_depth"]))
    alt = sum((-1) ** i * b for i, b in enumerate(betti))
    expect(errs, alt == facts["rank"],
           "alternating Betti sum %d != generic rank %d" % (alt, facts["rank"]))
    maps = res["resolution"]
    for i in range(len(maps) - 1):
        expect(errs, product_is_zero(maps[i], maps[i + 1]),
               "d%d * d%d != 0" % (i + 1, i + 2))
    if "groebner" in facts:
        expect(errs, res["groebner"] == facts["groebner"],
               "Groebner basis differs from sympy's")
    if res["cm"]:
        expect(errs, res["unmixed"], "Cohen-Macaulay but not unmixed")
    if "koszul" in res:
        kz = res["koszul"]
        expect(errs, kz["lengths"][0] == facts["length"],
               "H0 length %r != independent colength %r"
               % (kz["lengths"][0], facts["length"]))
        expect(errs, kz["colength"] == facts["length"],
               "colength %r != independent colength %r"
               % (kz["colength"], facts["length"]))
        expect(errs, kz["chi1"] >= 0, "chi1 %r < 0" % kz["chi1"])
        rec = kz.get("recursion")
        if rec is not None:
            total, quo, col = rec
            expect(errs, total == quo + col and total == kz["chi1"],
                   "chi1 recursion %r does not hold for chi1 %r"
                   % (rec, kz["chi1"]))
    for key, want in facts.get("claims", {}).items():
        expect(errs, res[key] == want,
               "claim %s: expected %r, got %r" % (key, want, res[key]))
    return errs


def check_rows_errors(rows, expected):
    """Every check row passes and the rows equal the recorded matrix."""
    errs = []
    failed = [r for r in rows if not r["passed"]]
    expect(errs, not failed, "failed rows: %r" % failed)
    key = lambda r: (r["instance"], r["check"])
    expect(errs, sorted(rows, key=key) == sorted(expected, key=key),
           "check rows differ from the recorded matrix")
    return errs
