"""Reference algorithms the tests hold the engine to, kept apart from it.

_RankTracker is exact Gaussian elimination over the coefficient field on
{term: coefficient} dicts, the independent rank count behind the
reference quotient lengths; colon_submodule presents (N :_F f) by one
kernel, the elimination the series colons are checked against.
reference_reduce_vector is the normal form in exact field arithmetic, a
Fraction operation per step over Q, and reference_spair the S-vector of
two monic vectors: the loop and the pair that gb's integer kernel
replaces.  reduce_vector is that kernel, gb._reduce, on a vector and a
list of vectors, each used through its integer_form, with the normal form
built as a vector of field coefficients, so the two can be compared.
reference_buchberger is Buchberger with pairs taken by a min() scan over
all pending ones and a minimalizing pass before the interreduction, and
reference_minimal_generators the greedy graded-Nakayama loop that reruns
it for every generator it keeps: the two separate loops that
gb._groebner replaces with one run.  contains is
submodule membership by the normal form against a reduced basis.  These
three reduce through reference_reduce_vector alone, so gb's kernel is
never held to itself.  sympy_groebner is sympy's reduced grevlex basis
over Q, as a set of monic polynomials (sympy is imported only when it
is called).  reference_unmixed_series is HS(U) by biduality over a
random complete intersection inside Ann(M), apart from the Ext duals
that homology.unmixed_component reads U off.
reference_module_powers is the Hilbert-Samuel filtration Q^k·M on a
_Space whose table method is not the one builder hilbert uses for both
filtrations: a dict NF(g_j·u) per product, reduced by one reduce_vector
call and packed by reference_pack, with entries below p, where the
builder sums the module's multiplication tables into entries below
T·p².  quotient_length counts λ(F/K) from per-degree Macaulay matrices
over F_p, with no Groebner basis.  reference_tor_lengths reads
Tor_i(M, S/(x)) off M's minimal free resolution modulo (x), the Koszul
homology lengths when x is S-regular, with no Koszul complex.
reference_koszul_lengths is the Koszul complex itself, the oracle that
koszul's series and Tor routes are held to: koszul_differential builds
its maps on M's ambient, and the cycles come from an elimination basis.
random_nonzero draws the nonzero coefficients of the random test inputs,
and random_integer_forms the text of random forms with small integer
coefficients, read alike over Q and over F_p.
"""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement, repeat
from math import comb, gcd, lcm

from gradedca.gb import (GBError, _cleared, _primitive, _reduce, annihilator,
                         is_zero_module, kernel_of_map,
                         minimal_free_resolution, minimal_generators,
                         minimal_presentation, module_gb, quotient_module)
from gradedca.hilbert import (_Powers, _Space, _standard_terms, dim_module,
                              hilbert_series, series_length, shifted_sum)
from gradedca.modules import (FreeModule, GradedModule, ModuleMap, Vector,
                              term_key, term_mul)
from gradedca.poly import (Poly, lincomb, mon_deg, mon_div, mon_lcm,
                           mon_mul, monomials_of_degree)

REGULAR_SEQUENCE_TRIES = 50  # random draws per form of a regular sequence


def random_nonzero(fld, rng):
    """A uniform nonzero element of F_p, or of −20..20 over Q."""
    if fld.p is None:
        return Fraction(rng.choice([c for c in range(-20, 21) if c]))
    return rng.randrange(1, fld.p)


def random_integer_forms(rng, names, count, top):
    """count homogeneous forms of degree 1..top in names, as text, with
    integer coefficients in ±1..3: each monomial is kept with probability
    1/2, and the first one when no other is."""
    texts = []
    for _ in range(count):
        mons = list(monomials_of_degree(len(names), rng.randint(1, top)))
        text = "0"
        for m in [m for m in mons if rng.random() < 0.5] or mons[:1]:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            text += " %s %d*%s" % ("-" if c < 0 else "+", abs(c), "*".join(
                "%s^%d" % (v, e) for v, e in zip(names, m)))
        texts.append(text)
    return texts


class _RankTracker:
    """Incremental Gaussian elimination over the coefficient field.

    Rows are sparse {term: coefficient} dicts over any comparable terms;
    pivots are taken in the terms' natural order, since rank does not
    depend on which order picks them.  Over Q every row is kept as its
    primitive integer multiple: a pivot is cleared by the cross-multiple
    a·work − c·row, a and c the two pivot entries over their gcd, and
    the content is divided out before each step.
    """

    def __init__(self, fld):
        self.fld = fld
        self.rows = {}

    def add(self, terms):
        if self.fld.p is None:
            return self._add_rational(terms)
        fld = self.fld
        work = dict(terms)
        while work:
            pivot = max(work)
            row = self.rows.get(pivot)
            if row is None:
                c = work[pivot]
                inv = fld.inv(c)
                self.rows[pivot] = {t: fld.reduce(v * inv) for t, v in work.items()}
                return True
            c = work[pivot]
            for t, v in row.items():
                s = fld.reduce(work.get(t, 0) - v * c)
                if s == 0:
                    work.pop(t, None)
                else:
                    work[t] = s
        return False

    def _add_rational(self, terms):
        den = lcm(*(c.denominator for c in terms.values()))
        work = {t: c.numerator * (den // c.denominator) for t, c in terms.items() if c}
        while work:
            content = gcd(*work.values())
            if content > 1:
                work = {t: v // content for t, v in work.items()}
            pivot = max(work)
            row = self.rows.get(pivot)
            if row is None:
                self.rows[pivot] = work
                return True
            g = gcd(row[pivot], work[pivot])
            a, c = row[pivot] // g, work[pivot] // g
            if a != 1:
                for t in work:
                    work[t] *= a
            for t, v in row.items():
                if s := work.get(t, 0) - c * v:
                    work[t] = s
                else:
                    del work[t]
        return False

    def rank(self, rows, cap):
        """Add rows until cap of them are independent; return how many were."""
        rank = 0
        for terms in rows:
            if rank == cap:
                break
            if terms and self.add(terms):
                rank += 1
        return rank


def integer_form(b, lt):
    """(L, tail), the reducer that reduce_vector uses for b, tail holding
    the terms of b other than its lead term lt: over Q, b's primitive
    integer multiple, whose lead coefficient L is positive; over F_p, b
    made monic, with L = 1."""
    fld = b.field
    return _primitive(b.terms if fld.p is not None else _cleared(b.terms)[1], lt, fld)


def reduce_vector(v: Vector, basis, lts=None, forms=None):
    """Full normal form of v against a list of nonzero vectors, each used
    through its integer form, so any nonzero multiple of it will do: one
    gb._reduce on v cleared of its denominators, with the reducers from
    forms or built from basis by integer_form.  The vector has Fraction
    coefficients over Q and residues over F_p, those of exact field
    arithmetic, so it can be held to reference_reduce_vector."""
    if lts is None:
        lts = [b.leading_term()[0] for b in basis]
    if forms is None:
        forms = [integer_form(b, lt) for b, lt in zip(basis, lts)]
    fld = v.module.ring.field
    if fld.p is not None:
        return Vector(v.module, _reduce(dict(v.terms), lts, forms, fld.reduce)[2])
    scale, work = _cleared(v.terms)
    num, den, out = _reduce(work, lts, forms, fld.reduce)
    return Vector(v.module, {t: Fraction(c * num, den * scale) for t, c in out.items()})


def reference_reduce_vector(v: Vector, basis, lts=None):
    """Full normal form of v against a list of monic vectors.

    The terms still to be reduced sit in the dict work; a min-heap of
    term_key(t) + (t,) holds one entry for each time a term t enters work,
    so its top is the leading term of work.  A popped entry whose term has
    since cancelled out of work is skipped.  A processed term never comes
    back, since every other term of its reducer is smaller, so terms are
    processed in descending order.  Against an empty basis v is its own
    normal form, and a copy of it comes back at once.
    """
    if not basis:
        return Vector(v.module, dict(v.terms))
    if lts is None:
        lts = [b.leading_term()[0] for b in basis]
    reduce = v.module.ring.field.reduce
    out = {}
    work = dict(v.terms)
    heap = [term_key(t) + (t,) for t in work]
    heapify(heap)
    while heap:
        term = heappop(heap)[-1]
        coeff = work.get(term)
        if coeff is None:
            continue
        pos, mon = term
        hit = None
        for b, (bpos, bmon) in zip(basis, lts):
            if bpos == pos:
                q = mon_div(mon, bmon)
                if q is not None:
                    hit = (b, q)
                    break
        if hit is None:
            out[term] = coeff
            del work[term]
            continue
        b, q = hit
        for bt, bc in b.terms.items():
            t = term_mul(bt, q)
            old = work.get(t)
            if old is None:
                # a new term: nonzero, as a product of two nonzero ones
                work[t] = reduce(-(bc * coeff))
                heappush(heap, term_key(t) + (t,))
            elif s := reduce(old - bc * coeff):
                work[t] = s
            else:
                del work[t]
    return Vector(v.module, out)


def reference_spair(f, mf, g, mg):
    """The S-vector of f and g, whose lead monomials are mf and mg."""
    lcm = mon_lcm(mf, mg)
    one = f.field.one()
    return Vector(f.module, lincomb(f.field.reduce,
                                    [(one, mon_div(lcm, mf), f.terms),
                                     (-one, mon_div(lcm, mg), g.terms)], term_mul))


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


def contains(gb, v):
    """Whether v lies in the submodule of which gb is the SubmoduleGB."""
    return reference_reduce_vector(v, gb.basis).is_zero()


def colon_submodule(n_gens, f: Poly, ambient: FreeModule):
    """Generators of (N :_F f) = {v in F : f*v in N}; the tests' reference
    for the colons that hilbert.colon_series measures."""
    if f.is_zero():
        raise GBError("colon by zero")
    if not f.is_homogeneous():
        raise GBError("colon by inhomogeneous element")
    d = f.total_degree()
    shifted = FreeModule(ambient.ring, [t + d for t in ambient.twists])
    mul = ModuleMap(shifted, ambient, ambient.ideal_multiples([f]))
    ker = kernel_of_map(mul, target_relations=list(n_gens))
    return [ambient.embed(k) for k in ker]


def reference_buchberger(gens):
    """Reduced Groebner basis of the submodule generated by gens.

    Input vectors must be homogeneous; returns monic, auto-reduced basis
    sorted by leading term, the leading one first.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    module = gens[0].module
    fld = module.ring.field
    for g in gens:
        if not g.is_homogeneous():
            raise GBError("inhomogeneous generator")
    basis = []
    lts = []

    def adjoin(r):
        """Append r, made monic, and its lead term; True unless r is zero."""
        if r.is_zero():
            return False
        lt, c = r.leading_term()
        basis.append(r.scale(fld.inv(c)))
        lts.append(lt)
        return True

    for g in gens:
        adjoin(reference_reduce_vector(g, basis, lts))

    rank1 = module.rank == 1
    pairs = set()

    def lcm_of(i, j):
        return mon_lcm(lts[i][1], lts[j][1])

    def add_pairs(j):
        for i in range(j):
            if lts[i][0] != lts[j][0]:
                continue
            # product criterion is only valid in the ideal case
            if rank1 and mon_lcm(lts[i][1], lts[j][1]) == tuple(
                    a + b for a, b in zip(lts[i][1], lts[j][1])):
                continue
            pairs.add((i, j))

    for j in range(len(basis)):
        add_pairs(j)

    while pairs:
        i, j = min(pairs, key=lambda p: (mon_deg(lcm_of(*p)), p))
        pairs.remove((i, j))
        # chain criterion: some k whose leading monomial divides the lcm,
        # with both sub-pairs already handled (not pending)
        lcm = lcm_of(i, j)
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or lts[k][0] != lts[i][0]:
                continue
            if mon_div(lcm, lts[k][1]) is not None:
                pi = (min(i, k), max(i, k))
                pj = (min(j, k), max(j, k))
                if pi not in pairs and pj not in pairs:
                    skip = True
                    break
        if skip:
            continue
        s = reference_spair(basis[i], lts[i][1], basis[j], lts[j][1])
        if adjoin(reference_reduce_vector(s, basis, lts)):
            add_pairs(len(basis) - 1)

    # minimalize: drop elements whose lead is divisible by another lead
    keep = []
    for i, lt in enumerate(lts):
        redundant = any(k != i and lts[k][0] == lt[0]
                        and mon_div(lt[1], lts[k][1]) is not None
                        and (lts[k] != lt or k < i)
                        for k in range(len(basis)))
        if not redundant:
            keep.append(i)
    keep.sort(key=lambda i: term_key(lts[i]))
    # interreduce tails: each result is the one reduced-basis element with
    # that lead term (coefficient 1), so the order of the reducers does not
    # change it
    return [reference_reduce_vector(basis[i], [basis[k] for k in keep if k != i],
                                    [lts[k] for k in keep if k != i])
            for i in keep]


def reference_minimal_generators(gens, basis=()):
    """Greedy minimal generating subset (graded Nakayama, by degree).

    basis is a Groebner basis of a submodule I to work modulo: the kept
    generators then minimally generate (⟨gens⟩ + I)/I.
    """
    gens = [g for g in gens if not g.is_zero()]
    gens.sort(key=lambda g: g.degree())
    kept = []
    basis = list(basis)
    for g in gens:
        r = reference_reduce_vector(g, basis)
        if not r.is_zero():
            kept.append(g)
            basis = reference_buchberger(basis + [r])
    return kept


def _regular_sequence_in(polys, ring, count, rng):
    """count forms inside the ideal (polys) cutting the dimension by count."""
    target_deg = max(p.total_degree() for p in polys)
    chosen = []
    d = ring.num_vars
    for i in range(count):
        for _ in range(REGULAR_SEQUENCE_TRIES):
            f = ring.zero()
            for p in polys:
                f = f + ring.random_form(target_deg - p.total_degree(), rng) * p
            if f.is_zero():
                continue
            quo = GradedModule.quotient_ring(ring, chosen + [f])
            if dim_module(quo) == d - (i + 1):
                chosen.append(f)
                break
        else:
            raise GBError("failed to cut the annihilator down to a "
                          "complete intersection")
    return chosen


def reference_unmixed_series(module):
    """HS(U) = HS(M) − HS(M/U), U the largest submodule of lower dimension.

    U is the kernel of the biduality map into the dual over a complete
    intersection S/(f) ⊆ Ann(M) of codimension d − dim M; elements of U
    are exactly the ones killed by every hom into S/(f), a condition linear
    in the hom and void on (f)F₀*.
    """
    ring = module.ring
    if is_zero_module(module):
        return {}
    c = ring.num_vars - dim_module(module)
    ci = (_regular_sequence_in(annihilator(module), ring, c, random.Random(7))
          if c else [])
    # Hom_{S/(ci)}(M, S/(ci)) as rows, minimal mod (ci)F₀*
    pres = minimal_presentation(module)
    t = pres.presentation.transpose()
    homs = kernel_of_map(t, target_relations=t.target.ideal_multiples(ci))
    homs = minimal_generators(homs, t.source.ideal_multiples(ci))
    if not homs:
        raise GBError("dual over the complete intersection is zero")
    # evaluation at the homs, F₀ → ⊕_h S(deg h), is the transpose of the
    # map whose columns are the homs
    hom_source = FreeModule(ring, [h.degree() for h in homs])
    psi = ModuleMap(hom_source, homs[0].module, homs).transpose()
    u_gens = kernel_of_map(psi, target_relations=psi.target.ideal_multiples(ci))
    return shifted_sum([(1, 0, hilbert_series(module)),
                        (-1, 0, hilbert_series(quotient_module(pres, u_gens)))])


def reference_pack(fld, forms, slots, w):
    """A table, one row per form {term: c}: over F_p one int with c in slot
    slots[term] of w bits, over Q a {slot: c} dict of integers, the whole
    table scaled by the lcm of its denominators."""
    if fld.p is None:
        den = lcm(*(c.denominator for f in forms for c in f.values()))
        return [{slots[u]: c.numerator * (den // c.denominator)
                 for u, c in f.items()} for f in forms]
    rows = []
    for f in forms:
        row = 0
        for u, c in f.items():
            row |= c << w * slots[u]
        rows.append(row)
    return rows


class _ReferenceSpace(_Space):
    """M as the one block of every level of Q^k·M, whose table of g_j on
    degree s packs NF(g_j·u), one reduce_vector call on the product vector
    g_j·u for each standard term u of degree s.  Its entries are reduced,
    so they are below p."""

    def table(self, j, s, w, dst):
        module, g = self.base, self.parts[j][0][1]
        gb = module_gb(module)
        lts = gb.leading_terms()
        amb = module.ambient

        def times(u):
            pos, mon = u
            v = Vector(amb, {(pos, mon_mul(mon, m)): c for m, c in g.terms.items()})
            return reduce_vector(v, gb.basis, lts, gb.forms).terms
        slots = {u: i for i, u in
                 enumerate(_standard_terms(module, s + g.total_degree()))}
        return reference_pack(module.ring.field,
                              [times(u) for u in _standard_terms(module, s)],
                              slots, w)


def reference_module_powers(module, gens):
    """The filtration Q^k·M by Q = (gens) as a _Powers on _ReferenceSpace's
    tables."""
    parts = [[((), g)] for g in gens if not g.is_zero()]
    return _Powers(repeat(_ReferenceSpace(module, [()], parts)))


def reference_tor_lengths(module, forms):
    """λ(Tor_i^S(M, S/(forms))) for i = 0..len(forms), the homology of M's
    minimal free resolution F modulo (forms): H_i = Z_i/B_i, with
    Z_i = {v ∈ F_i : d_i·v ∈ (forms)F_{i−1}} and B_i = im d_{i+1} +
    (forms)F_i, measured as HS(F_i/B_i) − HS(F_i/Z_i).  When the forms are
    an S-regular sequence these are the lengths of H_i(forms; M)."""
    n = module.ring.num_vars
    maps = minimal_free_resolution(module)
    frees = [minimal_presentation(module).ambient] + [d.source for d in maps]
    lengths = []
    for i in range(len(forms) + 1):
        if i >= len(frees):
            lengths.append(0)
            continue
        free = frees[i]
        bounds = free.ideal_multiples(forms)
        if i < len(maps):
            bounds += maps[i].columns()
        if i == 0:
            cycles = [free.basis(k) for k in range(free.rank)]
        else:
            cycles = kernel_of_map(
                maps[i - 1], target_relations=frees[i - 1].ideal_multiples(forms))
        num = shifted_sum([
            (1, 0, hilbert_series(GradedModule.from_relations(free, bounds))),
            (-1, 0, hilbert_series(GradedModule.from_relations(free, cycles)))])
        lengths.append(series_length(num, n))
    return lengths


def koszul_stage(module, forms, i):
    """C_i = F₀ ⊗ Λ^i on len(forms) symbols, F₀ M's ambient: a block of
    F₀(−deg x_T) for each i-subset T, in combinations' order."""
    degs = [f.total_degree() for f in forms]
    return FreeModule(module.ring, [
        t + sum(degs[s] for s in T)
        for T in combinations(range(len(forms)), i)
        for t in module.ambient.twists])


def koszul_differential(module, forms, i):
    """d_i : C_i → C_{i−1}; the column of e_b ⊗ e_T is
    Σ_j (−1)^j x_{T_j}·e_b ⊗ e_{T∖T_j}, whose summands sit at distinct
    positions."""
    r, f = len(forms), module.ambient.rank
    fld = module.ring.field
    tgt = koszul_stage(module, forms, i - 1)
    lower = {T: k for k, T in enumerate(combinations(range(r), i - 1))}
    cols = []
    for T in combinations(range(r), i):
        for b in range(f):
            terms = {}
            for j, s in enumerate(T):
                pos = lower[T[:j] + T[j + 1:]] * f + b
                for m, c in forms[s].terms.items():
                    terms[(pos, m)] = c if j % 2 == 0 else fld.reduce(-c)
            cols.append(Vector(tgt, terms))
    return ModuleMap(koszul_stage(module, forms, i), tgt, cols)


def stage_relations(module, stage, i, r):
    """M's relations carried into every block of C_i."""
    f = module.ambient.rank
    return [stage.embed(w, blk * f) for blk in range(comb(r, i))
            for w in module.relations()]


def reference_koszul_lengths(module, forms):
    """λ(H_i(forms; M)) for i = 0..len(forms) off the Koszul complex:
    with B_i = im d_{i+1} + M's relations and Z_i = d_i^{−1}(M's
    relations in C_{i−1}), the cycles by one elimination basis,
    λ(H_i) = λ(C_i/B_i) − λ(C_i/Z_i) from two Hilbert series; None where
    it is infinite."""
    r, n = len(forms), module.ring.num_vars
    lengths = []
    for i in range(r + 1):
        stage = koszul_stage(module, forms, i)
        bounds = stage_relations(module, stage, i, r)
        if i == 0:
            cycles = [stage.basis(k) for k in range(stage.rank)]
        else:
            prev = koszul_stage(module, forms, i - 1)
            cycles = kernel_of_map(
                koszul_differential(module, forms, i),
                target_relations=stage_relations(module, prev, i - 1, r))
        if i < r:
            bounds += [c for c in koszul_differential(module, forms, i + 1).columns()
                       if not c.is_zero()]
        num = shifted_sum([
            (1, 0, hilbert_series(GradedModule.from_relations(stage, bounds))),
            (-1, 0, hilbert_series(GradedModule.from_relations(stage, cycles)))])
        lengths.append(series_length(num, n))
    return lengths


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


def _monomials(nvars, deg):
    out = []
    for combo in combinations_with_replacement(range(nvars), deg):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def quotient_length(p, nvars, twists, vectors, max_degree=60):
    """λ(F/K) for F = ⊕ S(−twists[i]) and K spanned by homogeneous vectors
    {(pos, exponents): integer or Fraction}, read modulo p.

    In each degree the rank of the Macaulay matrix of K's monomial
    multiples is subtracted from dim F_t.  F/K is generated in degrees at
    most max(twists), so its first zero component at or above that degree
    is its end.  Returns None when no such degree is found by max_degree.
    """
    gens = []
    for v in vectors:
        deg = {twists[pos] + sum(mon) for pos, mon in v}
        if len(deg) != 1:
            raise ValueError("inhomogeneous vector")
        gens.append((deg.pop(), {k: Fraction(c).numerator
                                 * pow(Fraction(c).denominator, -1, p) % p
                                 for k, c in v.items()}))
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
        rank = len(ech.pivots)
        total += free - rank
        if free == rank and t >= top:
            return total
    return None
