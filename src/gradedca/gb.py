"""Groebner bases for submodules of graded free modules.

Homogeneous Buchberger over the position-over-term extension of grevlex,
one degree at a time, which also yields minimal generators (M. Kreuzer
and L. Robbiano, Computational Commutative Algebra 2, Springer 2005).
The basis stays reduced as it grows: a new element's lead term can occur
in an older, homogeneous element of no larger degree only as that very
term, so one reduction by the new element alone clears it.
The run works on integers, fraction-free, from the first S-pair to the
end: each basis element is kept as its integer form, over Q its
primitive integer multiple (as hilbert._echelon's rows are), and every
remainder comes out of one integer reduction loop, _reduce, and becomes
its integer form by one content division.  _reduce is the one reduction
kernel: hilbert's normal forms call it on the run's integer forms too.
No Fraction is built inside the run; a SubmoduleGB keeps the run's lead
terms and integer forms, and builds its monic vectors, with Fraction
coefficients over Q, only when they are first read.
A run may start from a seed, the reduced basis of a submodule of the
span: the basis of M/(f)M starts from M's, when M's is built, and
reduces only the multiples f·e_i.  Seed elements are reduced like any
other vector, and the S-pair of two of them that both keep their lead
terms is never formed, since the seed already gives it a representation
below its lcm (_groebner).
Kernels and the annihilator, the colon (W :_S F), go through one
elimination primitive, kernel_of_map: a Groebner basis in target ⊕ source
where the target block dominates.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import sub

from .modules import (FreeModule, GradedModule, ModuleMap, Vector, memoized,
                      term_key, term_mul)
from .poly import Poly, PolyError, lincomb, mon_deg, mon_div, mon_lcm, mon_mul


class GBError(PolyError):
    pass


def _cleared(terms):
    """(den, terms times den), den the lcm of the denominators of the
    rational coefficients, ints or Fractions."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {t: c.numerator * (den // c.denominator) for t, c in terms.items()}


def _primitive(ints, lt, fld):
    """(L, tail), the integer form of the nonzero vector whose terms are
    ints, lt among them: over Q, integers divided by their content, signed
    so that L is positive; over F_p, residues made monic, with L = 1."""
    if fld.p is not None:
        inv = fld.inv(ints[lt])
        return 1, {t: c * inv % fld.p for t, c in ints.items() if t != lt}
    content = gcd(*ints.values())
    if ints[lt] < 0:
        content = -content
    return ints[lt] // content, {t: c // content for t, c in ints.items() if t != lt}


def _monic(module, lt, form):
    """The monic vector with lead term lt whose integer form is form."""
    lead, tail = form
    if module.ring.field.p is None:
        tail = {t: Fraction(c, lead) for t, c in tail.items()}
    return Vector(module, {lt: module.ring.field.one(), **tail})


def _reduce(work, lts, forms, reduce):
    """The normal form of the integer vector work, a dict it uses up,
    against the reducers with lead terms lts and integer forms forms, as
    (num, den, out): the normal form is (num/den)·out, out an integer
    dict in descending term order.  reduce is the field's, so over F_p
    every coefficient is a residue.

    A term c·x^q·lt is cleared in three parts: g = gcd(L, c); the pending
    and the emitted terms are scaled by L/g, and den with it; then
    (c/g)·x^q·tail is subtracted.  After a scaling step the content of
    pending and emitted terms together moves into num, so coefficients do
    not grow.  Over F_p, L = 1: no gcd and no scaling, and num = den = 1.

    The pending terms sit in work; a min-heap of term_key(t) + (t,) holds
    one entry for each time a term t enters work, so its top is the
    leading term of work.  A popped entry whose term has since cancelled
    out of work is skipped.  A processed term never comes back, since
    every other term of its reducer is smaller, so terms are processed,
    and emitted, in descending order.
    """
    num = den = 1
    out = {}
    heap = [term_key(t) + (t,) for t in work]
    heapify(heap)
    while heap:
        term = heappop(heap)[-1]
        coeff = work.pop(term, None)
        if coeff is None:
            continue
        pos, mon = term
        for form, (bpos, bmon) in zip(forms, lts):
            if bpos == pos:
                # a ring has at least one variable, so q is never empty
                q = tuple(map(sub, mon, bmon))
                if min(q) >= 0:
                    break
        else:
            out[term] = coeff
            continue
        lead, tail = form
        scaled = False
        if lead != 1:
            g = gcd(lead, coeff)
            coeff //= g
            if g != lead:
                m = lead // g
                for t in work:
                    work[t] *= m
                for t in out:
                    out[t] *= m
                den *= m
                scaled = True
        for bt, bc in tail.items():
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
        if scaled:
            content = gcd(*work.values(), *out.values())
            if content > 1:
                for t in work:
                    work[t] //= content
                for t in out:
                    out[t] //= content
                num *= content
            g = gcd(num, den)
            num //= g
            den //= g
    return num, den, out


def _groebner(base, gens, seed=None):
    """The reduced Groebner basis of ⟨seed⟩ + ⟨base⟩ + ⟨gens⟩, as its module,
    lead terms and integer forms sorted by lead term, and the gens that
    minimally generate it modulo ⟨seed⟩ + ⟨base⟩, from one homogeneous run.
    seed, when given, is the SubmoduleGB of a submodule of the span.

    One heap holds the S-pairs and the input vectors, keyed by degree, a
    pair's being that of its lcm.  In each degree t the S-pairs come first,
    those at later positions (smaller lcm in position-over-term order,
    which over Q keeps the coefficients of eliminations smaller) before
    the others; then seed's elements, then base's vectors, then gens' in
    input order.  So the basis is a Groebner basis up to degree t when a
    vector is reduced, and a gen is kept exactly when it reduces to
    something nonzero (graded Nakayama).  A remainder joins the basis in a
    degree no smaller than any basis element's and reduced against them
    all, so no lead term divides another and the basis stays minimal.
    Each older element holding the new lead term lt is reduced by the new
    one alone: a term at lt's position that lt divides has degree ≥ the
    new element's ≥ the older one's, so it is lt itself.  So every tail
    stays reduced, with no final pass.

    The run is on integer forms throughout.  An input vector is cleared
    of its denominators, and a seed element enters as its integer form; an
    S-pair is formed from the forms as
    (L_j/g)·m_i·tail_i − (L_i/g)·m_j·tail_j, g = gcd(L_i, L_j), a positive
    multiple of the monic S-pair whose lead terms cancel, and already
    integer.  Each comes out of _reduce as an integer remainder, whose
    integer form is one content division and a sign fix away; an older
    element's form is reduced in place of it.  A pair is dropped by the
    product criterion, in the ideal case only, or by the chain criterion:
    some k whose lead divides the lcm, with both sub-pairs no longer
    pending.  The pair of two seed elements that both kept their lead
    terms is never formed: over the seed, a Groebner basis, their S-vector
    is a combination with every lead term below the lcm; over the basis,
    each seed element is one with no lead term above its own (its
    reduction and the tail reductions since), and one that kept its lead
    term differs from its basis element by smaller terms.  So that
    representation carries over, which is all that Buchberger's and the
    chain criterion ask of a pair.  Inputs must be homogeneous.
    """
    # S-pair (i, j): (degree, 0, -position, i, j); input (degree, 1, 0, i, v):
    # the k-th seed element at i = k − len(seed), v = k, base's i-th vector
    # at i ≥ 0; the i-th of gens (degree, 2, 0, i, v); v never compared
    heap = [(v.degree(), kind, 0, i, v) for kind, vs in ((1, base), (2, gens))
            for i, v in enumerate(vs) if v]
    seeds = seed.lts if seed is not None else []
    if seeds:
        module = seed.ambient
        heap += [(mon_deg(mon) + module.twists[pos], 1, 0, k - len(seeds), k)
                 for k, (pos, mon) in enumerate(seeds)]
    elif heap:
        module = heap[0][-1].module
    else:
        return None, [], [], []
    heapify(heap)
    fld = module.ring.field
    reduce, rational = fld.reduce, fld.p is None
    rank1 = module.rank == 1
    pending = set()
    lts, forms, kept = [], [], []
    seeded = set()  # basis elements that are seed elements with their lead terms
    while heap:
        _, kind, _, i, v = heappop(heap)
        if kind and i < 0:
            lead, tail = seed.forms[v]
            work = {seeds[v]: lead, **tail}
        elif kind:
            work = _cleared(v.terms)[1] if rational else dict(v.terms)
        else:
            j = v
            pending.remove((i, j))
            pos, lcm = lts[i][0], mon_lcm(lts[i][1], lts[j][1])
            if any(k != i and k != j and lts[k][0] == pos
                   and mon_div(lcm, lts[k][1]) is not None
                   and (min(i, k), max(i, k)) not in pending
                   and (min(j, k), max(j, k)) not in pending
                   for k in range(len(lts))):
                continue
            (li, fi), (lj, fj) = forms[i], forms[j]
            g = gcd(li, lj)
            work = lincomb(reduce, [(lj // g, mon_div(lcm, lts[i][1]), fi),
                                    (-(li // g), mon_div(lcm, lts[j][1]), fj)],
                           term_mul)
        out = _reduce(work, lts, forms, reduce)[2]
        if not out:
            continue
        if kind == 2:
            kept.append(v)
        lt = next(iter(out))
        form = _primitive(out, lt, fld)
        for k, (lead, tail) in enumerate(forms):
            if lt in tail:
                older = _reduce({lts[k]: lead, **tail}, [lt], [form], reduce)[2]
                forms[k] = _primitive(older, lts[k], fld)
        lts.append(lt)
        forms.append(form)
        new = len(lts) - 1
        if kind and i < 0 and lt == seeds[v]:
            seeded.add(new)
        for i, (pos, mon) in enumerate(lts[:new]):
            if pos != lt[0] or (new in seeded and i in seeded):
                continue
            lcm = mon_lcm(mon, lt[1])
            # product criterion is only valid in the ideal case
            if not (rank1 and lcm == mon_mul(mon, lt[1])):
                pending.add((i, new))
                heappush(heap, (mon_deg(lcm) + module.twists[pos], 0, -pos, i, new))
    order = sorted(range(len(lts)), key=lambda k: term_key(lts[k]))
    return module, [lts[k] for k in order], [forms[k] for k in order], kept


def buchberger(gens):
    """Reduced Groebner basis of the homogeneous gens' span: monic and
    sorted by leading term, the leading one first."""
    return SubmoduleGB(gens).basis


class SubmoduleGB:
    """A submodule of a free module given by its reduced Groebner basis:
    the run's lead terms lts and integer forms forms, which _reduce reads,
    and basis, the monic vectors, built from them when first read.  The
    run may start from seed, the SubmoduleGB of a submodule of the span.
    kept lists the generators that minimally generate the span, in
    minimal_generators' order; it is None after a seeded run, whose kept
    generators are minimal only modulo the seed."""

    def __init__(self, generators, seed=None):
        self.ambient, self.lts, self.forms, kept = _groebner((), generators, seed)
        self.kept = kept if seed is None else None

    @cached_property
    def basis(self):
        return [_monic(self.ambient, lt, form)
                for lt, form in zip(self.lts, self.forms)]

    def leading_terms(self):
        return list(self.lts)


def kernel_of_map(f: ModuleMap, target_relations=()):
    """Generators of ker(source -> target/<target_relations>).

    Elimination: Groebner basis of the graph vectors (f(e_j), e_j) plus
    (w, 0) for the relations, in target ⊕ source with the target block
    dominating; basis elements with zero target block project to kernel
    generators (in fact the reduced Groebner basis of the kernel).
    """
    offset = f.target.rank
    block = FreeModule(f.source.ring, f.target.twists + f.source.twists)
    gens = [block.embed(col) + block.basis(offset + j)
            for j, col in enumerate(f.columns())]
    gens += [block.embed(w) for w in target_relations]
    # in position-over-term order a lead term in the source block puts
    # every term there
    block, lts, forms, _ = _groebner((), gens)
    return [f.source.embed(_monic(block, lt, form), -offset)
            for lt, form in zip(lts, forms) if lt[0] >= offset]


@memoized()
def annihilator(module: GradedModule):
    """Generators of Ann(M) as polynomials, the reduced basis of the ideal.

    With W the relations and F = ⊕ S(−t_b) the ambient, f kills M exactly
    when f·e_b ∈ W for every b, so Ann(M) = (W :_S F) is one kernel: of
    S → ⊕_b F(−t_b)/W, 1 ↦ Σ_b e_b in block b, with W in every block.  The
    shift by −t_b puts e_b of block b in degree 0, so the map is
    homogeneous whatever the twists.  A rank-0 ambient gives Ann = S.
    """
    ring, amb = module.ring, module.ambient
    rank = amb.rank
    target = FreeModule(ring, [t - tb for tb in amb.twists for t in amb.twists])
    diagonal = sum((target.basis(b * rank + b) for b in range(rank)), target.zero())
    f = ModuleMap(FreeModule(ring, [0]), target, [diagonal])
    rels = module.relations()
    blocks = [target.embed(w, b * rank) for b in range(rank) for w in rels]
    return [k.coordinates()[0] for k in kernel_of_map(f, target_relations=blocks)]


def minimal_generators(gens, base=()):
    """The gens that minimally generate (⟨gens⟩ + ⟨base⟩)/⟨base⟩, in order
    of degree and, within a degree, of input (graded Nakayama); base may
    be any generating set."""
    return _groebner(base, gens)[3]


@memoized()
def module_gb(module: GradedModule) -> SubmoduleGB:
    """M's reduced basis; that of M/(polys)M, while M lives and its basis
    is already built, is seeded with M's and reduces only the multiples
    of polys.  A parent basis that nothing has read is not built for it:
    one unseeded run does the work of two."""
    parent, polys = getattr(module, "_quotient_of", (None, None))
    base = parent() if parent is not None else None
    if base is not None and (seed := module_gb.peek(base)) is not None:
        return SubmoduleGB(module.ambient.ideal_multiples(polys), seed=seed)
    return SubmoduleGB(module.relations())


def is_zero_module(module: GradedModule) -> bool:
    """M = 0 exactly when every e_i is a lead term of M's basis."""
    lts = module_gb(module).leading_terms()
    return all((i, module.ring.zero_mon) in lts for i in range(module.ambient.rank))


def quotient_module(module: GradedModule, extra_relations) -> GradedModule:
    """M / <extra relations>, presented over the same ambient."""
    rels = module.relations() + [r for r in extra_relations if not r.is_zero()]
    return GradedModule.from_relations(module.ambient, rels)


@memoized(forms=tuple)
def quotient_by_ideal(module: GradedModule, polys) -> GradedModule:
    """M/(polys)M, keyed by polys in order, the order of its relations.

    A quotient of a quotient is the quotient by the joined forms:
    (M/aM)/b(M/aM) is the very object M/(a, b)M, whose relations are the
    same in the same order, so it shares that module's basis and series.
    A quotient refers back to M by a weak reference, and a quotient by no
    forms is a new module, never the quotient itself, so no module's
    cache reaches back to it; once M is gone, its quotients' quotients
    are built from them directly.
    """
    parent, head = getattr(module, "_quotient_of", (None, None))
    if polys and parent is not None and (base := parent()) is not None:
        return quotient_by_ideal(base, head + polys)
    quo = quotient_module(module, module.ambient.ideal_multiples(polys))
    quo._quotient_of = (weakref.ref(module), polys)
    return quo


def minimize_presentation(pres: ModuleMap, minimal=None) -> ModuleMap:
    """Cancel unit entries and redundant columns; result has entries in m.

    The columns are cut to minimal generators once, unless minimal already
    lists them, as minimal_generators would.  Then each round takes
    the first column with a unit entry, at its lowest position i, clears
    coordinate i from the other columns with it, and drops that column and
    e_i: an invertible graded change of generators that splits off the
    pivot's span, so the columns left stay minimal.
    """
    ring = pres.source.ring
    fld = ring.field
    amb = pres.target
    columns = list(minimal_generators(pres.columns()) if minimal is None
                   else minimal)
    while True:
        j = next((j for j, col in enumerate(columns)
                  if any(mon_deg(m) == 0 for _, m in col.terms)), None)
        if j is None:
            break
        pivot = columns.pop(j)
        i = min(p for p, m in pivot.terms if mon_deg(m) == 0)
        inv = fld.inv(pivot.terms[(i, ring.zero_mon)])
        amb = FreeModule(ring, amb.twists[:i] + amb.twists[i + 1:])
        kept = []
        for col in columns:
            # clear the whole i-th coordinate, not just the constant part
            coord = Poly(ring, {m: c for (p, m), c in col.terms.items() if p == i})
            if coord.terms:
                col = col - pivot.poly_mul(coord.scale(inv))
            kept.append(Vector(amb, {(p - 1 if p > i else p, m): c
                                     for (p, m), c in col.terms.items() if p != i}))
        columns = kept
    src = FreeModule(ring, [c.degree() for c in columns])
    return ModuleMap(src, amb, columns)


@memoized()
def minimal_presentation(module: GradedModule) -> GradedModule:
    """M on minimal generators and relations; the minimal relations come
    from module_gb's run when that run was not seeded."""
    return GradedModule(minimize_presentation(module.presentation,
                                              module_gb(module).kept))


@memoized()
def minimal_free_resolution(module: GradedModule):
    """Differentials d1, d2, ... of a minimal graded free resolution.

    Over the polynomial ring this terminates within num_vars steps
    (Hilbert syzygy theorem).
    """
    mod = minimal_presentation(module)
    d1 = mod.presentation
    maps = []
    if d1.source.rank > 0:
        maps.append(d1)
    limit = module.ring.num_vars + 1
    while maps:
        if len(maps) > limit:
            raise GBError("resolution did not terminate (internal error)")
        last = maps[-1]
        ker = kernel_of_map(last)
        ker = minimal_generators(ker)
        if not ker:
            break
        src = FreeModule(module.ring, [k.degree() for k in ker])
        maps.append(ModuleMap(src, last.source, ker))
    return maps


def betti_numbers(module: GradedModule):
    """[beta_0, beta_1, ...] of the minimal free resolution."""
    mod = minimal_presentation(module)
    maps = minimal_free_resolution(module)
    return [mod.ambient.rank] + [m.source.rank for m in maps]


def projective_dimension(module: GradedModule):
    if is_zero_module(module):
        return None
    betti = betti_numbers(module)
    return len(betti) - 1


def depth(module: GradedModule):
    """Auslander-Buchsbaum: num_vars - projective dimension."""
    pd = projective_dimension(module)
    if pd is None:
        return float("inf")
    return module.ring.num_vars - pd


def subquotient(k_gens, i_gens, ambient: FreeModule) -> GradedModule:
    """Present K/I for submodules I ⊆ K of a free module, on minimal
    generators of K modulo I."""
    kept = minimal_generators(k_gens, i_gens)
    if not kept:
        return GradedModule.free(ambient.ring, [])
    g0 = FreeModule(ambient.ring, [g.degree() for g in kept])
    psi = ModuleMap(g0, ambient, kept)
    rels = kernel_of_map(psi, target_relations=i_gens)
    rels = [r for r in rels if not r.is_zero()]
    src = FreeModule(ambient.ring, [r.degree() for r in rels])
    return GradedModule(ModuleMap(src, g0, rels))
