"""Groebner bases for submodules of graded free modules.

Homogeneous Buchberger over the position-over-term extension of grevlex,
one degree at a time, which also yields minimal generators (M. Kreuzer
and L. Robbiano, Computational Commutative Algebra 2, Springer 2005).
The basis stays reduced as it grows: a new element's lead term can occur
in an older, homogeneous element of no larger degree only as that very
term, so one reduction by the new element alone clears it.
Kernels and the annihilator, the colon (W :_S F), go through one
elimination primitive, kernel_of_map: a Groebner basis in target ⊕ source
where the target block dominates.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .modules import (FreeModule, GradedModule, ModuleMap, Vector, memoized,
                      term_key, term_mul)
from .poly import Poly, PolyError, lincomb, mon_deg, mon_div, mon_lcm, mon_mul


class GBError(PolyError):
    pass


def reduce_vector(v: Vector, basis, lts=None):
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


def _spair(f, mf, g, mg):
    """The S-vector of f and g, whose lead monomials are mf and mg."""
    lcm = mon_lcm(mf, mg)
    one = f.field.one()
    return Vector(f.module, lincomb(f.field.reduce,
                                    [(one, mon_div(lcm, mf), f.terms),
                                     (-one, mon_div(lcm, mg), g.terms)], term_mul))


def _groebner(base, gens):
    """The reduced Groebner basis of ⟨base⟩ + ⟨gens⟩, and the gens that
    minimally generate it modulo ⟨base⟩, from one homogeneous run.

    One heap holds the S-pairs and the input vectors, keyed by degree, a
    pair's being that of its lcm.  In each degree t the S-pairs come first,
    those at later positions (smaller lcm in position-over-term order,
    which over Q keeps the coefficients of eliminations smaller) before
    the others; then base's vectors, then gens' in input order.  So the
    basis is a Groebner basis up to degree t when a vector of degree t is
    reduced, and a gen is kept exactly when it reduces to something
    nonzero (graded Nakayama).  A remainder r joins the basis monic, in a
    degree no smaller than any basis vector's and reduced against them
    all, so no lead term divides another and the basis stays minimal.
    Each older b holding r's lead term lt is reduced by r alone: a term of
    b at lt's position that lt divides has degree ≥ deg r ≥ deg b, so it
    is lt itself.  So every tail stays reduced, with no final pass.  A
    pair is dropped by the product criterion, in the ideal case only, or
    by the chain criterion: some k whose lead divides the lcm, with both
    sub-pairs no longer pending.  Inputs must be homogeneous.
    """
    # S-pair (i, j): (degree, 0, -position, i, j); vector v, i-th of base
    # (kind 1) or gens (kind 2): (degree, kind, 0, i, v), v never compared
    heap = [(v.degree(), kind, 0, i, v) for kind, vs in ((1, base), (2, gens))
            for i, v in enumerate(vs) if v]
    if not heap:
        return [], []
    heapify(heap)
    module = heap[0][-1].module
    fld = module.ring.field
    rank1 = module.rank == 1
    pending = set()
    basis, lts, kept = [], [], []
    while heap:
        _, kind, _, i, v = heappop(heap)
        if not kind:
            j = v
            pending.remove((i, j))
            pos, lcm = lts[i][0], mon_lcm(lts[i][1], lts[j][1])
            if any(k != i and k != j and lts[k][0] == pos
                   and mon_div(lcm, lts[k][1]) is not None
                   and (min(i, k), max(i, k)) not in pending
                   and (min(j, k), max(j, k)) not in pending
                   for k in range(len(basis))):
                continue
            v = _spair(basis[i], lts[i][1], basis[j], lts[j][1])
        r = reduce_vector(v, basis, lts)
        if r.is_zero():
            continue
        if kind == 2:
            kept.append(v)
        lt, c = r.leading_term()
        r = r.scale(fld.inv(c))
        basis = [reduce_vector(b, [r], [lt]) if lt in b.terms else b
                 for b in basis]
        basis.append(r)
        lts.append(lt)
        new = len(basis) - 1
        for i, (pos, mon) in enumerate(lts[:new]):
            if pos != lt[0]:
                continue
            lcm = mon_lcm(mon, lt[1])
            # product criterion is only valid in the ideal case
            if not (rank1 and lcm == mon_mul(mon, lt[1])):
                pending.add((i, new))
                heappush(heap, (mon_deg(lcm) + module.twists[pos], 0, -pos, i, new))
    return [b for _, b in sorted(zip(lts, basis), key=lambda p: term_key(p[0]))], kept


def buchberger(gens):
    """Reduced Groebner basis of the homogeneous gens' span: monic and
    sorted by leading term, the leading one first."""
    return _groebner((), gens)[0]


class SubmoduleGB:
    """A submodule of a free module given by its reduced basis."""

    def __init__(self, generators):
        self.basis = buchberger(generators)
        self._lts = [b.leading_term()[0] for b in self.basis]

    def leading_terms(self):
        return list(self._lts)


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
    return [f.source.embed(b, -offset)
            for b in buchberger(gens) if all(i >= offset for i, _ in b.terms)]


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
    return _groebner(base, gens)[1]


@memoized()
def module_gb(module: GradedModule) -> SubmoduleGB:
    return SubmoduleGB(module.relations())


def is_zero_module(module: GradedModule) -> bool:
    """M = 0 exactly when every e_i is a lead term of M's basis."""
    lts = module_gb(module).leading_terms()
    return all((i, module.ring.zero_mon) in lts for i in range(module.ambient.rank))


def quotient_module(module: GradedModule, extra_relations) -> GradedModule:
    """M / <extra relations>, presented over the same ambient."""
    rels = module.relations() + [r for r in extra_relations if not r.is_zero()]
    return GradedModule.from_relations(module.ambient, rels)


@memoized(lambda module, polys: tuple(map(repr, polys)))
def quotient_by_ideal(module: GradedModule, polys) -> GradedModule:
    """M/(polys)M, keyed by polys in order, the order of its relations."""
    return quotient_module(module, module.ambient.ideal_multiples(polys))


def minimize_presentation(pres: ModuleMap) -> ModuleMap:
    """Cancel unit entries and redundant columns; result has entries in m.

    The columns are cut to minimal generators once.  Then each round takes
    the first column with a unit entry, at its lowest position i, clears
    coordinate i from the other columns with it, and drops that column and
    e_i: an invertible graded change of generators that splits off the
    pivot's span, so the columns left stay minimal.
    """
    ring = pres.source.ring
    fld = ring.field
    amb = pres.target
    columns = minimal_generators(pres.columns())
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
    return GradedModule(minimize_presentation(module.presentation))


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
