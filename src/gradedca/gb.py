"""Groebner bases for submodules of graded free modules.

Buchberger with degree-first pair selection over the position-over-term
extension of grevlex.  Kernels and the annihilator, the colon (W :_S F),
go through one elimination primitive, kernel_of_map: a Groebner basis in
target ⊕ source where the target block dominates.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .modules import (FreeModule, GradedModule, ModuleMap, Vector, memoized,
                      term_key, term_mul)
from .poly import Poly, PolyError, lincomb, mon_deg, mon_div, mon_lcm


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
            s = reduce((old or 0) - bc * coeff)
            if s == 0:
                if old is not None:
                    del work[t]
            else:
                if old is None:
                    heappush(heap, term_key(t) + (t,))
                work[t] = s
    return Vector(v.module, out)


def _spair(f, mf, g, mg):
    """The S-vector of f and g, whose lead monomials are mf and mg."""
    lcm = mon_lcm(mf, mg)
    return Vector(f.module, lincomb(f.field.reduce,
                                    [(1, mon_div(lcm, mf), f.terms),
                                     (-1, mon_div(lcm, mg), g.terms)], term_mul))


def buchberger(gens):
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
        adjoin(reduce_vector(g, basis, lts))

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
        s = _spair(basis[i], lts[i][1], basis[j], lts[j][1])
        if adjoin(reduce_vector(s, basis, lts)):
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
    return [reduce_vector(basis[i], [basis[k] for k in keep if k != i],
                          [lts[k] for k in keep if k != i])
            for i in keep]


class SubmoduleGB:
    """A submodule of a free module together with its reduced basis."""

    def __init__(self, ambient: FreeModule, generators):
        self.ambient = ambient
        self.generators = list(generators)
        self.basis = buchberger(self.generators)
        self._lts = [b.leading_term()[0] for b in self.basis]

    def normal_form(self, v: Vector) -> Vector:
        if v.module.ring != self.ambient.ring or v.module.rank != self.ambient.rank:
            raise GBError("ambient mismatch")
        return reduce_vector(v, self.basis, self._lts)

    def contains(self, v: Vector) -> bool:
        return self.normal_form(v).is_zero()

    def leading_terms(self):
        return list(self._lts)

    def is_zero(self):
        return not self.basis


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


def minimal_generators(gens, basis=()):
    """Greedy minimal generating subset (graded Nakayama, by degree).

    basis is a Groebner basis of a submodule I to work modulo: the kept
    generators then minimally generate (⟨gens⟩ + I)/I.
    """
    gens = [g for g in gens if not g.is_zero()]
    gens.sort(key=lambda g: g.degree())
    kept = []
    basis = list(basis)
    for g in gens:
        r = reduce_vector(g, basis)
        if not r.is_zero():
            kept.append(g)
            basis = buchberger(basis + [r])
    return kept


@memoized()
def module_gb(module: GradedModule) -> SubmoduleGB:
    return SubmoduleGB(module.ambient, module.relations())


def is_zero_module(module: GradedModule) -> bool:
    gb = module_gb(module)
    return all(gb.contains(module.ambient.basis(i))
               for i in range(module.ambient.rank))


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

    Each round takes the first column with a unit entry, at its lowest
    position i, clears coordinate i from the other columns with it, and
    drops that column and e_i.
    """
    ring = pres.source.ring
    fld = ring.field
    amb = pres.target
    columns = pres.columns()
    while True:
        columns = minimal_generators(columns)
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
    i_gens = [g for g in i_gens if not g.is_zero()]
    kept = minimal_generators(k_gens, buchberger(i_gens))
    if not kept:
        return GradedModule.free(ambient.ring, [])
    g0 = FreeModule(ambient.ring, [g.degree() for g in kept])
    psi = ModuleMap(g0, ambient, kept)
    rels = kernel_of_map(psi, target_relations=i_gens)
    rels = [r for r in rels if not r.is_zero()]
    src = FreeModule(ambient.ring, [r.degree() for r in rels])
    return GradedModule(ModuleMap(src, g0, rels))
