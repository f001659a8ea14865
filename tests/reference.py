"""Reference algorithms the tests hold the engine to, kept apart from it.

_RankTracker is exact Gaussian elimination over the coefficient field on
{term: coefficient} dicts, the independent rank count behind the
reference quotient lengths; colon_submodule presents (N :_F f) by one
kernel, the elimination the series colons are checked against.
reference_buchberger is Buchberger with pairs taken by a min() scan over
all pending ones and a minimalizing pass before the interreduction, and
reference_minimal_generators the greedy graded-Nakayama loop that reruns
it for every generator it keeps: the two separate loops that gb._groebner
replaces with one run.  contains is submodule membership by the normal
form against a reduced basis.  reference_unmixed_series is HS(U) by
biduality over a random complete intersection inside Ann(M), apart from
the Ext duals that homology.unmixed_component reads U off.
random_nonzero draws the nonzero coefficients of the random test inputs.
"""

import random
from fractions import Fraction

from gradedca.gb import (GBError, _spair, annihilator, is_zero_module,
                         kernel_of_map, minimal_generators,
                         minimal_presentation, quotient_module, reduce_vector)
from gradedca.hilbert import dim_module, hilbert_series, shifted_sum
from gradedca.modules import FreeModule, GradedModule, ModuleMap, term_key
from gradedca.poly import Poly, mon_deg, mon_div, mon_lcm

REGULAR_SEQUENCE_TRIES = 50  # random draws per form of a regular sequence


def random_nonzero(fld, rng):
    """A uniform nonzero element of F_p, or of −20..20 over Q."""
    if fld.p is None:
        return Fraction(rng.choice([c for c in range(-20, 21) if c]))
    return rng.randrange(1, fld.p)


class _RankTracker:
    """Incremental Gaussian elimination over the coefficient field.

    Rows are sparse {term: coefficient} dicts over any comparable terms;
    pivots are taken in the terms' natural order, since rank does not
    depend on which order picks them.
    """

    def __init__(self, fld):
        self.fld = fld
        self.rows = {}

    def add(self, terms):
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

    def rank(self, rows, cap):
        """Add rows until cap of them are independent; return how many were."""
        rank = 0
        for terms in rows:
            if rank == cap:
                break
            if terms and self.add(terms):
                rank += 1
        return rank


def contains(gb, v):
    """Whether v lies in the submodule of which gb is the SubmoduleGB."""
    return reduce_vector(v, gb.basis).is_zero()


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
        r = reduce_vector(g, basis)
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
