"""Ext duals, local-cohomology lengths, depth, unmixedness, unmixed part.

Local cohomology enters only through graded duality: the j-th dual
M_j = Ext^{d−j}_S(M, S) carries the dimension and (when finite) the
length of H^j_m(M), and no twist normalization is needed downstream.

The duals also answer unmixedness (Eisenbud, Huneke and Vasconcelos,
Invent. Math. 110, 1992, §1): by local duality over S_P, P of dimension j
lies in Ass M exactly when it lies in Supp M_j.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .gb import (GBError, annihilator, is_zero_module, kernel_of_map,
                 minimal_free_resolution, minimal_generators,
                 minimal_presentation, quotient_module, subquotient)
from .hilbert import NEG_INF, dim_module, module_length
from .modules import FreeModule, GradedModule, ModuleMap, memoized
from .poly import require

POS_INF = float("inf")
REGULAR_SEQUENCE_TRIES = 50  # random draws per form of a regular sequence


class HomologyError(GBError):
    pass


@memoized(lambda module, k: (k,))
def ext_module(module: GradedModule, k: int) -> GradedModule:
    """Ext^k_S(M, S) from the dualized minimal free resolution."""
    ring = module.ring
    if is_zero_module(module) or k < 0:
        return GradedModule.free(ring, [])
    maps = minimal_free_resolution(module)
    pd = len(maps)
    if k > pd:
        return GradedModule.free(ring, [])
    duals = [m.transpose() for m in maps]  # duals[i] : F_i^* -> F_{i+1}^*
    if k < pd:
        ambient = duals[k].source
        cycles = kernel_of_map(duals[k])
    else:
        ambient = duals[pd - 1].target if pd else minimal_presentation(module).ambient
        if pd == 0:
            ambient = FreeModule(ring, [-t for t in ambient.twists])
        cycles = [ambient.basis(i) for i in range(ambient.rank)]
    boundaries = duals[k - 1].columns() if k >= 1 else []
    return subquotient(cycles, boundaries, ambient)


def ext_dual(module: GradedModule, j: int) -> GradedModule:
    """M_j: the module carrying H^j_m(M) under graded duality."""
    d = module.ring.num_vars
    if not (0 <= j <= d):
        raise HomologyError("dual index out of range")
    return ext_module(module, d - j)


@dataclass
class CohomologyProfile:
    duals: list
    h: list
    depth: float
    dim: float

    def finite_below_top(self):
        return all(v is not None for v in self.h)

    @property
    def is_cohen_macaulay(self):
        return self.depth == self.dim

    @property
    def is_unmixed(self):
        """dim M_j < j for every j < dim M; true for the zero module."""
        return all(dim_module(mj) < j for j, mj in enumerate(self.duals[:-1]))


@memoized()
def local_cohomology_lengths(module: GradedModule) -> CohomologyProfile:
    """Profile of h^j = λ(H^j_m(M)) for j < dim, with depth."""
    r = dim_module(module)
    if r == NEG_INF:
        return CohomologyProfile(duals=[], h=[], depth=POS_INF, dim=NEG_INF)
    duals = []
    h = []
    dep = None
    for j in range(r + 1):
        mj = ext_dual(module, j)
        dj = dim_module(mj)
        require(dj == NEG_INF or dj <= j, "dual dimension exceeds its index")
        duals.append(mj)
        if dep is None and dj != NEG_INF:
            dep = j
        if j < r:
            h.append(module_length(mj) if dj <= 0 else None)
    require(dep is not None, "top-dimensional dual of a nonzero module vanished")
    return CohomologyProfile(duals=duals, h=h, depth=dep, dim=r)


def depth(module: GradedModule):
    """Smallest j with a nonvanishing cohomological dual."""
    return local_cohomology_lengths(module).depth


def is_generalized_cm(module: GradedModule) -> bool:
    """All local cohomology below the top of finite length."""
    return local_cohomology_lengths(module).finite_below_top()


def is_cohen_macaulay(module: GradedModule) -> bool:
    return local_cohomology_lengths(module).is_cohen_macaulay


# ---------------------------------------------------------------------------
# unmixed component


def _regular_sequence_in(polys, ring, count, rng):
    """count forms inside the ideal (polys) cutting the dimension by count."""
    if count == 0:
        return []
    target_deg = max(p.total_degree() for p in polys)
    chosen = []
    d = ring.num_vars
    for i in range(count):
        for attempt in range(REGULAR_SEQUENCE_TRIES):
            f = ring.zero()
            for p in polys:
                extra = target_deg - p.total_degree()
                f = f + ring.random_form(extra, rng) * p
            if f.is_zero():
                continue
            quo = GradedModule.quotient_ring(ring, chosen + [f])
            if dim_module(quo) == d - (i + 1):
                chosen.append(f)
                break
        else:
            raise HomologyError("failed to cut the annihilator down to a "
                                "complete intersection")
    return chosen


def _hom_into_ci_quotient(module: GradedModule, ci):
    """Generators of Hom_{S/(ci)}(M, S/(ci)) as rows, minimal mod (ci)F₀*."""
    pres = minimal_presentation(module)
    t = pres.presentation.transpose()
    homs = kernel_of_map(t, target_relations=t.target.ideal_multiples(ci))
    return minimal_generators(homs, t.source.ideal_multiples(ci)), pres


@memoized()
def unmixed_component(module: GradedModule) -> GradedModule:
    """N = M/U, U the largest submodule of lower dimension.

    U is the kernel of the biduality map into the dual over a complete
    intersection S/(f) ⊆ Ann(M) of codimension d − dim M; elements of U
    are exactly the ones killed by every hom into S/(f), a condition linear
    in the hom and void on (f)F₀*.  HS(U) = HS(M) − HS(N).
    """
    ring = module.ring
    if is_zero_module(module):
        return module
    r = dim_module(module)
    c = ring.num_vars - r
    ci = (_regular_sequence_in(annihilator(module), ring, c, random.Random(7))
          if c else [])
    homs, pres = _hom_into_ci_quotient(module, ci)
    if not homs:
        raise HomologyError("dual over the complete intersection is zero")
    # evaluation at the homs, F₀ → ⊕_h S(deg h), is the transpose of the
    # map whose columns are the homs
    hom_source = FreeModule(ring, [h.degree() for h in homs])
    psi = ModuleMap(hom_source, homs[0].module, homs).transpose()
    u_gens = kernel_of_map(psi, target_relations=psi.target.ideal_multiples(ci))
    return quotient_module(pres, u_gens)


def is_unmixed(module: GradedModule) -> bool:
    """No associated prime of lower dimension, read off the Ext duals."""
    return local_cohomology_lengths(module).is_unmixed
