"""Ext duals, local-cohomology lengths, depth, unmixedness, unmixed part.

Local cohomology enters only through graded duality: the j-th dual
M_j = Ext^{d−j}_S(M, S) carries the dimension and (when finite) the
length of H^j_m(M), and no twist normalization is needed downstream.

The profile needs only the duals' Hilbert series, and reads them off
cokernels.  With F the minimal free resolution of M and
d_k^* : F_{k−1}^* → F_k^* its transposed differentials, the exact
sequences 0 → ker d_{k+1}^* → F_k^* → im d_{k+1}^* → 0 and
0 → im d_k^* → F_k^* → coker d_k^* → 0 give

    N(Ext^k) = N(coker d_k^*) + N(coker d_{k+1}^*) − N(F_{k+1}^*),

with coker d_0^* = F_0^*.  So each Ext series costs one plain basis of a
transposed differential's columns, shared by neighbouring k, and no
elimination.  ext_module builds a dual as a module, for hdeg and the
annihilators below.

Tor against S/(x), for forms x, comes off the same resolution by the
same count on the complex F/(x)F, whose differentials d̄_i : F̄_i →
F̄_{i−1} go down: N(Tor_i) = N(coker d̄_i) + N(coker d̄_{i+1}) − N(F̄_{i−1}),
with coker d̄_0 = 0 and coker d̄_{pd+1} = F̄_pd.  coker d̄_i is
F_{i−1}/(im d_i + (x)F_{i−1}), one plain basis; coker d̄_1 is M/(x)M,
whose series is read off the memoized quotient_by_ideal(M, x), and
N(F̄_i) = N(F_i)·∏(1 − t^{deg x_j}) needs none.  When x is S-regular these
are the Koszul homology series of x on M; koszul shows that a system of
parameters of M always is.

The duals also answer unmixedness (Eisenbud, Huneke and Vasconcelos,
Invent. Math. 110, 1992, §1): by local duality over S_P, P of dimension j
lies in Ass M exactly when it lies in Supp M_j.  They give the Hilbert
series of the lower-dimensional part U of M as well: a random form g in
the product of the annihilators of the duals M_j with dim M_j = j < dim M,
checked by dim M/gM = dim M − 1, has U = 0 :_M g^∞, and the nested colons
0 :_M g^k stop growing at the first k where their series repeats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .gb import (GBError, annihilator, is_zero_module, kernel_of_map,
                 minimal_free_resolution, minimal_presentation,
                 quotient_by_ideal, subquotient)
from .hilbert import (NEG_INF, colon_series, dim_module, hilbert_series,
                      series_dim, series_length, shifted_sum)
from .modules import FreeModule, GradedModule, memoized
from .poly import require

POS_INF = float("inf")
UNMIXED_FORM_TRIES = 50  # random draws of the form g that cuts out U


class HomologyError(GBError):
    pass


@memoized()
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


def _free_series(twists):
    """N(F) of the free module with these twists."""
    return shifted_sum((1, t, {0: 1}) for t in twists)


def _cokernel_series(d, polys=()):
    """N(coker d / (polys)·coker d), d a map of free modules."""
    rels = d.columns() + d.target.ideal_multiples(polys)
    return hilbert_series(GradedModule.from_relations(d.target, rels))


@memoized()
def _dual_cokernel_series(module: GradedModule, k: int):
    """N(coker d_k^*), d_k^* : F_{k−1}^* → F_k^* the transposed k-th
    differential of M's minimal resolution F; coker d_0^* = F_0^*, and
    past F's length the cokernel is 0."""
    maps = minimal_free_resolution(module)
    if k == 0:
        return _free_series(-t for t in minimal_presentation(module).ambient.twists)
    if k > len(maps):
        return {}
    return _cokernel_series(maps[k - 1].transpose())


def ext_series(module: GradedModule, k: int):
    """N(Ext^k_S(M, S)) from the cokernels of the transposed differentials,
    with no Ext module built (see the module docstring)."""
    if k < 0:
        return {}
    maps = minimal_free_resolution(module)
    top = _free_series(-t for t in maps[k].source.twists) if k < len(maps) else {}
    return shifted_sum([(1, 0, _dual_cokernel_series(module, k)),
                        (1, 0, _dual_cokernel_series(module, k + 1)),
                        (-1, 0, top)])


def tor_series(module: GradedModule, forms):
    """N(Tor_i^S(M, S/(forms))) for i = 0..len(forms), the homology of
    F/(forms)F, F the minimal free resolution of M (see the module
    docstring)."""
    maps = minimal_free_resolution(module)
    stages = []  # N(F_i/(forms)F_i) = N(F_i)·∏(1 − t^deg f)
    for free in [minimal_presentation(module).ambient] + [d.source for d in maps]:
        num = _free_series(free.twists)
        for f in forms:
            num = shifted_sum([(1, 0, num), (-1, f.total_degree(), num)])
        stages.append(num)
    # coker[i] = N(coker d̄_i): 0 for i = 0, M/(forms)M for i = 1 (built by
    # koszul_homology's sop check) and F̄_pd for i = pd + 1; when pd = 0,
    # F̄_0 is M/(forms)M itself and the last entry goes unread
    coker = ([{}, hilbert_series(quotient_by_ideal(module, forms))]
             + [_cokernel_series(d, forms) for d in maps[1:]] + stages[-1:])
    return [shifted_sum([(1, 0, coker[i]), (1, 0, coker[i + 1]),
                         (-1, 0, stages[i - 1] if i else {})])
            if i < len(stages) else {} for i in range(len(forms) + 1)]


@dataclass
class CohomologyProfile:
    """series[j] is N(M_j), the Hilbert numerator of the j-th dual, for
    j = 0..dim M, over n variables; empty for the zero module."""
    series: list
    n: int

    @property
    def dim(self):
        return len(self.series) - 1 if self.series else NEG_INF

    def dual_dim(self, j):
        return series_dim(self.series[j], self.n)

    @cached_property
    def depth(self):
        """The smallest j with M_j ≠ 0; +inf for the zero module."""
        return next((j for j, s in enumerate(self.series) if s), POS_INF)

    @cached_property
    def h(self):
        """λ(H^j_m(M)) for j < dim M, None where infinite (dim M_j > 0)."""
        return [series_length(s, self.n) for s in self.series[:-1]]

    def finite_below_top(self):
        return all(v is not None for v in self.h)

    @property
    def is_cohen_macaulay(self):
        return self.depth == self.dim

    @property
    def is_unmixed(self):
        """dim M_j < j for every j < dim M; true for the zero module."""
        return all(self.dual_dim(j) < j for j in range(len(self.series) - 1))


@memoized()
def local_cohomology_lengths(module: GradedModule) -> CohomologyProfile:
    """Profile of h^j = λ(H^j_m(M)) for j < dim, with depth, from the
    duals' series."""
    n = module.ring.num_vars
    r = dim_module(module)
    series = [] if r == NEG_INF else [ext_series(module, n - j) for j in range(r + 1)]
    prof = CohomologyProfile(series=series, n=n)
    require(all(prof.dual_dim(j) <= j for j in range(len(series))),
            "dual dimension exceeds its index")
    require(r == NEG_INF or prof.depth != POS_INF,
            "top-dimensional dual of a nonzero module vanished")
    return prof


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


def _form_in(polys, rng):
    """A random form of the ideal (polys), in their largest degree."""
    ring = polys[0].ring
    target_deg = max(p.total_degree() for p in polys)
    f = ring.zero()
    for p in polys:
        f = f + ring.random_form(target_deg - p.total_degree(), rng) * p
    return f


@memoized()
def unmixed_component(module: GradedModule):
    """Numerator of HS(U), U the largest submodule of M of lower dimension.

    The duals M_j with j < dim M and dim M_j = j carry the lower-dimensional
    associated primes, each of which contains the product I of their
    annihilators; no top-dimensional prime does, since dim M_j < dim M.  A
    random g ∈ I with dim M/gM = dim M − 1 therefore avoids every
    top-dimensional prime, and U = 0 :_M g^∞.  The colons 0 :_M g^k are
    nested, so the first k whose series equals that for k − 1 (the empty
    one for k = 0) marks the stable chain.
    """
    if is_zero_module(module):
        return {}
    prof = local_cohomology_lengths(module)
    if prof.is_unmixed:
        return {}
    factors = [annihilator(ext_dual(module, j)) for j in range(prof.dim)
               if prof.dual_dim(j) == j]
    rng = random.Random(7)
    for _ in range(UNMIXED_FORM_TRIES):
        g = module.ring.one()
        for gens in factors:
            g = g * _form_in(gens, rng)
        if dim_module(quotient_by_ideal(module, [g])) == prof.dim - 1:
            break
    else:
        raise HomologyError("no random form of the dual annihilators cuts "
                            "the dimension")
    prev, h = {}, g
    while True:
        u = colon_series(module, h)
        if u == prev:
            return u
        prev, h = u, h * g


def is_unmixed(module: GradedModule) -> bool:
    """No associated prime of lower dimension, read off the Ext duals."""
    return local_cohomology_lengths(module).is_unmixed
